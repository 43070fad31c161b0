/**
 * @file
 * A tiny binary record-log format: the container the deterministic
 * record/replay capture rides in.
 *
 * Layout (all little-endian):
 *
 *   [u64 magic "PSMTRLOG"] [u32 version]
 *   repeated: [u8 type] [u32 length] [length bytes payload]
 *
 * The log layer knows nothing about payload contents — the serve
 * layer's capture format (serve/replay.hh) defines record types and
 * encodes its own payloads with the wire-protocol codecs.  Keeping
 * the container generic means any future trace dump (binary record
 * streams, per-sink spills) reuses the same framing.
 */

#ifndef PSM_TRACE_LOG_HH
#define PSM_TRACE_LOG_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace psm::trace
{

inline constexpr std::uint64_t kLogMagic = 0x474F4C52544D5350ULL; // "PSMTRLOG"
inline constexpr std::uint32_t kLogVersion = 1;

/** Sequential writer; records are flushed on close/destruction. */
class LogWriter
{
  public:
    LogWriter() = default;

    /** Open @p path and write the header.  @return false on I/O
     * failure (the writer stays unusable). */
    bool open(const std::string &path);

    /** Append one record. */
    bool writeRecord(std::uint8_t type,
                     const std::vector<std::uint8_t> &payload);

    /** Flush and close. */
    void close();

  private:
    std::ofstream out;
};

/** Sequential reader over a log produced by LogWriter. */
class LogReader
{
  public:
    LogReader() = default;

    /** Open @p path and validate magic/version. */
    bool open(const std::string &path, std::string &error);

    /**
     * Read the next record.  @return true on success; false at clean
     * EOF or on corruption (the two are distinguished by error()).
     */
    bool readRecord(std::uint8_t &type,
                    std::vector<std::uint8_t> &payload);

    /** Non-empty when the last readRecord failure was corruption,
     * not EOF. */
    const std::string &error() const { return err; }

  private:
    std::ifstream in;
    std::string err;
};

// --- little-endian scalar helpers for payload codecs ---------------

inline void
putU8(std::vector<std::uint8_t> &buf, std::uint8_t v)
{
    buf.push_back(v);
}

inline void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

inline void
putU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void putF64(std::vector<std::uint8_t> &buf, double v);

/** Cursor-based reader mirror of the put* helpers; every get returns
 * false on a truncated buffer and leaves the cursor unspecified. */
struct ByteCursor
{
    const std::vector<std::uint8_t> *buf = nullptr;
    std::size_t pos = 0;

    explicit ByteCursor(const std::vector<std::uint8_t> &b) : buf(&b) {}

    bool
    getU8(std::uint8_t &v)
    {
        if (pos + 1 > buf->size())
            return false;
        v = (*buf)[pos++];
        return true;
    }

    bool
    getU32(std::uint32_t &v)
    {
        if (pos + 4 > buf->size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>((*buf)[pos++]) << (i * 8);
        return true;
    }

    bool
    getU64(std::uint64_t &v)
    {
        if (pos + 8 > buf->size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>((*buf)[pos++]) << (i * 8);
        return true;
    }

    bool getF64(double &v);

    bool atEnd() const { return pos == buf->size(); }
};

} // namespace psm::trace

#endif // PSM_TRACE_LOG_HH
