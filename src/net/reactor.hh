/**
 * @file
 * An epoll-based non-blocking reactor: the daemon's transport thread.
 *
 * One thread calls run() and owns all socket I/O: it accepts new
 * connections from an optional listener, reads whatever bytes are
 * ready, feeds each connection's incremental FrameReader, and invokes
 * the Handler for every complete frame.  Writes are buffered
 * per-connection and flushed opportunistically; when the kernel
 * buffer fills, EPOLLOUT interest drains the rest.
 *
 * Other threads interact through two thread-safe entry points:
 * send() (the control thread queues replies; an eventfd wakes the
 * reactor to flush them) and addConnection() (adopt a connected fd,
 * e.g. one end of a socketpair).  A connection whose stream turns to
 * garbage — bad magic, unknown version or type, oversized frame — is
 * dropped, never resynchronized.
 */

#ifndef PSM_NET_REACTOR_HH
#define PSM_NET_REACTOR_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "frame.hh"
#include "message_reader.hh"

namespace psm::net
{

class Reactor
{
  public:
    /** The layer above (the serve service). Callbacks run on the
     * reactor thread with no reactor lock held, so they may call
     * send() freely. */
    struct Handler
    {
        virtual ~Handler() = default;
        /** One complete, validated frame arrived. */
        virtual void onFrame(std::uint64_t conn, Frame &&frame) = 0;
        /** The peer vanished (EOF, error, or garbage framing). */
        virtual void onDisconnect(std::uint64_t conn) = 0;
    };

    explicit Reactor(Handler &handler);
    ~Reactor();

    Reactor(const Reactor &) = delete;
    Reactor &operator=(const Reactor &) = delete;

    /**
     * Adopt a connected stream fd (made non-blocking here).
     * Thread-safe; usable before and during run().
     *
     * @return The connection id used in callbacks and send().
     */
    std::uint64_t addConnection(int fd);

    /** Install a listening fd; the reactor accepts from it.  Call
     * before run(). */
    void setListener(int fd);

    /**
     * Queue bytes for a connection and wake the reactor to flush.
     * Thread-safe.  @return false when the connection is gone.
     */
    bool send(std::uint64_t conn, std::vector<std::uint8_t> bytes);

    /** Run the event loop until stop(); call from the reactor
     * thread. */
    void run();

    /** Ask run() to return; thread-safe and idempotent. */
    void stop();

    /** Live connections (thread-safe gauge). */
    std::size_t connectionCount() const;

  private:
    struct Conn
    {
        int fd = -1;
        std::uint64_t id = 0;
        FrameReader reader;
        std::deque<std::vector<std::uint8_t>> outq;
        std::size_t out_off = 0; ///< bytes of outq.front() written
        bool want_write = false; ///< EPOLLOUT currently armed
    };

    Handler &handler;
    int epfd = -1;
    int wakefd = -1;
    int listenfd = -1;
    bool stop_flag = false; ///< guarded by mtx

    mutable std::mutex mtx;
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::vector<std::uint64_t> flush_pending;
    std::uint64_t next_id = 2; ///< 0 = wake, 1 = listener

    void wake();
    void acceptPending();
    void handleReadable(std::uint64_t id);
    void handleWritable(std::uint64_t id);
    /** Write the out-queue until empty or EAGAIN; manages EPOLLOUT.
     * Caller holds mtx.  @return false on a dead peer. */
    bool flushLocked(Conn &conn);
    void closeConn(std::uint64_t id);
    void updateInterest(Conn &conn, bool want_write);
};

} // namespace psm::net

#endif // PSM_NET_REACTOR_HH
