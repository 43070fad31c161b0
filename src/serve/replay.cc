#include "replay.hh"

#include <cmath>
#include <sstream>

#include "core/policy_registry.hh"

namespace psm::serve
{

using net::WireReader;
using net::WireWriter;

namespace
{

/** "PSMTRLOG" read as a little-endian u64: the file's first bytes. */
constexpr std::uint64_t kFileMagic = 0x474F4C52544D5350ULL;
/** Bump when the container layout changes. */
constexpr std::uint32_t kFileVersion = 1;
constexpr std::size_t kFileHeaderSize = 12;  ///< magic + version
constexpr std::size_t kRecordHeaderSize = 5; ///< type + length
/** 64 MiB: far beyond any sane capture record; bounds corrupt reads. */
constexpr std::uint32_t kMaxRecordLength = 64u << 20;

/** Bump when the Config payload layout changes. */
constexpr std::uint8_t kConfigVersion = 3;

/** Record types inside a capture. */
enum class CaptureRecord : std::uint8_t
{
    Config = 1,
    Event = 2,
    Commit = 3,
};

std::uint64_t
fingerprint(const std::uint8_t *bytes, std::size_t n)
{
    Fnv1a h;
    h.bytes(bytes, n);
    return h.value();
}

bool
writeBytes(std::ofstream &out, const std::vector<std::uint8_t> &bytes)
{
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return out.good();
}

bool
writeRecord(std::ofstream &out, CaptureRecord type,
            const std::vector<std::uint8_t> &payload)
{
    WireWriter head;
    head.putU8(static_cast<std::uint8_t>(type));
    head.putU32(static_cast<std::uint32_t>(payload.size()));
    return writeBytes(out, head.bytes()) && writeBytes(out, payload);
}

/** Read up to @p n bytes; @return how many arrived. */
std::size_t
readBytes(std::ifstream &in, std::uint8_t *data, std::size_t n)
{
    in.read(reinterpret_cast<char *>(data),
            static_cast<std::streamsize>(n));
    return static_cast<std::size_t>(in.gcount());
}

bool
getCapturedEvent(WireReader &r, CapturedEvent &ev)
{
    if (!getEventRequest(r, ev.request) ||
        !getReplyStatus(r, ev.outcome.status))
        return false;
    ev.outcome.node = r.i32();
    ev.outcome.appId = r.i32();
    return r.good() && r.atEnd();
}

bool
getCapturedCommit(WireReader &r, CapturedCommit &commit)
{
    commit.digest = getDigest(r);
    commit.surfaceEpochSum = r.u64();
    return r.good() && r.atEnd();
}

std::string
digestLine(const DecisionDigest &d, std::uint64_t epoch_sum)
{
    std::ostringstream os;
    os << "hash=" << std::hex << d.hash << std::dec
       << " passes=" << d.passes << " simNow=" << d.simNow
       << " apps=" << d.activeApps << " objective=" << d.objective
       << " surfaceEpochSum=" << epoch_sum;
    return os.str();
}

} // namespace

const char *
unrecordedSetting(const EngineConfig &cfg)
{
    const core::ManagerConfig &m = cfg.manager;
    if (m.faults.enabled())
        return "manager.faults";
    if (m.allocator != core::AllocatorConfig{})
        return "manager.allocator";
    if (m.coordinator != core::CoordinatorConfig{})
        return "manager.coordinator";
    return nullptr;
}

std::vector<std::uint8_t>
encodeCaptureConfig(const EngineConfig &cfg)
{
    WireWriter w;
    w.putU8(kConfigVersion);
    w.putU32(static_cast<std::uint32_t>(cfg.nodes));
    w.putF64(cfg.serverCap);
    w.putU8(cfg.esd ? 1 : 0);
    w.putU64(cfg.seedBase);
    const core::ManagerConfig &m = cfg.manager;
    w.putU8(static_cast<std::uint8_t>(m.policy));
    w.putU8(m.oracleUtilities ? 1 : 0);
    w.putF64(m.budgetGuard);
    w.putU64(m.seed);
    w.putU64(fingerprint(w.bytes().data(), w.bytes().size()));
    return w.take();
}

bool
decodeCaptureConfig(const std::vector<std::uint8_t> &payload,
                    EngineConfig &out, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    if (payload.size() < 8)
        return fail("Config payload truncated");
    const std::size_t body = payload.size() - 8;
    WireReader tail(payload.data() + body, 8);
    if (tail.u64() != fingerprint(payload.data(), body))
        return fail("Config fingerprint mismatch");

    WireReader c(payload.data(), body);
    if (c.u8() != kConfigVersion)
        return fail("unsupported Config version");
    EngineConfig cfg;
    core::ManagerConfig &m = cfg.manager;
    const std::uint32_t nodes = c.u32();
    cfg.serverCap = c.f64();
    const std::uint8_t esd = c.u8();
    cfg.seedBase = c.u64();
    const std::uint8_t policy = c.u8();
    const std::uint8_t oracle = c.u8();
    m.budgetGuard = c.f64();
    m.seed = c.u64();
    if (!c.good())
        return fail("Config fields truncated");
    if (!c.atEnd())
        return fail("trailing bytes after Config fields");
    if (nodes == 0 || nodes > static_cast<std::uint32_t>(maxNodes))
        return fail("Config nodes must lie in [1, " +
                    std::to_string(maxNodes) + "]");
    // The policy byte is the PolicyKind wire id; resolve it through
    // the registry instead of a blind enum cast so captures from
    // builds with policies this binary does not register are refused
    // with a reason, not replayed with corrupt dispatch.
    const core::PolicyInfo *info =
        core::PolicyRegistry::instance().findWireId(policy);
    if (!info)
        return fail("unregistered policy wire id " +
                    std::to_string(static_cast<int>(policy)));
    // Values a CapChange may not carry or the first decision would
    // abort on; the comparisons are written so that NaN fails them.
    if (!validCap(cfg.serverCap))
        return fail("serverCap must be finite and >= 0");
    // A NaN guard band makes the first allocation's budget NaN.
    if (!std::isfinite(m.budgetGuard))
        return fail("budgetGuard must be finite");
    cfg.nodes = static_cast<int>(nodes);
    cfg.esd = esd != 0;
    m.policy = info->kind;
    m.oracleUtilities = oracle != 0;
    out = cfg;
    return true;
}

bool
CaptureWriter::open(const std::string &path, const EngineConfig &cfg)
{
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open())
        return false;
    WireWriter head;
    head.putU64(kFileMagic);
    head.putU32(kFileVersion);
    if (!writeBytes(out, head.bytes()) ||
        !writeRecord(out, CaptureRecord::Config,
                     encodeCaptureConfig(cfg))) {
        out.close();
        return false;
    }
    return true;
}

void
CaptureWriter::event(const EventRequest &request,
                     const ApplyOutcome &outcome)
{
    WireWriter w;
    putEventRequest(w, request);
    w.putU8(static_cast<std::uint8_t>(outcome.status));
    w.putI32(outcome.node);
    w.putI32(outcome.appId);
    writeRecord(out, CaptureRecord::Event, w.bytes());
}

void
CaptureWriter::commit(const DecisionDigest &digest,
                      std::uint64_t surfaceEpochSum)
{
    WireWriter w;
    putDigest(w, digest);
    w.putU64(surfaceEpochSum);
    writeRecord(out, CaptureRecord::Commit, w.bytes());
}

void
CaptureWriter::close()
{
    if (out.is_open()) {
        out.flush();
        out.close();
    }
}

bool
readCapture(const std::string &path, Capture &out, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::uint8_t head[kFileHeaderSize];
    WireReader file(head, readBytes(in, head, kFileHeaderSize));
    const std::uint64_t magic = file.u64();
    if (!file.good() || magic != kFileMagic) {
        error = "'" + path + "' is not a psm trace log (bad magic)";
        return false;
    }
    const std::uint32_t version = file.u32();
    if (!file.good() || version != kFileVersion) {
        error = "unsupported trace log version";
        return false;
    }

    Capture cap;
    bool have_config = false;
    std::vector<std::uint8_t> payload;
    for (;;) {
        std::uint8_t rec[kRecordHeaderSize];
        const std::size_t got = readBytes(in, rec, kRecordHeaderSize);
        if (got == 0)
            break; // clean EOF: the file ends after a whole record
        WireReader header(rec, got);
        const std::uint8_t type = header.u8();
        const std::uint32_t len = header.u32();
        if (!header.good() || len > kMaxRecordLength) {
            error = "truncated or corrupt record header";
            return false;
        }
        payload.resize(len);
        if (readBytes(in, payload.data(), len) != len) {
            error = "truncated record payload";
            return false;
        }
        WireReader r(payload);
        switch (static_cast<CaptureRecord>(type)) {
          case CaptureRecord::Config:
            if (have_config) {
                error = "duplicate Config record";
                return false;
            }
            {
                std::string why;
                if (!decodeCaptureConfig(payload, cap.config, &why)) {
                    error = "malformed Config record: " + why;
                    return false;
                }
            }
            have_config = true;
            break;
          case CaptureRecord::Event: {
            Capture::Step step;
            if (!getCapturedEvent(r, step.event)) {
                error = "malformed Event record";
                return false;
            }
            cap.steps.push_back(std::move(step));
            break;
          }
          case CaptureRecord::Commit: {
            Capture::Step step;
            step.isCommit = true;
            if (!getCapturedCommit(r, step.commit)) {
                error = "malformed Commit record";
                return false;
            }
            cap.steps.push_back(std::move(step));
            break;
          }
          default:
            error = "unknown record type " + std::to_string(type);
            return false;
        }
    }
    if (!have_config) {
        error = "capture has no Config record";
        return false;
    }
    out = std::move(cap);
    return true;
}

void
scriptedRun(ServeEngine &engine)
{
    EventRequest ev;
    ev.op = EventOp::Arrival;
    ev.node = -1;
    for (std::uint32_t w = 0; w < 4; ++w) {
        ev.workload = w;
        engine.apply(ev);
    }
    engine.commit();

    EventRequest cap;
    cap.op = EventOp::CapChange;
    cap.node = -1;
    cap.value = 55.0;
    engine.apply(cap);
    engine.commit();

    EventRequest adv;
    adv.op = EventOp::Advance;
    adv.value = 2.0;
    engine.apply(adv);
    engine.commit();

    EventRequest phase;
    phase.op = EventOp::PhaseChange;
    phase.node = 0;
    phase.appId = 0;
    phase.cpuScale = 1.6;
    phase.memScale = 0.7;
    engine.apply(phase);

    EventRequest kill;
    kill.op = EventOp::Kill;
    kill.node = 0;
    kill.appId = 1;
    engine.apply(kill);
    engine.commit();
    engine.commit();
}

ReplayResult
replayCapture(const Capture &capture)
{
    ReplayResult res;
    ServeEngine engine(capture.config);
    res.ok = true;
    for (const Capture::Step &step : capture.steps) {
        if (step.isCommit) {
            DecisionDigest got = engine.commit();
            std::uint64_t epoch_sum = engine.surfaceEpochSum();
            ++res.commits;
            res.finalDigest = got;
            res.finalSurfaceEpochSum = epoch_sum;
            if (!(got == step.commit.digest) ||
                epoch_sum != step.commit.surfaceEpochSum) {
                res.ok = false;
                ++res.mismatches;
                res.firstMismatch =
                    "commit " + std::to_string(res.commits) +
                    " diverged:\n  captured: " +
                    digestLine(step.commit.digest,
                               step.commit.surfaceEpochSum) +
                    "\n  replayed: " + digestLine(got, epoch_sum);
                return res;
            }
        } else {
            ApplyOutcome got = engine.apply(step.event.request);
            ++res.events;
            const ApplyOutcome &want = step.event.outcome;
            if (got.status != want.status || got.node != want.node ||
                got.appId != want.appId) {
                res.ok = false;
                ++res.mismatches;
                res.firstMismatch =
                    "event " + std::to_string(res.events) + " (" +
                    eventOpName(step.event.request.op) +
                    ") outcome diverged: captured " +
                    replyStatusName(want.status) + "/node=" +
                    std::to_string(want.node) + "/app=" +
                    std::to_string(want.appId) + ", replayed " +
                    replyStatusName(got.status) + "/node=" +
                    std::to_string(got.node) + "/app=" +
                    std::to_string(got.appId);
                return res;
            }
        }
    }
    res.finalDigest = engine.digest();
    res.finalSurfaceEpochSum = engine.surfaceEpochSum();
    return res;
}

} // namespace psm::serve
