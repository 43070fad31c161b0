#include "replay.hh"

#include <cmath>
#include <sstream>

#include "core/policy_registry.hh"
#include "trace/log.hh"

namespace psm::serve
{

namespace
{

/** Bump when the Config payload layout changes. */
constexpr std::uint8_t kConfigVersion = 2;

std::uint64_t
fingerprint(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
    }
    return h;
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

std::vector<std::uint8_t>
encodeCaptureConfig(const EngineConfig &cfg)
{
    std::vector<std::uint8_t> buf;
    trace::putU8(buf, kConfigVersion);
    trace::putU32(buf, static_cast<std::uint32_t>(cfg.nodes));
    trace::putF64(buf, cfg.serverCap);
    trace::putU8(buf, cfg.esd ? 1 : 0);
    trace::putU64(buf, cfg.seedBase);
    trace::putU8(buf, cfg.seedCorpus ? 1 : 0);
    trace::putF64(buf, cfg.maxAdvance);
    const core::ManagerConfig &m = cfg.manager;
    trace::putU8(buf, static_cast<std::uint8_t>(m.policy));
    trace::putF64(buf, m.sampleFraction);
    trace::putU8(buf, m.oracleUtilities ? 1 : 0);
    trace::putF64(buf, m.measurementNoise);
    trace::putU64(buf, m.calibrationPerSample);
    trace::putU64(buf, m.controlPeriod);
    trace::putF64(buf, m.budgetGuard);
    trace::putF64(buf, m.trimGain);
    trace::putU64(buf, m.refreshPeriod);
    trace::putU8(buf, static_cast<std::uint8_t>(m.sampling));
    trace::putU64(buf, m.seed);
    trace::putU64(buf, fingerprint(buf));
    return buf;
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
    std::vector<std::uint8_t> body(payload.begin(), payload.end() - 8);
    trace::ByteCursor tail(payload);
    tail.pos = payload.size() - 8;
    std::uint64_t fp = 0;
    if (!tail.getU64(fp) || fp != fingerprint(body))
        return fail("Config fingerprint mismatch");

    trace::ByteCursor c(body);
    std::uint8_t version = 0, esd = 0, seed_corpus = 0, policy = 0,
                 oracle = 0, sampling = 0;
    std::uint32_t nodes = 0;
    EngineConfig cfg;
    core::ManagerConfig &m = cfg.manager;
    if (!c.getU8(version) || version != kConfigVersion)
        return fail("unsupported Config version");
    if (!c.getU32(nodes) || !c.getF64(cfg.serverCap) ||
        !c.getU8(esd) || !c.getU64(cfg.seedBase) ||
        !c.getU8(seed_corpus) || !c.getF64(cfg.maxAdvance) ||
        !c.getU8(policy) || !c.getF64(m.sampleFraction) ||
        !c.getU8(oracle) || !c.getF64(m.measurementNoise) ||
        !c.getU64(m.calibrationPerSample) ||
        !c.getU64(m.controlPeriod) || !c.getF64(m.budgetGuard) ||
        !c.getF64(m.trimGain) || !c.getU64(m.refreshPeriod) ||
        !c.getU8(sampling) || !c.getU64(m.seed))
        return fail("Config fields truncated");
    if (!c.atEnd())
        return fail("trailing bytes after Config fields");
    if (nodes == 0)
        return fail("Config has zero nodes");
    // The policy byte is the PolicyKind wire id; resolve it through
    // the registry instead of a blind enum cast so captures from
    // builds with policies this binary does not register are refused
    // with a reason, not replayed with corrupt dispatch.
    const core::PolicyInfo *info =
        core::PolicyRegistry::instance().findWireId(policy);
    if (!info)
        return fail("unregistered policy wire id " +
                    std::to_string(static_cast<int>(policy)));
    if (sampling > static_cast<std::uint8_t>(
                       cf::SamplingStrategy::Stratified))
        return fail("invalid sampling strategy " +
                    std::to_string(static_cast<int>(sampling)));
    // Values the engine's constructors or its first decision would
    // abort on; the comparisons are written so that NaN fails them.
    if (!(m.sampleFraction > 0.0 && m.sampleFraction <= 1.0))
        return fail("sampleFraction must lie in (0, 1]");
    if (!(std::isfinite(m.measurementNoise) &&
          m.measurementNoise >= 0.0))
        return fail("measurementNoise must be finite and >= 0");
    if (m.controlPeriod == 0)
        return fail("controlPeriod must be positive");
    if (info->kind == core::PolicyKind::ServerResAware &&
        seed_corpus == 0)
        return fail("policy " + info->cliName +
                    " needs the seeded corpus");
    cfg.nodes = static_cast<int>(nodes);
    cfg.esd = esd != 0;
    cfg.seedCorpus = seed_corpus != 0;
    m.policy = info->kind;
    m.oracleUtilities = oracle != 0;
    m.sampling = static_cast<cf::SamplingStrategy>(sampling);
    out = cfg;
    return true;
}

std::vector<std::uint8_t>
encodeCapturedEvent(const CapturedEvent &ev)
{
    std::vector<std::uint8_t> buf;
    const EventRequest &r = ev.request;
    trace::putU8(buf, static_cast<std::uint8_t>(r.op));
    trace::putU32(buf, static_cast<std::uint32_t>(r.node));
    trace::putU32(buf, static_cast<std::uint32_t>(r.appId));
    trace::putU32(buf, r.workload);
    trace::putF64(buf, r.value);
    trace::putF64(buf, r.cpuScale);
    trace::putF64(buf, r.memScale);
    trace::putU32(buf, r.deadlineUs);
    trace::putU8(buf, static_cast<std::uint8_t>(r.appClass));
    trace::putF64(buf, r.sloP99);
    trace::putU8(buf, static_cast<std::uint8_t>(ev.outcome.status));
    trace::putU32(buf,
                  static_cast<std::uint32_t>(ev.outcome.node));
    trace::putU32(buf,
                  static_cast<std::uint32_t>(ev.outcome.appId));
    return buf;
}

bool
decodeCapturedEvent(const std::vector<std::uint8_t> &payload,
                    CapturedEvent &out)
{
    trace::ByteCursor c(payload);
    std::uint8_t op = 0, cls = 0, status = 0;
    std::uint32_t node = 0, app = 0, onode = 0, oapp = 0;
    CapturedEvent ev;
    if (!c.getU8(op) || !c.getU32(node) || !c.getU32(app) ||
        !c.getU32(ev.request.workload) ||
        !c.getF64(ev.request.value) ||
        !c.getF64(ev.request.cpuScale) ||
        !c.getF64(ev.request.memScale) ||
        !c.getU32(ev.request.deadlineUs) || !c.getU8(cls) ||
        !c.getF64(ev.request.sloP99) || !c.getU8(status) ||
        !c.getU32(onode) || !c.getU32(oapp) || !c.atEnd())
        return false;
    if (op < static_cast<std::uint8_t>(EventOp::Advance) ||
        op > static_cast<std::uint8_t>(EventOp::Kill))
        return false;
    if (cls > static_cast<std::uint8_t>(AppClass::Interactive))
        return false;
    if (!std::isfinite(ev.request.sloP99) || ev.request.sloP99 < 0.0)
        return false;
    if (status > static_cast<std::uint8_t>(ReplyStatus::BadRequest))
        return false;
    ev.request.op = static_cast<EventOp>(op);
    ev.request.appClass = static_cast<AppClass>(cls);
    ev.request.node = static_cast<std::int32_t>(node);
    ev.request.appId = static_cast<std::int32_t>(app);
    ev.outcome.status = static_cast<ReplyStatus>(status);
    ev.outcome.node = static_cast<std::int32_t>(onode);
    ev.outcome.appId = static_cast<std::int32_t>(oapp);
    out = ev;
    return true;
}

std::vector<std::uint8_t>
encodeCapturedCommit(const CapturedCommit &commit)
{
    std::vector<std::uint8_t> buf;
    trace::putU64(buf, commit.digest.hash);
    trace::putU64(buf, commit.digest.passes);
    trace::putU64(buf, commit.digest.simNow);
    trace::putU32(buf, commit.digest.activeApps);
    trace::putF64(buf, commit.digest.objective);
    trace::putU64(buf, commit.surfaceEpochSum);
    return buf;
}

bool
decodeCapturedCommit(const std::vector<std::uint8_t> &payload,
                     CapturedCommit &out)
{
    trace::ByteCursor c(payload);
    CapturedCommit commit;
    if (!c.getU64(commit.digest.hash) ||
        !c.getU64(commit.digest.passes) ||
        !c.getU64(commit.digest.simNow) ||
        !c.getU32(commit.digest.activeApps) ||
        !c.getF64(commit.digest.objective) ||
        !c.getU64(commit.surfaceEpochSum) || !c.atEnd())
        return false;
    out = commit;
    return true;
}

bool
readCapture(const std::string &path, Capture &out, std::string &error)
{
    trace::LogReader reader;
    if (!reader.open(path, error))
        return false;

    Capture cap;
    bool have_config = false;
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;
    while (reader.readRecord(type, payload)) {
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
            if (!decodeCapturedEvent(payload, step.event)) {
                error = "malformed Event record";
                return false;
            }
            cap.steps.push_back(std::move(step));
            break;
          }
          case CaptureRecord::Commit: {
            Capture::Step step;
            step.isCommit = true;
            if (!decodeCapturedCommit(payload, step.commit)) {
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
    if (!reader.error().empty()) {
        error = reader.error();
        return false;
    }
    if (!have_config) {
        error = "capture has no Config record";
        return false;
    }
    out = std::move(cap);
    return true;
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
