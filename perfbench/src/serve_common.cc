#include "serve_common.hh"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <sstream>

#include "power/platform.hh"

namespace perfbench
{

using namespace psm;
using serve::DecisionDigest;
using serve::EventOp;
using serve::EventReply;
using serve::EventRequest;
using serve::ReplyStatus;

namespace
{

constexpr EventOp kOps[] = {EventOp::Advance, EventOp::CapChange,
                            EventOp::Arrival, EventOp::PhaseChange,
                            EventOp::Kill};

const char *
opKey(EventOp op)
{
    switch (op) {
      case EventOp::Advance:
        return "advance";
      case EventOp::CapChange:
        return "cap";
      case EventOp::Arrival:
        return "arrival";
      case EventOp::PhaseChange:
        return "phase";
      case EventOp::Kill:
        return "kill";
    }
    return "unknown";
}

PhaseCount
countPhase(const std::vector<Exchange> &xs)
{
    PhaseCount c;
    for (const Exchange &x : xs) {
        ++c.sent;
        if (!x.answered) {
            ++c.transport;
            continue;
        }
        switch (x.reply.status) {
          case ReplyStatus::Ok:
            ++c.ok;
            break;
          case ReplyStatus::Rejected:
            ++c.rejected;
            break;
          case ReplyStatus::Shed:
            ++c.shed;
            break;
          case ReplyStatus::Expired:
            ++c.expired;
            break;
          case ReplyStatus::BadRequest:
            ++c.badRequest;
            break;
        }
    }
    return c;
}


} // namespace

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 of (seed, stream).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

std::uint64_t
counterOf(const serve::StatsSnapshot &s, const std::string &name)
{
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

void
addDelta(serve::StatsSnapshot &acc, const serve::StatsSnapshot &before,
         const serve::StatsSnapshot &after)
{
    acc.eventsApplied += after.eventsApplied - before.eventsApplied;
    acc.batches += after.batches - before.batches;
    acc.shed += after.shed - before.shed;
    acc.expired += after.expired - before.expired;
    for (const auto &[name, value] : after.counters)
        acc.counters[name] += value - counterOf(before, name);
}

// --- Conn ----------------------------------------------------------

Conn::Conn(int fd) : fd(fd), buf(1 << 16)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Conn::~Conn()
{
    if (fd >= 0)
        ::close(fd);
}

bool
Conn::send(net::FrameType type, std::uint32_t id,
           const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(type, id, payload, bytes);
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n > 0)
            off += static_cast<std::size_t>(n);
        else if (n < 0 && (errno == EAGAIN || errno == EINTR))
            cpuRelax();
        else
            return false;
    }
    return true;
}

bool
Conn::readSome()
{
    ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n > 0) {
        last_read = Clock::now();
        reader.feed(buf.data(), static_cast<std::size_t>(n));
        return true;
    }
    if (n == 0)
        return false;
    return errno == EAGAIN || errno == EINTR;
}

bool
Conn::await(std::uint32_t id, net::Frame &out, Clock::time_point &at)
{
    auto deadline = Clock::now() + std::chrono::milliseconds(kReplyTimeoutMs);
    bool found = false;
    while (!found) {
        bool ok = poll([&](net::Frame &frame, Clock::time_point t) {
            if (frame.requestId == id) {
                out = std::move(frame);
                at = t;
                found = true;
            }
        });
        if (!ok)
            return false;
        if (found)
            break;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0)
            return false;
        pollfd pfd{fd, POLLIN, 0};
        ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    }
    return true;
}

bool
Conn::hello()
{
    std::uint32_t id = next_id++;
    serve::HelloRequest req;
    req.client = "perfbench";
    if (!send(net::FrameType::Hello, id, serve::encodeHelloRequest(req)))
        return false;
    net::Frame frame;
    Clock::time_point at;
    serve::HelloReply reply;
    return await(id, frame, at) && frame.type == net::FrameType::HelloAck &&
           serve::decodeHelloReply(frame.payload, reply) && reply.accepted;
}

Exchange
Conn::submit(const EventRequest &ev)
{
    Exchange x;
    x.ev = ev;
    x.requestId = next_id++;
    auto t0 = Clock::now();
    net::Frame frame;
    Clock::time_point at;
    if (send(net::FrameType::Event, x.requestId,
             serve::encodeEventRequest(ev)) &&
        await(x.requestId, frame, at)) {
        x.answered = frame.type == net::FrameType::EventReply &&
                     serve::decodeEventReply(frame.payload, x.reply);
        x.latencyUs = microsBetween(t0, at);
    }
    return x;
}

// --- Mirror --------------------------------------------------------

Mirror::Mirror(const serve::ServiceConfig &config)
    : cfg(config), allocator(config.engine.manager.allocator)
{
    restart();
}

void
Mirror::restart()
{
    eng = std::make_unique<serve::ServeEngine>(cfg.engine);
    caches.assign(static_cast<std::size_t>(eng->nodeCount()), {});
}

void
Mirror::attach(SpanRecorder *r)
{
    rec = r;
    if (!rec)
        return;
    n_batch = rec->name("bench.batch", "bench");
    n_codec = rec->name("net.codec", "net");
    for (EventOp op : kOps) {
        // An advance runs NodePool::runAll, like a commit.
        n_apply[static_cast<int>(op)] =
            rec->name(std::string("serve.apply.") + opKey(op),
                      op == EventOp::Advance ? "pool_step" : "serve");
    }
    n_commit = rec->name("serve.commit", "pool_step");
    n_digest = rec->name("serve.digest", "serve");
    n_snapshot = rec->name("trace.snapshot", "trace");
    n_als = rec->name("cf.als_fit", "cf");
    n_shadow = rec->name("shadow.allocator", "shadow");
}

void
Mirror::replay(const std::vector<const Exchange *> &batch)
{
    const std::uint32_t head = batch.front()->requestId;
    ScopedSpan root(rec, n_batch, SpanRecorder::kNoParent, head);
    std::vector<serve::ApplyOutcome> outcomes;
    std::uint32_t applied = 0;
    for (const Exchange *x : batch) {
        if (rec)
            codec(*x, root.id());
        ScopedSpan s(rec, n_apply[static_cast<int>(x->ev.op)], root.id(),
                     x->requestId);
        double fit0 = rec ? alsFitUs() : 0.0;
        outcomes.push_back(eng->apply(x->ev));
        if (rec)
            deriveAls(s.id(), fit0);
        if (outcomes.back().status == ReplyStatus::Ok)
            ++applied;
    }
    DecisionDigest digest;
    if (applied > 0) {
        ScopedSpan s(rec, n_commit, root.id(), head);
        double fit0 = rec ? alsFitUs() : 0.0;
        digest = eng->commit();
        if (rec)
            deriveAls(s.id(), fit0);
    } else {
        ScopedSpan s(rec, n_digest, root.id(), head);
        digest = eng->digest();
    }
    publish(root.id(), head);
    if (rec && applied > 0)
        shadowAllocate(root.id());

    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Exchange &x = *batch[i];
        ++checked;
        if (x.answered && x.reply.status == outcomes[i].status &&
            x.reply.node == outcomes[i].node &&
            x.reply.appId == outcomes[i].appId && x.reply.digest == digest)
            continue;
        std::ostringstream os;
        os << "request " << x.requestId << " (" << opKey(x.ev.op)
           << "): daemon " << serve::replyStatusName(x.reply.status)
           << " hash " << x.reply.digest.hash << ", mirror "
           << serve::replyStatusName(outcomes[i].status) << " hash "
           << digest.hash;
        mismatch(os.str());
    }
}

void
Mirror::replayEach(const std::vector<Exchange> &xs)
{
    for (const Exchange &x : xs)
        replay({&x});
}

double
Mirror::meanFitUs() const
{
    return ratio(fit_us_total, static_cast<double>(fit_spans));
}

void
Mirror::mismatch(const std::string &why)
{
    if (++mismatch_count == 1)
        first_mismatch = "first mismatch: " + why;
}

double
Mirror::alsFitUs()
{
    // learning.als_fit is a wall timer in 100 us ticks; ALS fits take
    // milliseconds, so its total is usable as wall time.
    Tick ticks = 0;
    for (auto &node : eng->pool())
        ticks += node.manager->telemetry()
                     .timer(trace::EventId::LearningAlsFit)
                     .total;
    return static_cast<double>(ticks) * 100.0;
}

void
Mirror::deriveAls(SpanRecorder::Id parent, double fit0_us)
{
    double fit = alsFitUs() - fit0_us;
    if (fit > 0.0) {
        rec->derived(n_als, parent, fit);
        fit_us_total += fit;
        ++fit_spans;
    }
}

void
Mirror::publish(SpanRecorder::Id parent, std::uint32_t request)
{
    {
        ScopedSpan s(rec, n_digest, parent, request);
        (void)eng->digest();
    }
    ScopedSpan s(rec, n_snapshot, parent, request);
    serve::StatsSnapshot snap;
    eng->fillSnapshot(snap, &service_bus);
}

void
Mirror::codec(const Exchange &x, SpanRecorder::Id parent)
{
    ScopedSpan s(rec, n_codec, parent, x.requestId);
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(net::FrameType::Event, x.requestId,
                     serve::encodeEventRequest(x.ev), bytes);
    net::encodeFrame(net::FrameType::EventReply, x.requestId,
                     serve::encodeEventReply(x.reply), bytes);
    net::FrameReader reader;
    reader.feed(bytes);
    net::Frame frame;
    EventRequest ev;
    EventReply reply;
    bool ok = reader.next(frame) == net::DecodeResult::Frame &&
              serve::decodeEventRequest(frame.payload, ev) &&
              reader.next(frame) == net::DecodeResult::Frame &&
              serve::decodeEventReply(frame.payload, reply);
    if (!ok)
        mismatch("codec round trip of request " +
                 std::to_string(x.requestId));
}

void
Mirror::shadowAllocate(SpanRecorder::Id parent)
{
    // The span covers building the curves too: all of it is work the
    // traced run adds, charged to the "shadow" layer.  solve_us times
    // PowerAllocator::allocate alone.
    const auto &plat = power::defaultPlatform();
    for (std::size_t ix = 0; ix < caches.size(); ++ix) {
        ScopedSpan s(rec, n_shadow, parent, 0);
        const auto &node = eng->pool()[ix];
        const core::LearningPipeline &learning = node.manager->learning();
        std::vector<core::UtilityCurve> curves;
        for (const sim::Application *app : node.server->apps()) {
            if (!app->finished() && learning.calibrated(app->id()))
                curves.push_back(
                    learning.utilityFor(app->id(), core::KnobFreedom::All));
        }
        if (curves.empty())
            continue; // nothing calibrated yet: the allocator needs apps
        std::vector<const core::UtilityCurve *> ptrs;
        for (const auto &c : curves)
            ptrs.push_back(&c);
        Watts budget =
            std::max(node.server->cap() - plat.idlePower - plat.cmPower,
                     0.0) *
            (1.0 - cfg.engine.manager.budgetGuard);
        auto t0 = Clock::now();
        allocator.allocate(ptrs, budget, &caches[ix],
                           learning.surfaceEpoch());
        solve_us.push_back(microsBetween(t0, Clock::now()));
    }
}

// --- Reporting -----------------------------------------------------

double
meanNodePerf(serve::ServeEngine &eng)
{
    double sum = 0.0;
    for (auto &node : eng.pool())
        sum += node.manager->serverNormalizedThroughput();
    return sum / static_cast<double>(eng.nodeCount());
}

double
meanCapViolation(serve::ServeEngine &eng)
{
    double sum = 0.0;
    for (auto &node : eng.pool())
        sum += node.server->meter().violationFraction();
    return sum / static_cast<double>(eng.nodeCount());
}

void
reportServe(const ServeRun &run, Report &rep)
{
    PhaseCount warm = countPhase(run.warmup);
    PhaseCount meas = countPhase(run.measure);
    rep.phase("warmup", warm);
    rep.phase("measure", meas);
    rep.setAttempted(warm.sent + meas.sent, warm.failed() + meas.failed());

    // Latency quantiles are taken per window and the median over
    // windows is reported: a stall of the host (a few ms, several
    // times a minute on a shared VM) moves a window, not the result.
    const std::size_t windows = run.windowWallS.size();
    std::vector<std::vector<double>> lat(windows);
    std::vector<double> ok(windows, 0.0);
    std::size_t answered = 0;
    std::size_t met = 0;
    for (const Exchange &x : run.measure) {
        if (!x.answered || x.window >= windows)
            continue;
        ++answered;
        lat[x.window].push_back(x.latencyUs);
        if (x.reply.status != ReplyStatus::Ok)
            continue;
        ok[x.window] += 1.0;
        if (x.latencyUs <= kServeLimitUs)
            ++met;
    }
    std::vector<double> p50, p99, ok_rate, sim_rate;
    std::ostringstream per;
    per.precision(4);
    per << "window p50 us/p99 us/Ok per s:";
    for (std::size_t w = 0; w < windows; ++w) {
        p50.push_back(quantile(lat[w], 50.0));
        p99.push_back(quantile(lat[w], 99.0));
        ok_rate.push_back(ratio(ok[w], run.windowWallS[w]));
        sim_rate.push_back(ratio(run.windowSimS[w], run.windowWallS[w]));
        per << " " << p50.back() << "/" << p99.back() << "/"
            << ok_rate.back();
    }
    rep.note(per.str());
    std::ostringstream how;
    how << "median over " << windows << " " << run.windows;
    const std::string loop = run.openLoop ? "open loop, from due time; "
                                          : "closed loop, send to reply; ";

    rep.endToEnd("setup_s", median(run.setupS), "s", run.setupS.size(),
                 "median of set-ups: construction, start(), warm-up");
    rep.endToEnd("latency_p99_us", median(p99), "us", answered,
                 loop + how.str());
    rep.detail("latency_p50_us", median(p50), "us", answered,
               loop + how.str());
    rep.detail("events_per_s", median(ok_rate), "1/s", meas.ok,
               "Ok replies per wall second; " + how.str());
    rep.detail("sim_s_per_wall_s", median(sim_rate), "s/s", meas.sent,
               "node-0 simulated seconds per wall second; " + how.str());
    rep.endToEnd("slo_met_frac",
                 ratio(static_cast<double>(met),
                       static_cast<double>(meas.sent)),
                 "frac", meas.sent,
                 "answered Ok within " + exact(kServeLimitUs) + " us");
    rep.endToEnd("peak_rss_mb", peakRssMb(), "MiB", 1);
    rep.detail("failed_frac",
               ratio(static_cast<double>(meas.failed()),
                     static_cast<double>(meas.sent)),
               "frac", meas.sent,
               "measure phase; Rejected answers: " +
                   std::to_string(meas.rejected));
    rep.detail("agg_perf", run.aggPerf, "frac", kServeNodes,
               "mean over nodes of every admitted app's normalized perf");
    rep.detail("cap_violation_frac", run.capViolation, "frac", kServeNodes,
               "mean over nodes of metered time above the cap");

    rep.gate("no_failed_events", warm.failed() + meas.failed() == 0,
             std::to_string(warm.failed() + meas.failed()) + " failed");
    rep.gate("measured_events", meas.sent > 0,
             std::to_string(meas.sent) + " sent");
}

void
reportSnapshotLayers(const ServeRun &run, Report &rep)
{
    const serve::StatsSnapshot &d = run.delta;
    auto delta = [&](const std::string &name) {
        return static_cast<double>(counterOf(d, name));
    };
    double batches = static_cast<double>(d.batches);
    double applied = static_cast<double>(d.eventsApplied);
    rep.perLayer("serve.batch_size", ratio(applied, batches), "count",
                 static_cast<std::size_t>(batches),
                 "mean events per allocator epoch");
    rep.perLayer("serve.shed", static_cast<double>(d.shed), "count", 1);
    rep.perLayer("serve.expired", static_cast<double>(d.expired), "count",
                 1);
    rep.perLayer("serve.queue_depth_max",
                 static_cast<double>(run.queueDepthMax), "count",
                 run.measure.size(), "admission queue at snapshot publish");

    double fits = delta("learning.als_fits");
    double hits = delta("learning.surface_cache_hits");
    rep.perLayer("cf.als_fits", fits, "count", 1);
    rep.perLayer("cf.als_sweeps", delta("learning.als_sweeps"),
                 "count", 1);
    rep.perLayer("cf.als_fit_ms",
                 ratio(delta("learning.als_fit.total_us") / 1000.0,
                       fits),
                 "ms", static_cast<std::size_t>(fits),
                 "mean per fit; program wall timer in 100 us ticks");
    rep.perLayer("cf.surface_cache_hit_ratio", ratio(hits, hits + fits),
                 "ratio", static_cast<std::size_t>(hits + fits),
                 "hits / (hits + fits) = " + exact(hits) + " / " +
                     exact(hits + fits));

    double calls = delta("allocator.allocate");
    rep.perLayer("core.allocator.calls", calls, "count", 1);
    rep.perLayer("core.allocator.dp_full_hit_ratio",
                 ratio(delta("allocator.dp_full_hits"), calls), "ratio",
                 static_cast<std::size_t>(calls),
                 "dp_full_hits / allocator.allocate");
    rep.perLayer("core.allocator.esd_plans",
                 delta("allocator.esd_plan"), "count", 1);
    rep.perLayer("core.reallocations", delta("manager.reallocations"),
                 "count", 1);
    rep.perLayer("core.control_polls", delta("control.polls"),
                 "count", 1);
    rep.perLayer("core.trim_replans", delta("control.trim_replans"),
                 "count", 1);
    for (const char *plan :
         {"spatial-utility", "temporal-utility", "esd-assisted"}) {
        rep.perLayer(std::string("core.selector.") + plan,
                     delta(std::string("selector.") + plan), "count",
                     1);
    }
    rep.perLayer("sim.interactive.completions",
                 delta("interactive.completions"), "count", 1);
    rep.perLayer("bench.gen_lag_p99_us", quantile(run.genLagUs, 99.0), "us",
                 run.genLagUs.size(),
                 run.openLoop ? "send time behind schedule"
                              : "generator time between reply and send");
}

void
reportSpanLayers(const SpanRecorder &rec, const Mirror &mirror,
                 double span_cost_us, const std::string &path, Report &rep)
{
    auto med = [&](const std::string &span, const std::string &metric,
                   const std::string &note) {
        std::vector<double> d = rec.durations(span);
        rep.perLayer(metric, median(d), "us", d.size(), note);
    };
    med("net.codec", "net.codec_us",
        "median per event: request and reply frames encoded and decoded");
    for (EventOp op : kOps) {
        med(std::string("serve.apply.") + opKey(op),
            std::string("serve.apply_us.") + opKey(op),
            "median ServeEngine::apply");
    }
    std::vector<double> commits = rec.durations("serve.commit");
    rep.perLayer("serve.commit_p50_us", quantile(commits, 50.0), "us",
                 commits.size());
    rep.perLayer("serve.commit_p99_us", quantile(commits, 99.0), "us",
                 commits.size());
    med("serve.digest", "serve.digest_us", "median ServeEngine::digest");
    med("trace.snapshot", "trace.snapshot_us",
        "median ServeEngine::fillSnapshot, once per batch");
    rep.perLayer("core.allocator.solve_us", median(mirror.solveUs()), "us",
                 mirror.solveUs().size(),
                 "median shadow PowerAllocator::allocate per node");

    if (mirror.meanFitUs() > 0.0)
        rep.note("mean ALS fit " + exact(mirror.meanFitUs() / 1000.0) +
                 " ms: well above the 100 us tick, so used as wall time");
    rep.note("pool_step = NodePool::runAll inside commit and advance: "
             "cluster stepping, core control loop and sim together; "
             "splitting it needs spans inside the program");
    reportTrace(rec, span_cost_us, path, rep);
}

void
reportMirror(const Mirror &m, Report &rep)
{
    rep.gate("mirror_equivalence",
             m.mismatches() == 0 && m.eventsChecked() > 0,
             std::to_string(m.mismatches()) + " mismatches in " +
                 std::to_string(m.eventsChecked()) +
                 " replies (status, node, app id, digest)" +
                 (m.firstMismatch().empty() ? "" : "; " + m.firstMismatch()));
}

} // namespace perfbench
