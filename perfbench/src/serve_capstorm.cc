/**
 * @file
 * serve-capstorm: a 2-node daemon with lead-acid ESDs under
 * app-res-esd-aware.  Set-up fills every socket with an interactive
 * service and advances until all of them are calibrated; then one
 * thread sends only cap changes (60-140 W) and short advances on a
 * seeded Poisson schedule, over one connection, without waiting for
 * replies.  Learning is idle; the work is core planning at low caps
 * (ESD and temporal plans), sim stepping with request queues,
 * batching and snapshot publish.
 *
 * One connection keeps the admission queue FIFO, so the daemon's
 * batches can be rebuilt from reply.batched and re-run on the Mirror.
 */

#include <cmath>
#include <memory>

#include "core/policy_registry.hh"
#include "perf/workloads.hh"
#include "power/platform.hh"
#include "serve_common.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace psm;
using serve::EventOp;
using serve::EventRequest;
using serve::ReplyStatus;

/** Set-ups per run; setup_s is their median and the last one is
 * measured. */
constexpr int kSetupRepeats = 5;
/** The fixed open-loop rate, events per second. */
constexpr double kRate = 2500.0;
/** Latency window: ~1250 events, so its p99 has 12 beyond it. */
constexpr double kWindowS = 0.5;
/** The generator falls behind its schedule when more than a tenth of
 * its sends are later than this. */
constexpr double kGenLagLimitUs = 1000.0;

serve::ServiceConfig
capstormConfig()
{
    serve::ServiceConfig cfg;
    cfg.engine.nodes = kServeNodes;
    cfg.engine.esd = true;
    cfg.engine.manager.policy =
        core::PolicyRegistry::instance().findName("app-res-esd-aware")->kind;
    return cfg;
}

/** The seeded open-loop schedule: due offsets and events. */
struct Schedule
{
    std::vector<double> dueUs;
    std::vector<EventRequest> events;
};

Schedule
makeSchedule(std::uint64_t seed, double seconds)
{
    Rng rng(seed);
    Schedule s;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / kRate * 1e6;
        if (t >= seconds * 1e6)
            break;
        EventRequest ev;
        if (rng.uniform() < 0.6) {
            ev.op = EventOp::CapChange;
            ev.node = -1;
            ev.value = rng.uniform(60.0, 140.0);
        } else {
            ev.op = EventOp::Advance;
            ev.value = rng.uniform(0.01, 0.03);
        }
        s.dueUs.push_back(t);
        s.events.push_back(ev);
    }
    return s;
}

/** Every socket gets an interactive service (names unique per node),
 * then 100 ms advances until all of them finished calibrating. */
std::vector<Exchange>
warmup(serve::ServeService &svc, Conn &conn, std::uint64_t seed,
       bool &calibrated)
{
    std::vector<Exchange> log;
    const auto services =
        static_cast<std::uint32_t>(perf::interactiveLibrary().size());
    const int sockets = power::defaultPlatform().sockets;
    for (int node = 0; node < kServeNodes; ++node) {
        for (int s = 0; s < sockets; ++s) {
            EventRequest ev;
            ev.op = EventOp::Arrival;
            ev.node = node;
            ev.appClass = serve::AppClass::Interactive;
            ev.workload = static_cast<std::uint32_t>(
                (seed + static_cast<std::uint64_t>(node + s)) % services);
            log.push_back(conn.submit(ev));
        }
    }
    const auto want = static_cast<std::uint64_t>(kServeNodes * sockets);
    calibrated = false;
    for (int i = 0; i < 1000 && !calibrated; ++i) {
        EventRequest ev;
        ev.op = EventOp::Advance;
        ev.value = 0.1;
        log.push_back(conn.submit(ev));
        calibrated = counterOf(*svc.snapshot(),
                               "learning.calibrations_finished") >= want;
    }
    return log;
}

/**
 * Rebuild the daemon's batches from the replies and re-run them: the
 * queue is FIFO, Shed events were never queued, and every Ok reply of
 * a batch carries the batch's size and digest.
 */
bool
replayBatches(Mirror &m, const std::vector<Exchange> &xs, std::string &why)
{
    std::vector<const Exchange *> queued;
    for (const Exchange &x : xs) {
        if (x.answered && x.reply.status != ReplyStatus::Shed)
            queued.push_back(&x);
    }
    for (std::size_t i = 0; i < queued.size();) {
        std::size_t n = queued[i]->reply.batched;
        if (queued[i]->reply.status != ReplyStatus::Ok || n == 0 ||
            i + n > queued.size()) {
            why = "cannot rebuild the batch at request " +
                  std::to_string(queued[i]->requestId);
            return false;
        }
        m.replay({queued.begin() + static_cast<std::ptrdiff_t>(i),
                  queued.begin() + static_cast<std::ptrdiff_t>(i + n)});
        i += n;
    }
    return true;
}

} // namespace

void
runServeCapstorm(const Options &opt, Report &rep)
{
    // This thread, which both sends and reads, plus the daemon's
    // reactor and control threads.
    util::ThreadPool::configureGlobal(1);
    const serve::ServiceConfig cfg = capstormConfig();

    ServeRun run;
    run.openLoop = true;
    run.windows = "windows of 0.5 s";
    std::unique_ptr<serve::ServeService> svc;
    std::unique_ptr<Conn> conn, storm;
    bool calibrated = false;
    bool hello_ok = true;
    for (int r = 0; r < kSetupRepeats; ++r) {
        auto t0 = Clock::now();
        auto s = std::make_unique<serve::ServeService>(cfg);
        auto c = std::make_unique<Conn>(s->openLocalConnection());
        auto st = std::make_unique<Conn>(s->openLocalConnection());
        s->start();
        bool ok = c->hello();
        hello_ok = hello_ok && ok;
        std::vector<Exchange> warm;
        if (ok)
            warm = warmup(*s, *c, opt.seed, calibrated);
        run.setupS.push_back(secondsSince(t0));
        if (svc)
            svc->stop();
        svc = std::move(s);
        conn = std::move(c);
        storm = std::move(st);
        run.warmup = std::move(warm);
    }
    rep.gate("handshake", hello_ok, "HELLO accepted by every set-up");
    rep.gate("warmup_calibrated", calibrated,
             "every interactive service finished calibrating");
    const Tick sim0 =
        run.warmup.empty() ? 0 : run.warmup.back().reply.digest.simNow;
    const serve::StatsSnapshot before = *svc->snapshot();

    // --- The open loop: send on schedule, read whatever arrived ---
    const Schedule sched =
        makeSchedule(streamSeed(opt.seed, 2), opt.seconds);
    const std::size_t n = sched.events.size();
    run.measure.resize(n);
    std::vector<Clock::time_point> received(n);
    auto t_start = Clock::now();
    auto dueAt = [&](std::size_t i) {
        return t_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 sched.dueUs[i]));
    };
    std::size_t sent = 0, got = 0;
    bool stream_ok = hello_ok;
    Clock::time_point drain_deadline = Clock::time_point::max();
    while (stream_ok) {
        auto now = Clock::now();
        if (sent < n && now >= dueAt(sent)) {
            Exchange &x = run.measure[sent];
            x.ev = sched.events[sent];
            x.requestId = static_cast<std::uint32_t>(sent + 1);
            x.window =
                static_cast<std::size_t>(sched.dueUs[sent] / 1e6 / kWindowS);
            run.genLagUs.push_back(microsBetween(dueAt(sent), now));
            stream_ok = storm->send(net::FrameType::Event, x.requestId,
                                    serve::encodeEventRequest(x.ev));
            ++sent;
            continue;
        }
        stream_ok = storm->poll([&](net::Frame &frame,
                                    Clock::time_point at) {
            std::size_t ix = frame.requestId - 1;
            if (frame.type != net::FrameType::EventReply || ix >= sent)
                return;
            Exchange &x = run.measure[ix];
            x.answered = serve::decodeEventReply(frame.payload, x.reply);
            received[ix] = at;
            ++got;
            if (opt.trace)
                run.queueDepthMax = std::max<std::uint64_t>(
                    run.queueDepthMax, svc->snapshot()->queueDepth);
        });
        if (sent == n) {
            if (got >= n)
                break;
            if (drain_deadline == Clock::time_point::max())
                drain_deadline =
                    now + std::chrono::milliseconds(kReplyTimeoutMs);
            else if (now > drain_deadline)
                break;
        }
        cpuRelax();
    }
    run.measure.resize(sent);
    const auto windows =
        static_cast<std::size_t>(std::ceil(opt.seconds / kWindowS));
    std::vector<Tick> sim_at(windows, sim0); // latest sim clock seen
    for (std::size_t i = 0; i < sent; ++i) {
        Exchange &x = run.measure[i];
        if (!x.answered)
            continue;
        x.latencyUs = microsBetween(dueAt(i), received[i]);
        Tick &t = sim_at[std::min(x.window, windows - 1)];
        t = std::max(t, x.reply.digest.simNow);
    }
    Tick prev = sim0;
    for (std::size_t w = 0; w < windows; ++w) {
        Tick now = std::max(prev, sim_at[w]);
        run.windowSimS.push_back(toSeconds(now - prev));
        run.windowWallS.push_back(
            std::min(kWindowS, opt.seconds - static_cast<double>(w) * kWindowS));
        prev = now;
    }
    rep.gate("reply_stream", stream_ok, "open-loop connection healthy");
    double lag90 = quantile(run.genLagUs, 90.0);
    rep.note("generator lag us: p50 " +
             std::to_string(quantile(run.genLagUs, 50.0)) + ", p90 " +
             std::to_string(lag90) + ", p99 " +
             std::to_string(quantile(run.genLagUs, 99.0)) + ", max " +
             std::to_string(quantile(run.genLagUs, 100.0)));
    rep.gate("generator_on_schedule", lag90 <= kGenLagLimitUs,
             "p90 lag " + std::to_string(lag90) + " us, limit " +
                 std::to_string(kGenLagLimitUs));

    addDelta(run.delta, before, *svc->snapshot());
    svc->stop();
    run.aggPerf = meanNodePerf(svc->engine());
    run.capViolation = meanCapViolation(svc->engine());

    // The warm-up of the kept set-up starts the verified stream.
    SpanRecorder rec;
    Mirror mirror(cfg);
    mirror.replayEach(run.warmup);
    double span_cost = 0.0;
    if (opt.trace) {
        span_cost = SpanRecorder::measureSpanCostUs();
        mirror.attach(&rec);
    }
    std::string why;
    bool rebuilt = replayBatches(mirror, run.measure, why);
    rep.gate("batches_rebuilt", rebuilt,
             rebuilt ? "from reply.batched" : why);
    reportMirror(mirror, rep);

    if (opt.trace) {
        reportSnapshotLayers(run, rep);
        reportSpanLayers(rec, mirror, span_cost, opt.traceOut, rep);
    }
    reportServe(run, rep);
}

} // namespace perfbench
