/**
 * @file
 * serve-churn: one closed-loop client against a 2-node daemon under
 * the default policy, with an arrival- and kill-heavy event mix.
 * Every arrival starts a CF calibration whose ALS fit lands in a
 * commit, so the learning layer does most of the work.  With one
 * client every event is its own batch, and the Mirror checks every
 * reply against an in-process ServeEngine.
 */

#include <algorithm>

#include "perf/workloads.hh"
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

/** Closed-loop events sent during each set-up. */
constexpr std::size_t kWarmupEvents = 64;
/** Measured events per episode (a latency window: its p99 has 20
 * samples beyond it). */
constexpr std::size_t kEpisodeEvents = 2000;

/**
 * The churn mix: arrivals and kills dominate.  Kill and phase targets
 * come from apps the daemon confirmed, so the stream is a function of
 * the seed and the replies.
 */
class ChurnGenerator
{
  public:
    explicit ChurnGenerator(std::uint64_t seed) : rng(seed) {}

    EventRequest
    next()
    {
        constexpr double kAdvance = 0.15, kCap = 0.10, kArrival = 0.45,
                         kPhase = 0.05; // the rest (0.25) are kills
        EventRequest ev;
        double roll = rng.uniform();
        if (roll < kAdvance) {
            ev.op = EventOp::Advance;
            ev.value = rng.uniform(0.02, 0.08);
        } else if (roll < kAdvance + kCap) {
            ev.op = EventOp::CapChange;
            ev.node = -1;
            ev.value = rng.uniform(60.0, 140.0);
        } else if (roll < kAdvance + kCap + kArrival || live.empty()) {
            ev.op = EventOp::Arrival;
            ev.node = -1;
            ev.workload = static_cast<std::uint32_t>(rng.uniformInt(
                0, static_cast<int>(perf::workloadLibrary().size()) - 1));
        } else {
            const Live &pick = live[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(live.size()) - 1))];
            ev.node = pick.node;
            ev.appId = pick.appId;
            if (roll < kAdvance + kCap + kArrival + kPhase) {
                ev.op = EventOp::PhaseChange;
                ev.cpuScale = rng.uniform(0.5, 2.0);
                ev.memScale = rng.uniform(0.5, 2.0);
            } else {
                ev.op = EventOp::Kill;
            }
        }
        return ev;
    }

    void
    observe(const Exchange &x)
    {
        if (!x.answered || x.reply.status != ReplyStatus::Ok)
            return;
        if (x.ev.op == EventOp::Arrival) {
            live.push_back({x.reply.node, x.reply.appId});
        } else if (x.ev.op == EventOp::Kill) {
            std::erase_if(live, [&](const Live &a) {
                return a.node == x.reply.node && a.appId == x.reply.appId;
            });
        }
    }

  private:
    struct Live
    {
        std::int32_t node;
        std::int32_t appId;
    };
    Rng rng;
    std::vector<Live> live;
};

} // namespace

void
runServeChurn(const Options &opt, Report &rep)
{
    // The client plus the daemon's reactor and control threads; the
    // engine steps its two nodes inline.
    util::ThreadPool::configureGlobal(1);
    serve::ServiceConfig cfg;
    cfg.engine.nodes = kServeNodes;

    ServeRun run;
    run.windows = "episodes of " + std::to_string(kEpisodeEvents) +
                  " events";
    SpanRecorder rec;
    Mirror mirror(cfg);
    double span_cost = opt.trace ? SpanRecorder::measureSpanCostUs() : 0.0;
    bool hello_ok = true;
    // Episodes repeat until the measured time is used: each starts a
    // fresh daemon, so the state a run builds up (every app ever
    // admitted stays on record) is the same on a fast and a slow host.
    double measured_s = 0.0;
    for (std::size_t episode = 0; hello_ok && measured_s < opt.seconds;
         ++episode) {
        auto t0 = Clock::now();
        serve::ServeService svc(cfg);
        Conn conn(svc.openLocalConnection());
        svc.start();
        hello_ok = conn.hello();
        ChurnGenerator gen(streamSeed(opt.seed, episode));
        std::vector<Exchange> warm;
        for (std::size_t i = 0; hello_ok && i < kWarmupEvents; ++i) {
            warm.push_back(conn.submit(gen.next()));
            gen.observe(warm.back());
        }
        run.setupS.push_back(secondsSince(t0));
        Tick sim0 = warm.empty() ? 0 : warm.back().reply.digest.simNow;
        serve::StatsSnapshot before = *svc.snapshot();

        std::vector<Exchange> meas;
        auto t_start = Clock::now();
        auto last_reply = t_start;
        for (std::size_t i = 0; hello_ok && i < kEpisodeEvents; ++i) {
            EventRequest ev = gen.next();
            run.genLagUs.push_back(microsBetween(last_reply, Clock::now()));
            meas.push_back(conn.submit(ev));
            meas.back().window = episode;
            gen.observe(meas.back());
            last_reply = Clock::now();
            if (!meas.back().answered)
                break;
        }
        run.windowWallS.push_back(secondsSince(t_start));
        measured_s += run.windowWallS.back();
        Tick sim1 = sim0;
        for (const Exchange &x : meas)
            sim1 = std::max(sim1, x.reply.digest.simNow);
        run.windowSimS.push_back(toSeconds(sim1 - sim0));
        addDelta(run.delta, before, *svc.snapshot());
        svc.stop();
        run.aggPerf += meanNodePerf(svc.engine());
        run.capViolation += meanCapViolation(svc.engine());

        // Every reply against the in-process reference; the traced
        // run records spans over the measured events.
        mirror.restart();
        mirror.attach(nullptr);
        mirror.replayEach(warm);
        mirror.attach(opt.trace ? &rec : nullptr);
        mirror.replayEach(meas);

        run.warmup.insert(run.warmup.end(), warm.begin(), warm.end());
        run.measure.insert(run.measure.end(), meas.begin(), meas.end());
    }
    rep.gate("handshake", hello_ok, "HELLO accepted by every daemon");
    const auto episodes = static_cast<double>(run.setupS.size());
    run.aggPerf /= episodes;
    run.capViolation /= episodes;
    reportMirror(mirror, rep);

    if (opt.trace) {
        reportSnapshotLayers(run, rep);
        reportSpanLayers(rec, mirror, span_cost, opt.traceOut, rep);
    }
    reportServe(run, rep);
}

} // namespace perfbench
