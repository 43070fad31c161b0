/**
 * @file
 * cluster-diurnal: a 256-server Equal(Ours) cluster behind a depth-3,
 * oversubscribed PowerTree with demand-aware splitting, CF learning
 * seeded from the corpus and one interactive service per server,
 * replaying load-following caps over a diurnal trace at a 30% shave,
 * with the thread pool as wide as the host.
 *
 * Each replay is a fresh ClusterManager (replay() is one-shot and
 * builds its nodes lazily, so node construction is part of the replay
 * time).  Replays repeat until the requested wall time is used; every
 * replay of one seed must produce bit-identical decision quality.
 */

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "spans.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace psm;

constexpr int kServers = 256;
constexpr int kTreeDepth = 3;
constexpr double kOversubscription = 1.25;
constexpr double kShave = 0.30;
constexpr int kMinReplays = 2;
/** The diurnal day as 48 cap-trace points of 3 simulated seconds. */
constexpr std::size_t kTracePoints = 48;
constexpr double kIntervalS = 3.0;
/** Set-ups per replay; setup_s is the median of all of them. */
constexpr int kSetupsPerReplay = 10;

cluster::ClusterConfig
diurnalConfig()
{
    cluster::ClusterConfig cc;
    cc.policy = cluster::ClusterPolicy::EqualOurs;
    cc.servers = kServers;
    cc.topology = cluster::Topology::Tree;
    cc.treeDepth = kTreeDepth;
    cc.oversubscription = kOversubscription;
    cc.demandAwareSplit = true;
    cc.interactivePerServer = 1;
    return cc;
}

/** What one replay produced. */
struct Replay
{
    std::vector<double> setupS;
    double replayS = 0.0;
    std::size_t intervals = 0;
    cluster::ClusterResult result;
    core::Telemetry tel;
};

} // namespace

void
runClusterDiurnal(const Options &opt, Report &rep)
{
    unsigned width = std::max(1u, std::thread::hardware_concurrency());
    util::ThreadPool::configureGlobal(width);

    cluster::TraceConfig tc;
    tc.seed = opt.seed;
    tc.points = kTracePoints;
    tc.interval = toTicks(kIntervalS);
    const cluster::PowerTrace demand = cluster::generateDiurnalDemand(tc);

    SpanRecorder rec;
    SpanRecorder *r = opt.trace ? &rec : nullptr;
    SpanRecorder::NameId n_root = 0, n_setup = 0, n_replay = 0,
                         n_step = 0, n_fold = 0, n_teardown = 0;
    if (r) {
        n_root = rec.name("bench.replay", "bench");
        n_setup = rec.name("cluster.setup", "cluster");
        n_replay = rec.name("cluster.replay", "cluster");
        n_step = rec.name("cluster.pool_step", "pool_step");
        n_fold = rec.name("trace.fold", "trace");
        n_teardown = rec.name("cluster.teardown", "cluster");
    }
    double span_cost = r ? SpanRecorder::measureSpanCostUs() : 0.0;

    std::vector<Replay> replays;
    auto t_start = Clock::now();
    while (replays.size() < static_cast<std::size_t>(kMinReplays) ||
           secondsSince(t_start) < opt.seconds) {
        Replay rp;
        ScopedSpan root(r, n_root, SpanRecorder::kNoParent,
                        replays.size());
        std::unique_ptr<cluster::ClusterManager> mgr;
        cluster::PowerTrace caps;
        {
            ScopedSpan s(r, n_setup, root.id(), replays.size());
            for (int i = 0; i < kSetupsPerReplay; ++i) {
                auto t0 = Clock::now();
                mgr = std::make_unique<cluster::ClusterManager>(
                    diurnalConfig());
                mgr->populateDefault();
                caps = cluster::loadFollowingCaps(
                    demand, mgr->uncappedDemandEstimate(), kShave);
                rp.setupS.push_back(secondsSince(t0));
            }
        }
        SpanRecorder::Id replay_span = SpanRecorder::kNoParent;
        {
            ScopedSpan s(r, n_replay, root.id(), replays.size());
            replay_span = s.id();
            auto t0 = Clock::now();
            rp.result = mgr->replay(caps);
            rp.replayS = secondsSince(t0);
            rp.intervals = caps.values.size();
        }
        {
            ScopedSpan s(r, n_fold, root.id(), replays.size());
            rp.tel = mgr->aggregateTelemetry();
        }
        {
            ScopedSpan s(r, n_teardown, root.id(), replays.size());
            mgr.reset();
        }
        if (r) {
            // cluster.step is a wall timer per interval (tens of ms,
            // far above its 100 us tick): the stepping share of the
            // replay span.
            core::TimerStat step = rp.tel.timer(trace::EventId::ClusterStep);
            rec.derived(n_step, replay_span,
                        static_cast<double>(step.total) * 100.0);
        }
        replays.push_back(std::move(rp));
    }
    double wall = secondsSince(t_start);

    // --- Correctness gates ------------------------------------------
    const Replay &first = replays.front();
    bool conserved = true, identical = true;
    for (const Replay &rp : replays) {
        conserved = conserved && rp.result.conservationViolations == 0;
        identical = identical &&
                    rp.result.aggregatePerf == first.result.aggregatePerf &&
                    rp.result.capViolationFraction ==
                        first.result.capViolationFraction &&
                    rp.result.capPushes == first.result.capPushes;
    }
    rep.gate("conservation", conserved,
             "conservationViolations == 0 in every replay");
    rep.gate("replay_determinism", identical,
             "every replay of this seed decides identically");
    rep.setAttempted(replays.size(), 0);
    rep.note("replays: " + std::to_string(replays.size()) + " in " +
             exact(wall) + " s at pool width " + std::to_string(width));

    // --- End-to-end -------------------------------------------------
    std::vector<double> setup, sim_rate, interval_us, slowest_us,
        intervals_per_s;
    double sim_s = toSeconds(demand.duration());
    for (const Replay &rp : replays) {
        setup.insert(setup.end(), rp.setupS.begin(), rp.setupS.end());
        sim_rate.push_back(sim_s / rp.replayS);
        interval_us.push_back(rp.replayS * 1e6 /
                              static_cast<double>(rp.intervals));
        intervals_per_s.push_back(static_cast<double>(rp.intervals) /
                                  rp.replayS);
        // cluster.step is a wall timer of tens of ms per interval, far
        // above its 100 us tick.
        slowest_us.push_back(
            static_cast<double>(
                rp.tel.timer(trace::EventId::ClusterStep).max) *
            100.0);
    }
    {
        std::ostringstream os;
        os.precision(4);
        os << "replay sim_s_per_wall_s:";
        for (double v : sim_rate)
            os << " " << v;
        rep.note(os.str());
    }
    std::uint64_t completions =
        first.tel.counter(trace::EventId::InteractiveCompletions);
    std::uint64_t violations =
        first.tel.counter(trace::EventId::InteractiveSloViolations);

    rep.endToEnd("setup_s", median(setup), "s", setup.size(),
                 "ClusterManager construction + populateDefault + caps");
    rep.detail("latency_p50_us", median(interval_us), "us",
                 interval_us.size(),
                 "replay wall / cap intervals, median over replays");
    rep.endToEnd("latency_p99_us", median(slowest_us), "us",
                 slowest_us.size(),
                 "slowest of the " + std::to_string(kTracePoints) +
                     " intervals (cluster.step max), median over replays");
    rep.detail("events_per_s", median(intervals_per_s), "1/s",
                 intervals_per_s.size(), "cap intervals per wall second");
    rep.detail("sim_s_per_wall_s", median(sim_rate), "s/s",
                 sim_rate.size(), "replay() incl. lazy node build");
    rep.endToEnd("slo_met_frac",
                 1.0 - ratio(static_cast<double>(violations),
                             static_cast<double>(completions)),
                 "frac", completions,
                 "simulated interactive requests within their SLO");
    rep.endToEnd("peak_rss_mb", peakRssMb(), "MiB", 1);
    rep.detail("failed_frac", 0.0, "frac", replays.size(),
               "a replay has no per-event failures");
    rep.detail("agg_perf", first.result.aggregatePerf, "frac",
               replays.size(), "ClusterResult, identical in every replay");
    rep.detail("cap_violation_frac", first.result.capViolationFraction,
               "frac", replays.size(),
               "ClusterResult, identical in every replay");

    if (!r)
        return;

    // --- Per-layer ----------------------------------------------------
    const core::Telemetry &tel = first.tel;
    core::TimerStat step = tel.timer(trace::EventId::ClusterStep);
    core::TimerStat node = tel.timer(trace::EventId::ClusterNodeStep);
    double step_us = static_cast<double>(step.total) * 100.0;
    double node_us = static_cast<double>(node.total) * 100.0;
    rep.perLayer("cluster.step_s",
                 ratio(step_us, static_cast<double>(step.count)) / 1e6, "s",
                 step.count, "mean NodePool::runAll interval");
    rep.perLayer("cluster.node_step_us",
                 ratio(node_us, static_cast<double>(node.count)), "us",
                 node.count,
                 "mean per node step; samples are 100 us ticks, so only "
                 "the mean is meaningful");
    rep.perLayer("cluster.parallel_eff",
                 ratio(node_us, step_us * static_cast<double>(width)),
                 "ratio", step.count,
                 "node-step time / (step time x " + std::to_string(width) +
                     ")");
    double resolves =
        static_cast<double>(tel.counter(trace::EventId::TreeResolves));
    rep.perLayer("cluster.tree.visits_per_resolve",
                 ratio(static_cast<double>(first.result.treeResolveVisits),
                       resolves),
                 "count", static_cast<std::size_t>(resolves));
    rep.perLayer("cluster.tree.cap_pushes",
                 static_cast<double>(first.result.capPushes), "count", 1);
    rep.perLayer("sim.interactive.completions",
                 static_cast<double>(completions), "count", 1);

    double fits =
        static_cast<double>(tel.counter(trace::EventId::LearningAlsFits));
    double hits = static_cast<double>(
        tel.counter(trace::EventId::LearningSurfaceCacheHits));
    core::TimerStat fit = tel.timer(trace::EventId::LearningAlsFit);
    rep.perLayer("cf.als_fits", fits, "count", 1);
    rep.perLayer("cf.als_sweeps",
                 static_cast<double>(
                     tel.counter(trace::EventId::LearningAlsSweeps)),
                 "count", 1);
    rep.perLayer("cf.als_fit_ms",
                 ratio(static_cast<double>(fit.total) / 10.0, fits), "ms",
                 static_cast<std::size_t>(fits),
                 "mean per fit (inside parallel node steps)");
    rep.perLayer("cf.surface_cache_hit_ratio", ratio(hits, hits + fits),
                 "ratio", static_cast<std::size_t>(hits + fits),
                 "hits / (hits + fits) = " + exact(hits) + " / " +
                     exact(hits + fits));

    double calls =
        static_cast<double>(tel.counter(trace::EventId::AllocatorAllocate));
    rep.perLayer("core.allocator.calls", calls, "count", 1);
    rep.perLayer("core.allocator.dp_full_hit_ratio",
                 ratio(static_cast<double>(
                           tel.counter(trace::EventId::AllocatorDpFullHits)),
                       calls),
                 "ratio", static_cast<std::size_t>(calls));
    rep.perLayer("core.allocator.esd_plans",
                 static_cast<double>(
                     tel.counter(trace::EventId::AllocatorEsdPlan)),
                 "count", 1);
    rep.perLayer("core.reallocations",
                 static_cast<double>(
                     tel.counter(trace::EventId::ManagerReallocations)),
                 "count", 1);
    rep.perLayer("core.control_polls",
                 static_cast<double>(
                     tel.counter(trace::EventId::ControlPolls)),
                 "count", 1);
    rep.perLayer("core.trim_replans",
                 static_cast<double>(
                     tel.counter(trace::EventId::ControlTrimReplans)),
                 "count", 1);
    rep.perLayer("core.selector.spatial-utility",
                 static_cast<double>(
                     tel.counter(trace::EventId::SelectorSpatialUtility)),
                 "count", 1);
    rep.perLayer("core.selector.temporal-utility",
                 static_cast<double>(
                     tel.counter(trace::EventId::SelectorTemporalUtility)),
                 "count", 1);
    rep.perLayer("core.selector.esd-assisted",
                 static_cast<double>(
                     tel.counter(trace::EventId::SelectorEsdAssisted)),
                 "count", 1);

    std::vector<double> folds = rec.durations("trace.fold");
    rep.perLayer("trace.snapshot_us", median(folds), "us", folds.size(),
                 "median ClusterManager::aggregateTelemetry fold");

    rep.note("cluster self time = replay() minus its stepping: lazy node "
             "build (corpus profiling), PowerTree resolves, accounting; "
             "plus set-up and teardown");
    reportTrace(rec, span_cost, opt.traceOut, rep);
}

} // namespace perfbench
