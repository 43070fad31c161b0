/**
 * @file
 * Tests for the performance layer: the util::ThreadPool itself and
 * the determinism guard — a parallel cluster run (pool width 4) must
 * produce bit-identical energy/perf/violation results to the serial
 * run (width 1), for both cluster drivers, and a CF fit must not
 * depend on the pool width.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "cf/estimator.hh"
#include "cf/profiler.hh"
#include "cluster/cluster_manager.hh"
#include "cluster/power_trace.hh"
#include "cluster/scheduler.hh"
#include "core/telemetry.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace psm
{
namespace
{

/** Pin the global pool to a width for one test, restoring the
 * environment default afterwards. */
class ScopedPoolWidth
{
  public:
    explicit ScopedPoolWidth(unsigned width)
    {
        util::ThreadPool::configureGlobal(width);
    }
    ~ScopedPoolWidth() { util::ThreadPool::configureGlobal(0); }
};

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.width(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RangeFlavourPartitionsWithoutGapsOrOverlap)
{
    util::ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelForRange(hits.size(),
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  hits[i].fetch_add(1);
                          });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWidthRunsInlineOnCaller)
{
    util::ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    bool same_thread = true;
    pool.parallelFor(8, [&](std::size_t) {
        same_thread &= std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(same_thread);
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    pool.parallelFor(8, [&](std::size_t outer) {
        // Nested regions run inline on a worker's chunk and queue
        // from the caller's own chunk; either way every index runs
        // exactly once.
        pool.parallelFor(8, [&](std::size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsANoOp)
{
    util::ThreadPool pool(4);
    pool.parallelFor(0, [&](std::size_t) { FAIL(); });
}

// --- Estimator --------------------------------------------------------------

std::vector<cf::Measurement>
measureColumns(const std::string &app,
               const std::vector<std::size_t> &cols)
{
    const auto &plat = power::defaultPlatform();
    cf::Profiler prof(plat, 0.0);
    perf::PerfModel model(plat, perf::workload(app));
    Rng rng(17);
    return prof.measure(model, cols, rng);
}

// --- Determinism guard ------------------------------------------------------

cluster::ClusterResult
replayAt(unsigned width, cluster::ClusterPolicy policy)
{
    ScopedPoolWidth pool(width);
    cluster::ClusterConfig cfg;
    cfg.policy = policy;
    cfg.servers = 4;
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();

    cluster::TraceConfig tc;
    tc.points = 4;
    tc.interval = toTicks(5.0);
    cluster::PowerTrace demand = cluster::generateDiurnalDemand(tc);
    cluster::PowerTrace caps = cluster::loadFollowingCaps(
        demand, cm.uncappedDemandEstimate(), 0.25);
    return cm.replay(caps);
}

TEST(DeterminismGuard, ClusterManagerParallelMatchesSerialBitForBit)
{
    for (cluster::ClusterPolicy policy :
         {cluster::ClusterPolicy::EqualOurs,
          cluster::ClusterPolicy::EqualRapl}) {
        cluster::ClusterResult serial = replayAt(1, policy);
        cluster::ClusterResult parallel = replayAt(4, policy);
        EXPECT_EQ(serial.totalEnergy, parallel.totalEnergy);
        EXPECT_EQ(serial.aggregatePerf, parallel.aggregatePerf);
        EXPECT_EQ(serial.avgClusterPower, parallel.avgClusterPower);
        EXPECT_EQ(serial.capViolationFraction,
                  parallel.capViolationFraction);
        EXPECT_EQ(serial.perfPerKw, parallel.perfPerKw);
    }
}

struct SchedulerOutcome
{
    double meanCompletion = 0.0;
    double p95Completion = 0.0;
    Watts avgPower = 0.0;
    std::size_t unfinished = 0;
    Joules energy = 0.0;
};

SchedulerOutcome
scheduleAt(unsigned width)
{
    ScopedPoolWidth pool(width);
    cluster::SchedulerConfig cfg;
    cfg.servers = 3;
    cluster::ClusterScheduler sched(cfg);
    sched.generateWorkload(6, 4.0, 8.0);
    sched.run(toTicks(120.0));

    SchedulerOutcome out;
    out.meanCompletion = sched.meanCompletionSeconds();
    out.p95Completion = sched.p95CompletionSeconds();
    out.avgPower = sched.averageClusterPower();
    out.unfinished = sched.unfinished();
    return out;
}

TEST(DeterminismGuard, ShardSizeAndWidthDoNotAffectReplayResults)
{
    // The pool partitions its nodes into telemetry shards by
    // shardSize alone (never thread count), and everything the step
    // path publishes is a commutative aggregate — so any (shardSize,
    // width) combination must replay bit-identically, including a
    // ragged final shard.
    auto replayWithShards = [](unsigned width, int shard_size) {
        ScopedPoolWidth pool(width);
        cluster::ClusterConfig cfg;
        cfg.servers = 5;
        cfg.shardSize = shard_size;
        cluster::ClusterManager cm(cfg);
        cm.populateDefault();
        cluster::PowerTrace caps;
        caps.interval = toTicks(5.0);
        caps.values = {160.0, 140.0, 170.0};
        cluster::ClusterResult res = cm.replay(caps);
        core::Telemetry tel = cm.aggregateTelemetry();
        // Sharding must not swallow per-node observations: still one
        // per (node, interval).
        EXPECT_EQ(tel.timer("cluster.node_step").count, 15u);
        return std::tuple(res.totalEnergy, res.aggregatePerf,
                          res.avgClusterPower);
    };
    auto base = replayWithShards(1, 1);
    EXPECT_EQ(base, replayWithShards(1, 64));
    EXPECT_EQ(base, replayWithShards(4, 1));
    EXPECT_EQ(base, replayWithShards(4, 2)); // ragged final shard
}

TEST(DeterminismGuard, SchedulerParallelMatchesSerialBitForBit)
{
    SchedulerOutcome serial = scheduleAt(1);
    SchedulerOutcome parallel = scheduleAt(4);
    EXPECT_EQ(serial.meanCompletion, parallel.meanCompletion);
    EXPECT_EQ(serial.p95Completion, parallel.p95Completion);
    EXPECT_EQ(serial.avgPower, parallel.avgPower);
    EXPECT_EQ(serial.unfinished, parallel.unfinished);
}

TEST(DeterminismGuard, AlsFitIsWidthInvariant)
{
    auto fitAt = [](unsigned width) {
        ScopedPoolWidth pool(width);
        auto corpus = cf::profileCorpus(power::defaultPlatform(),
                                        perf::workloadLibrary());
        std::vector<std::size_t> cols;
        for (std::size_t c = 0; c < corpus->columnCount(); c += 7)
            cols.push_back(c);
        return corpus->estimate(measureColumns("stream", cols),
                                "stream");
    };
    cf::UtilitySurface serial = fitAt(1);
    cf::UtilitySurface parallel = fitAt(4);
    ASSERT_EQ(serial.power.size(), parallel.power.size());
    for (std::size_t c = 0; c < serial.power.size(); ++c) {
        EXPECT_EQ(serial.power[c], parallel.power[c]);
        EXPECT_EQ(serial.hbRate[c], parallel.hbRate[c]);
    }
}

// --- Cluster step telemetry -------------------------------------------------

TEST(ClusterTelemetry, PerIntervalStepTimersAreObserved)
{
    cluster::ClusterConfig cfg;
    cfg.servers = 2;
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();

    cluster::PowerTrace caps;
    caps.interval = toTicks(5.0);
    caps.values.assign(3, 150.0);
    cm.replay(caps);

    core::Telemetry tel = cm.aggregateTelemetry();
    // One whole-interval observation per cap value, one per-node
    // observation per (node, interval).
    EXPECT_EQ(tel.timer("cluster.step").count, 3u);
    EXPECT_EQ(tel.timer("cluster.node_step").count, 6u);
}

} // namespace
} // namespace psm
