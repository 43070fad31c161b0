/**
 * @file
 * Tests for the extension modules: trace CSV I/O, the latency (QoS)
 * model and the cluster job scheduler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cluster/power_trace.hh"
#include "core/manager.hh"
#include "cluster/scheduler.hh"
#include "perf/latency.hh"
#include "perf/workloads.hh"

namespace psm
{
namespace
{

// --- Trace CSV I/O -----------------------------------------------------

class TraceCsvTest : public ::testing::Test
{
  protected:
    // One file per case: ctest runs each case as its own process, in
    // parallel under -j, and a shared file would let one case's
    // TearDown delete or rewrite another's input.
    std::string path =
        ::testing::TempDir() + "psm_trace_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";

    void TearDown() override { std::remove(path.c_str()); }
};

TEST_F(TraceCsvTest, RoundTripsThroughCsv)
{
    cluster::TraceConfig cfg;
    cfg.points = 16;
    cluster::PowerTrace original =
        cluster::generateDiurnalDemand(cfg);
    cluster::saveTraceCsv(original, path);
    cluster::PowerTrace loaded = cluster::loadTraceCsv(path);

    EXPECT_EQ(loaded.interval, original.interval);
    ASSERT_EQ(loaded.values.size(), original.values.size());
    for (std::size_t i = 0; i < loaded.values.size(); ++i)
        EXPECT_NEAR(loaded.values[i], original.values[i], 1e-4);
}

TEST_F(TraceCsvTest, LoadsHeaderlessFiles)
{
    std::ofstream out(path);
    out << "0,100\n10,200\n20,300\n";
    out.close();
    cluster::PowerTrace t = cluster::loadTraceCsv(path);
    EXPECT_EQ(t.interval, toTicks(10.0));
    EXPECT_DOUBLE_EQ(t.values[2], 300.0);
}

TEST_F(TraceCsvTest, RejectsNonUniformSpacing)
{
    std::ofstream out(path);
    out << "0,100\n10,200\n15,300\n";
    out.close();
    EXPECT_DEATH(cluster::loadTraceCsv(path), "uniformly spaced");
}

TEST_F(TraceCsvTest, RejectsMissingAndMalformedFiles)
{
    EXPECT_DEATH(cluster::loadTraceCsv("/nonexistent/trace.csv"),
                 "cannot read");
    std::ofstream out(path);
    out << "watts only\nnot,numbers,here\n";
    out.close();
    EXPECT_DEATH(cluster::loadTraceCsv(path), "");
}

// --- Latency model -------------------------------------------------------

TEST(LatencyModel, KnownValues)
{
    using perf::LatencyModel;
    // mu = 100/s, lambda = 50/s: mean = 20 ms.
    EXPECT_NEAR(LatencyModel::meanSojourn(100.0, 50.0), 0.02, 1e-12);
    EXPECT_NEAR(LatencyModel::utilization(100.0, 50.0), 0.5, 1e-12);
    // p99 = ln(100) * mean ~ 92 ms.
    EXPECT_NEAR(LatencyModel::p99(100.0, 50.0),
                0.02 * std::log(100.0), 1e-12);
}

TEST(LatencyModel, UnstableQueueIsInfinite)
{
    using perf::LatencyModel;
    EXPECT_EQ(LatencyModel::meanSojourn(100.0, 100.0),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::p99(50.0, 80.0), LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::utilization(0.0, 10.0),
              LatencyModel::unstable);
}

TEST(LatencyModel, OutOfDomainInputsReturnSentinel)
{
    using perf::LatencyModel;
    double nan = std::nan("");
    // The sentinel contract is uniform: negative rates, NaNs and
    // non-positive SLOs all answer `unstable`, never an assert.
    EXPECT_EQ(LatencyModel::utilization(-1.0, 10.0),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::utilization(10.0, -1.0),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::utilization(nan, 10.0),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::meanSojourn(-5.0, 1.0),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::meanSojourn(100.0, nan),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::p99(nan, nan), LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::requiredRateForSlo(100.0, 0.0),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::requiredRateForSlo(100.0, -0.1),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::requiredRateForSlo(-1.0, 0.1),
              LatencyModel::unstable);
    EXPECT_EQ(LatencyModel::requiredRateForSlo(100.0, nan),
              LatencyModel::unstable);
}

TEST(LatencyModel, ZeroLoadIsServiceTimeOnly)
{
    using perf::LatencyModel;
    // Valid boundary inputs still answer normally.
    EXPECT_NEAR(LatencyModel::meanSojourn(100.0, 0.0), 0.01, 1e-12);
    EXPECT_NEAR(LatencyModel::utilization(100.0, 0.0), 0.0, 1e-12);
}

TEST(LatencyModel, RequiredRateInvertsP99)
{
    using perf::LatencyModel;
    double lambda = 120.0;
    double slo = 0.050; // 50 ms p99
    double mu = LatencyModel::requiredRateForSlo(lambda, slo);
    EXPECT_GT(mu, lambda);
    EXPECT_NEAR(LatencyModel::p99(mu, lambda), slo, 1e-9);
}

TEST(LatencyModel, TailDegradesGracefullyTowardSaturation)
{
    using perf::LatencyModel;
    double prev = 0.0;
    for (double lambda = 10.0; lambda < 100.0; lambda += 10.0) {
        double p = LatencyModel::p99(100.0, lambda);
        EXPECT_GT(p, prev);
        prev = p;
    }
}

// --- Cluster job scheduler ------------------------------------------------

TEST(ClusterScheduler, RunsAGeneratedWorkloadToCompletion)
{
    cluster::SchedulerConfig cfg;
    cfg.servers = 2;
    cfg.serverCap = 100.0;
    cluster::ClusterScheduler sched(cfg);
    sched.generateWorkload(6, 5.0, 15.0);
    ASSERT_EQ(sched.jobs().size(), 6u);
    sched.run(toTicks(600.0));

    EXPECT_EQ(sched.unfinished(), 0u);
    for (const auto &job : sched.jobs()) {
        EXPECT_TRUE(job.done());
        EXPECT_GE(job.started, job.arrival);
        EXPECT_GT(job.finished, job.started);
        EXPECT_GE(job.server, 0);
    }
    EXPECT_GT(sched.meanCompletionSeconds(), 0.0);
    EXPECT_GE(sched.p95CompletionSeconds(),
              sched.meanCompletionSeconds());
    EXPECT_GT(sched.averageClusterPower(),
              power::defaultPlatform().idlePower);
}

TEST(ClusterScheduler, QueuesWhenSocketsAreBusy)
{
    cluster::SchedulerConfig cfg;
    cfg.servers = 1; // two sockets total
    cluster::ClusterScheduler sched(cfg);
    // Three long jobs arriving at once: the third must queue.
    for (int i = 0; i < 3; ++i) {
        cluster::Job job;
        job.profile = perf::workload(
            i == 0 ? "kmeans" : (i == 1 ? "x264" : "bfs"));
        job.profile.totalHeartbeats /= 8.0;
        job.arrival = 0;
        sched.submit(std::move(job));
    }
    sched.run(toTicks(120.0));
    // The queued job started strictly later than its arrival.
    const auto &third = sched.jobs()[2];
    EXPECT_TRUE(third.done());
    EXPECT_GT(third.started, third.arrival);
}

TEST(ClusterScheduler, PlacementPolicyNames)
{
    EXPECT_EQ(cluster::placementPolicyName(
                  cluster::PlacementPolicy::FirstFit),
              "FirstFit");
    EXPECT_EQ(cluster::placementPolicyName(
                  cluster::PlacementPolicy::PowerHeadroom),
              "PowerHeadroom");
}

TEST(ClusterScheduler, HeadroomPlacementAvoidsTheLoadedServer)
{
    // Two servers under a tight cap: one already hosts a heavy app.
    // The power-aware policy should place the next job on the idle
    // server even though the loaded one is first-fit eligible.
    for (auto policy : {cluster::PlacementPolicy::FirstFit,
                        cluster::PlacementPolicy::PowerHeadroom}) {
        cluster::SchedulerConfig cfg;
        cfg.servers = 2;
        cfg.serverCap = 92.0;
        cfg.placement = policy;
        cluster::ClusterScheduler sched(cfg);

        cluster::Job first;
        first.profile = perf::workload("kmeans");
        first.profile.totalHeartbeats *= 10.0; // effectively endless
        first.arrival = 0;
        sched.submit(std::move(first));

        cluster::Job second;
        second.profile = perf::workload("stream");
        second.profile.totalHeartbeats *= 10.0;
        second.arrival = toTicks(10.0);
        sched.submit(std::move(second));

        sched.run(toTicks(20.0));
        const auto &jobs = sched.jobs();
        ASSERT_EQ(jobs[0].server, 0);
        if (policy == cluster::PlacementPolicy::PowerHeadroom) {
            // Server 1 is idle (50 W draw vs ~75 W on server 0).
            EXPECT_EQ(jobs[1].server, 1);
        } else {
            EXPECT_EQ(jobs[1].server, 0);
        }
    }
}


// --- PC6 residency and chemistry variants --------------------------------

TEST(Pc6Residency, SleepTimeAndWakesAreAccounted)
{
    sim::Server server;
    int id = server.admit(perf::workload("kmeans"));
    server.run(toTicks(1.0));
    EXPECT_EQ(server.packageSleepTime(), 0u);

    server.app(id).suspend(server.now());
    server.run(toTicks(2.0));
    EXPECT_NEAR(toSeconds(server.packageSleepTime()), 2.0, 0.05);

    std::size_t wakes_before = server.packageWakeCount();
    server.app(id).resume(server.now());
    server.run(toTicks(1.0));
    EXPECT_EQ(server.packageWakeCount(), wakes_before + 1);
    // Sleep time stops accumulating once active again.
    EXPECT_NEAR(toSeconds(server.packageSleepTime()), 2.0, 0.05);
}

TEST(Pc6Residency, EsdModeSleepsDuringChargePhases)
{
    sim::Server server;
    server.attachEsd(esd::leadAcidUps());
    server.setCap(80.0);
    core::ManagerConfig cfg;
    cfg.policy = core::PolicyKind::AppResEsdAware;
    core::ServerManager manager(server, cfg);
    manager.seedCorpus(perf::workloadLibrary());
    manager.addApp(perf::workload("stream"));
    manager.addApp(perf::workload("kmeans"));
    manager.run(toTicks(30.0));

    // Consolidated duty cycling spends the OFF fraction in PC6 and
    // wakes once per cycle.
    double sleep_frac = toSeconds(server.packageSleepTime()) /
                        toSeconds(server.now());
    EXPECT_GT(sleep_frac, 0.3);
    EXPECT_LT(sleep_frac, 0.8);
    EXPECT_GT(server.packageWakeCount(), 5u);
}

TEST(BatteryChemistry, LiIonBeatsLeadAcidPerEqFive)
{
    // Higher round-trip efficiency shrinks the Eq. 5 OFF fraction.
    esd::BatteryConfig lead = esd::leadAcidUps();
    esd::BatteryConfig li = esd::liIonPack();
    EXPECT_GT(li.roundTripEfficiency(),
              lead.roundTripEfficiency() + 0.1);
    EXPECT_NO_FATAL_FAILURE(li.validate());

    auto throughput = [](const esd::BatteryConfig &bat) {
        sim::Server server;
        server.attachEsd(bat);
        server.setCap(75.0);
        core::ManagerConfig cfg;
        cfg.policy = core::PolicyKind::AppResEsdAware;
        core::ServerManager manager(server, cfg);
        manager.seedCorpus(perf::workloadLibrary());
        manager.addApp(perf::workload("stream"));
        manager.addApp(perf::workload("kmeans"));
        manager.run(toTicks(30.0));
        return manager.serverNormalizedThroughput();
    };
    EXPECT_GT(throughput(li), throughput(lead) * 1.05);
}

} // namespace
} // namespace psm
