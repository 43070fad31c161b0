/**
 * @file
 * Tests for the cluster substrate: trace generation, peak-shaving cap
 * derivation and short replays of the three cluster policies.
 */

#include <gtest/gtest.h>

#include "cluster/cluster_manager.hh"
#include "cluster/power_trace.hh"
#include "named_param.hh"

namespace psm::cluster
{
namespace
{

TEST(PowerTrace, AtClampsAndReportsDuration)
{
    PowerTrace t;
    t.interval = toTicks(10.0);
    t.values = {100.0, 200.0, 300.0};
    EXPECT_DOUBLE_EQ(t.at(0), 100.0);
    EXPECT_DOUBLE_EQ(t.at(toTicks(15.0)), 200.0);
    EXPECT_DOUBLE_EQ(t.at(toTicks(1000.0)), 300.0);
    EXPECT_EQ(t.duration(), toTicks(30.0));
    EXPECT_DOUBLE_EQ(t.peak(), 300.0);
    EXPECT_DOUBLE_EQ(t.mean(), 200.0);
}

TEST(PowerTrace, DiurnalDemandHasExpectedShape)
{
    TraceConfig cfg;
    cfg.noise = 0.0;
    PowerTrace t = generateDiurnalDemand(cfg);
    ASSERT_EQ(t.values.size(), cfg.points);
    // Bounded by the configured envelope.
    for (Watts v : t.values) {
        EXPECT_GE(v, cfg.floor * 0.8 - 1e-9);
        EXPECT_LE(v, cfg.peak * 1.05 + 1e-9);
    }
    // Night is quieter than the evening peak.
    EXPECT_LT(t.values.front(), t.peak() - 100.0);
}

TEST(PowerTrace, DeterministicFromSeed)
{
    TraceConfig cfg;
    PowerTrace a = generateDiurnalDemand(cfg);
    PowerTrace b = generateDiurnalDemand(cfg);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t i = 0; i < a.values.size(); ++i)
        EXPECT_DOUBLE_EQ(a.values[i], b.values[i]);
}

TEST(PowerTrace, PeakShavingCapsCutThePeak)
{
    TraceConfig cfg;
    cfg.noise = 0.0;
    PowerTrace demand = generateDiurnalDemand(cfg);
    PowerTrace caps = peakShavingCaps(demand, 0.30);
    EXPECT_NEAR(caps.peak(), demand.peak() * 0.7, 1e-6);
    for (std::size_t i = 0; i < caps.values.size(); ++i)
        EXPECT_LE(caps.values[i], demand.values[i] + 1e-9);
}

TEST(PowerTrace, LoadFollowingCapsMapShapeOntoUncappedDraw)
{
    TraceConfig cfg;
    cfg.noise = 0.0;
    PowerTrace demand = generateDiurnalDemand(cfg);
    PowerTrace caps = loadFollowingCaps(demand, 1000.0, 0.30);
    // Off-peak: uncapped; at peak: 30% shaved.
    double lo = 1e9, hi = 0.0;
    for (Watts v : caps.values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_NEAR(hi, 1000.0, 1e-6);
    EXPECT_NEAR(lo, 700.0, 1e-6);
}

TEST(ClusterPolicy, Names)
{
    EXPECT_EQ(clusterPolicyName(ClusterPolicy::EqualRapl),
              "Equal(RAPL)");
    EXPECT_EQ(clusterPolicyName(ClusterPolicy::EqualOurs),
              "Equal(Ours)");
    EXPECT_EQ(
        clusterPolicyName(ClusterPolicy::ConsolidationMigration),
        "Consolidation+Migration(no cap)");
}

TEST(ClusterManager, DefaultPopulationIsFullyPacked)
{
    ClusterConfig cfg;
    cfg.servers = 4;
    ClusterManager cm(cfg);
    cm.populateDefault();
    EXPECT_EQ(cm.appCount(), 8u); // two per server
    // Uncapped demand: ~4 x 110 W.
    EXPECT_NEAR(cm.uncappedDemandEstimate(), 4.0 * 110.0, 40.0);
}

class ClusterReplay
    : public ::testing::TestWithParam<Named<ClusterPolicy>>
{
};

TEST_P(ClusterReplay, ShortReplayProducesSaneNumbers)
{
    ClusterConfig cfg;
    cfg.policy = GetParam();
    cfg.servers = 4;
    cfg.migrationDowntime = toTicks(4.0);
    cfg.serverBootDelay = toTicks(4.0);
    ClusterManager cm(cfg);
    cm.populateDefault();

    TraceConfig tc;
    tc.points = 8;
    tc.interval = toTicks(10.0);
    PowerTrace demand = generateDiurnalDemand(tc);
    PowerTrace caps =
        loadFollowingCaps(demand, cm.uncappedDemandEstimate(), 0.25);

    ClusterResult r = cm.replay(caps);
    EXPECT_GT(r.aggregatePerf, 0.05);
    EXPECT_LE(r.aggregatePerf, 1.01);
    EXPECT_GT(r.avgClusterPower, 100.0);
    EXPECT_LT(r.avgClusterPower, cm.uncappedDemandEstimate() * 1.1);
    EXPECT_GT(r.perfPerKw, 0.0);
    EXPECT_EQ(r.duration, caps.duration());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ClusterReplay,
    ::testing::Values(
        Named<ClusterPolicy>{ClusterPolicy::EqualRapl, "EqualRapl"},
        Named<ClusterPolicy>{ClusterPolicy::EqualOurs, "EqualOurs"},
        Named<ClusterPolicy>{ClusterPolicy::ConsolidationMigration,
                             "ConsolidationMigration"}));

TEST(ClusterManager, ConsolidationShedsServersUnderTightCaps)
{
    ClusterConfig cfg;
    cfg.policy = ClusterPolicy::ConsolidationMigration;
    cfg.servers = 4;
    cfg.migrationDowntime = toTicks(4.0);
    cfg.serverBootDelay = toTicks(4.0);
    ClusterManager cm(cfg);
    cm.populateDefault();

    // A flat, tight cap: roughly half the uncapped demand.
    PowerTrace caps;
    caps.interval = toTicks(20.0);
    caps.values.assign(4, cm.uncappedDemandEstimate() * 0.5);
    ClusterResult r = cm.replay(caps);
    // Some applications must have been parked.
    EXPECT_GT(r.parkedAppSteps, 0u);
    // Power stays below the cap (consolidation never caps, it sheds).
    EXPECT_LT(r.avgClusterPower,
              cm.uncappedDemandEstimate() * 0.55);
}

} // namespace
} // namespace psm::cluster
