/**
 * @file
 * Integration tests of the full per-server framework: the manager's
 * control loop, all five policies, cap adherence and the dynamic
 * scenarios of Section IV-C.
 */

#include <gtest/gtest.h>

#include "core/manager.hh"
#include "named_param.hh"
#include "perf/workloads.hh"

namespace psm::core
{
namespace
{

using perf::workload;
using perf::workloadLibrary;

struct Harness
{
    sim::Server server;
    std::unique_ptr<ServerManager> manager;

    explicit Harness(PolicyKind policy, Watts cap, bool esd = false,
                     bool oracle = false)
    {
        if (esd)
            server.attachEsd(esd::leadAcidUps());
        server.setCap(cap);
        ManagerConfig cfg;
        cfg.policy = policy;
        cfg.oracleUtilities = oracle;
        manager = std::make_unique<ServerManager>(server, cfg);
        manager->seedCorpus(workloadLibrary());
    }
};

class PolicyAdherence
    : public ::testing::TestWithParam<Named<PolicyKind>>
{
};

TEST_P(PolicyAdherence, HoldsTheHundredWattCap)
{
    Harness h(GetParam(), 100.0,
              GetParam() == PolicyKind::AppResEsdAware);
    h.manager->addApp(workload("stream"));
    h.manager->addApp(workload("kmeans"));
    h.manager->run(toTicks(30.0));

    // Average at/below the cap, only marginal transient overshoot.
    EXPECT_LE(h.server.meter().averagePower(), 100.5);
    // The admission transient (apps run before the first allocation
    // lands) may briefly overshoot; steady state rides at the cap
    // with only noise-level excursions, so the energy drawn above
    // the cap must be a negligible share of the total.
    EXPECT_LT(h.server.meter().worstOvershoot(), 13.0);
    EXPECT_LT(h.server.meter().violationEnergy(),
              0.01 * h.server.meter().totalEnergy());
    // And real progress was made.
    EXPECT_GT(h.manager->serverNormalizedThroughput(), 0.4);
    EXPECT_EQ(h.manager->mode(), CoordinationMode::Space);
}

// ServerResAware is named SrvResAware: a job name containing "Serve"
// would join the sanitizer jobs' [Ss]erve selection.
INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyAdherence,
    ::testing::Values(
        Named<PolicyKind>{PolicyKind::UtilUnaware, "UtilUnaware"},
        Named<PolicyKind>{PolicyKind::ServerResAware, "SrvResAware"},
        Named<PolicyKind>{PolicyKind::AppAware, "AppAware"},
        Named<PolicyKind>{PolicyKind::AppResAware, "AppResAware"},
        Named<PolicyKind>{PolicyKind::AppResEsdAware,
                          "AppResEsdAware"}));

TEST(Manager, UncappedRunsEverythingFlatOut)
{
    Harness h(PolicyKind::AppResAware, 0.0);
    h.manager->addApp(workload("stream"));
    h.manager->addApp(workload("kmeans"));
    h.manager->run(toTicks(20.0));
    EXPECT_GT(h.manager->serverNormalizedThroughput(), 0.9);
    EXPECT_NEAR(h.server.meter().averagePower(), 110.0, 8.0);
}

TEST(Manager, EightyWattCapForcesTemporalCoordination)
{
    Harness h(PolicyKind::AppResAware, 80.0);
    h.manager->addApp(workload("stream"));
    h.manager->addApp(workload("kmeans"));
    h.manager->run(toTicks(30.0));
    EXPECT_EQ(h.manager->mode(), CoordinationMode::Time);
    // Both apps make some progress (fair alternation).
    for (const auto &rec : h.manager->records())
        EXPECT_GT(rec.normalizedPerf(h.server.now()), 0.02)
            << rec.name;
}

TEST(Manager, EightyWattCapWithEsdUsesConsolidatedDutyCycling)
{
    Harness h(PolicyKind::AppResEsdAware, 80.0, true);
    h.manager->addApp(workload("stream"));
    h.manager->addApp(workload("kmeans"));
    h.manager->run(toTicks(30.0));
    EXPECT_EQ(h.manager->mode(), CoordinationMode::EsdAssisted);
    EXPECT_GT(h.server.battery()->totalDelivered(), 0.0);
}

TEST(Manager, EsdBeatsTemporalAtStringentCap)
{
    // The headline Fig. 10 result: the battery roughly doubles
    // throughput under the 80 W cap.
    Harness time_only(PolicyKind::AppResAware, 80.0);
    time_only.manager->addApp(workload("stream"));
    time_only.manager->addApp(workload("kmeans"));
    time_only.manager->run(toTicks(40.0));

    Harness with_esd(PolicyKind::AppResEsdAware, 80.0, true);
    with_esd.manager->addApp(workload("stream"));
    with_esd.manager->addApp(workload("kmeans"));
    with_esd.manager->run(toTicks(40.0));

    EXPECT_GT(with_esd.manager->serverNormalizedThroughput(),
              1.5 * time_only.manager->serverNormalizedThroughput());
}

TEST(Manager, OnlyEsdMakesProgressAtSeventyWatts)
{
    Harness plain(PolicyKind::AppResAware, 70.0);
    plain.manager->addApp(workload("stream"));
    plain.manager->addApp(workload("kmeans"));
    plain.manager->run(toTicks(30.0));
    EXPECT_LT(plain.manager->serverNormalizedThroughput(), 0.05);

    Harness esd(PolicyKind::AppResEsdAware, 70.0, true);
    esd.manager->addApp(workload("stream"));
    esd.manager->addApp(workload("kmeans"));
    esd.manager->run(toTicks(30.0));
    EXPECT_GT(esd.manager->serverNormalizedThroughput(), 0.15);
    // And still under the cap on average.
    EXPECT_LE(esd.server.meter().averagePower(), 71.0);
}

TEST(Manager, ArrivalTriggersReallocation)
{
    // Section IV-C (Fig. 11a): SSSP alone, then x264 arrives.
    Harness h(PolicyKind::AppResAware, 100.0);
    int sssp = h.manager->addApp(workload("sssp"));
    h.manager->run(toTicks(10.0));
    Watts sssp_alone = h.server.observedAppPower(sssp);

    h.manager->addApp(workload("x264"));
    h.manager->run(toTicks(10.0));
    Watts sssp_shared = h.server.observedAppPower(sssp);

    // SSSP's power shrank to make room for the arrival.
    EXPECT_LT(sssp_shared, sssp_alone - 2.0);
    const Allocation &alloc = h.manager->lastAllocation();
    EXPECT_EQ(alloc.apps.size(), 2u);
    EXPECT_TRUE(alloc.allScheduled());
    // Reallocation (calibration + decision) completed within ~1 s
    // (the paper reports 800 ms).
    EXPECT_LT(h.manager->lastReallocationLatency(), toTicks(1.5));
    EXPECT_GT(h.manager->lastReallocationLatency(), 0u);
}

TEST(Manager, DepartureReleasesPowerToSurvivor)
{
    // Section IV-C (Fig. 11b): kmeans + PageRank, PageRank departs.
    Harness h(PolicyKind::AppResAware, 100.0);
    perf::AppProfile pr = workload("pagerank");
    pr.totalHeartbeats = 2000.0; // finishes in ~12 s
    int kmeans = h.manager->addApp(workload("kmeans"));
    h.manager->addApp(pr);
    h.manager->run(toTicks(8.0));
    Watts kmeans_shared = h.server.observedAppPower(kmeans);

    h.manager->run(toTicks(20.0));
    // PageRank finished and was removed.
    bool departed = false;
    for (const auto &ev : h.manager->eventLog())
        departed |= ev.kind == EventKind::Departure;
    EXPECT_TRUE(departed);
    EXPECT_EQ(h.server.apps().size(), 1u);
    // kmeans scaled up into the freed headroom.
    Watts kmeans_alone = h.server.observedAppPower(kmeans);
    EXPECT_GT(kmeans_alone, kmeans_shared + 2.0);
}

TEST(Manager, CapDropTriggersModeSwitch)
{
    // E1: a 100 -> 80 W cap change moves the server from spatial to
    // temporal coordination.
    Harness h(PolicyKind::AppResAware, 100.0);
    h.manager->addApp(workload("stream"));
    h.manager->addApp(workload("kmeans"));
    h.manager->run(toTicks(10.0));
    EXPECT_EQ(h.manager->mode(), CoordinationMode::Space);

    h.manager->setCap(80.0);
    h.manager->run(toTicks(10.0));
    EXPECT_EQ(h.manager->mode(), CoordinationMode::Time);
    bool saw_e1 = false;
    for (const auto &ev : h.manager->eventLog())
        saw_e1 |= ev.kind == EventKind::CapChange;
    EXPECT_TRUE(saw_e1);
}

TEST(Manager, PhaseChangeTriggersDriftRecalibration)
{
    // E4: a mid-run phase change makes observed power diverge from
    // the allocation; the Accountant fires and the manager
    // recalibrates.
    Harness h(PolicyKind::AppResAware, 100.0, false, true);
    perf::AppProfile km = workload("kmeans");
    int id = h.manager->addApp(km);
    h.server.app(id).setPhases({{0.25, 1.0, 1.0}, {1.0, 0.3, 25.0}});
    h.manager->addApp(workload("x264"));
    h.manager->run(toTicks(60.0));

    bool saw_drift = false;
    for (const auto &ev : h.manager->eventLog())
        saw_drift |= ev.kind == EventKind::Drift &&
                     ev.appId == id;
    EXPECT_TRUE(saw_drift);
}

TEST(Manager, RunUntilAllDoneStops)
{
    Harness h(PolicyKind::AppResAware, 100.0);
    perf::AppProfile tiny = workload("kmeans");
    tiny.totalHeartbeats = 300.0;
    h.manager->addApp(tiny);
    h.manager->runUntilAllDone(toTicks(120.0));
    EXPECT_FALSE(h.manager->anyAppRunning());
    auto recs = h.manager->records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_TRUE(recs[0].done);
    EXPECT_NEAR(recs[0].beats, 300.0, 1.0);
}

TEST(Manager, RecordsTrackNormalizedThroughput)
{
    Harness h(PolicyKind::AppResAware, 0.0);
    h.manager->addApp(workload("kmeans"));
    h.manager->run(toTicks(10.0));
    auto recs = h.manager->records();
    ASSERT_EQ(recs.size(), 1u);
    // Uncapped: close to 1.0 (warm-up eats a little).
    EXPECT_GT(recs[0].normalizedPerf(h.server.now()), 0.9);
    EXPECT_LE(recs[0].normalizedPerf(h.server.now()), 1.01);
}

TEST(ManagerDeath, DuplicateActiveAppNameRejected)
{
    Harness h(PolicyKind::AppResAware, 100.0);
    h.manager->addApp(workload("kmeans"));
    EXPECT_DEATH(h.manager->addApp(workload("kmeans")),
                 "already exists");
}

} // namespace
} // namespace psm::core
