/**
 * @file
 * Tests for the layered control plane: the Telemetry bus, the
 * LearningPipeline, the PlanSelector, the NodePool substrate, and an
 * end-to-end scripted E1-E4 scenario observed entirely through the
 * telemetry bus.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "cf/profiler.hh"
#include "cluster/node_pool.hh"
#include "core/control_loop.hh"
#include "core/learning_pipeline.hh"
#include "core/manager.hh"
#include "core/plan_selector.hh"
#include "core/telemetry.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "util/random.hh"

namespace psm::core
{
namespace
{

using perf::workload;
using perf::workloadLibrary;
using power::defaultPlatform;

// --- Telemetry bus ----------------------------------------------------------

TEST(Telemetry, CountersAccumulate)
{
    Telemetry tel;
    EXPECT_EQ(tel.counter("control.polls"), 0u);
    tel.count(trace::EventId::ControlPolls);
    tel.count(trace::EventId::ControlPolls, 4);
    EXPECT_EQ(tel.counter("control.polls"), 5u);
    EXPECT_EQ(tel.counter(trace::EventId::ControlPolls), 5u);
    EXPECT_EQ(tel.counter("never"), 0u);
}

TEST(Telemetry, TimersTrackCountTotalMax)
{
    Telemetry tel;
    tel.observe(trace::EventId::ManagerReallocate, 10);
    tel.observe(trace::EventId::ManagerReallocate, 30);
    tel.observe(trace::EventId::ManagerReallocate, 20);
    TimerStat t = tel.timer("manager.reallocate");
    EXPECT_EQ(t.count, 3u);
    EXPECT_EQ(t.total, 60);
    EXPECT_EQ(t.max, 30);
    EXPECT_EQ(tel.timer("never").count, 0u);
}

TEST(Telemetry, MergeFoldsCountersAndTimers)
{
    Telemetry a;
    a.count(trace::EventId::ControlPolls, 2);
    a.observe(trace::EventId::ManagerReallocate, 10);
    DecisionRecord rec;
    rec.plan = PlanChoice::Idle;
    a.record(rec);

    Telemetry b;
    b.count(trace::EventId::ControlPolls, 3);
    b.count(trace::EventId::ControlTrimReplans);
    b.observe(trace::EventId::ManagerReallocate, 25);
    rec.plan = PlanChoice::SpatialUtility;
    b.record(rec);

    a.merge(b);
    EXPECT_EQ(a.counter("control.polls"), 5u);
    EXPECT_EQ(a.counter("control.trim_replans"), 1u);
    EXPECT_EQ(a.timer("manager.reallocate").count, 2u);
    EXPECT_EQ(a.timer("manager.reallocate").max, 25);
    // Decision records stay on the bus that recorded them.
    ASSERT_EQ(a.decisions().size(), 1u);
    EXPECT_EQ(a.decisions()[0].plan, PlanChoice::Idle);
    ASSERT_EQ(b.decisions().size(), 1u);
    EXPECT_EQ(b.decisions()[0].plan, PlanChoice::SpatialUtility);
}

TEST(Telemetry, DumpsContainTheirContent)
{
    Telemetry tel;
    tel.count(trace::EventId::ManagerReallocations, 7);
    tel.observe(trace::EventId::AllocatorSpatial, toTicks(0.5));
    DecisionRecord rec;
    rec.trigger = DecisionTrigger::CapChange;
    rec.plan = PlanChoice::FairRaplSpace;
    tel.record(rec);

    std::ostringstream text;
    tel.dumpText(text);
    EXPECT_NE(text.str().find("manager.reallocations = 7"),
              std::string::npos);
    EXPECT_NE(text.str().find("allocator.spatial: count=1"),
              std::string::npos);
    EXPECT_NE(text.str().find("fair-rapl-space"), std::string::npos);

    std::ostringstream json;
    tel.dumpJson(json);
    EXPECT_NE(json.str().find("\"manager.reallocations\":7"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"trigger\":\"E1-cap-change\""),
              std::string::npos);
    // Crude structural sanity: braces balance.
    int depth = 0;
    for (char c : json.str()) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

// --- LearningPipeline -------------------------------------------------------

TEST(LearningPipeline, OracleCalibrationIsImmediate)
{
    sim::Server server;
    Telemetry tel;
    LearningPipeline pipe(server, true, 7, &tel);
    pipe.seedCorpus(cf::profileCorpus(server.platform(), workloadLibrary()));
    ASSERT_NE(pipe.serverAverageCurve(), nullptr);

    int id = server.admit(workload("stream"));
    pipe.track(id, workload("stream"));
    EXPECT_FALSE(pipe.calibrated(id));
    EXPECT_TRUE(pipe.startCalibration(id));
    EXPECT_TRUE(pipe.calibrated(id));
    EXPECT_EQ(pipe.lastCalibrationLatency(), 0);

    UtilityCurve curve = pipe.utilityFor(id, KnobFreedom::All);
    EXPECT_GT(curve.maxPower(), curve.minPower());
    EXPECT_EQ(tel.counter("learning.oracle_calibrations"), 1u);
}

TEST(LearningPipeline, OnlineCalibrationChargesWallClock)
{
    sim::Server server;
    Telemetry tel;
    LearningPipeline pipe(server, false, 7, &tel);
    pipe.seedCorpus(cf::profileCorpus(server.platform(), workloadLibrary()));

    int id = server.admit(workload("kmeans"));
    pipe.track(id, workload("kmeans"));
    std::uint64_t e0 = pipe.surfaceEpoch();
    EXPECT_FALSE(pipe.startCalibration(id));
    EXPECT_FALSE(pipe.calibrated(id));
    EXPECT_EQ(pipe.surfaceEpoch(), e0); // nothing installed yet
    // The app is pinned conservatively while being profiled.
    EXPECT_NEAR(server.app(id).knobs().freq,
                defaultPlatform().minSetting().freq, 1e-9);
    // Nothing is due before the measurement wall-clock elapses.
    EXPECT_TRUE(pipe.finishDueCalibrations().empty());

    server.run(toTicks(10.0));
    std::vector<int> done = pipe.finishDueCalibrations();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], id);
    EXPECT_TRUE(pipe.calibrated(id));
    EXPECT_EQ(pipe.surfaceEpoch(), e0 + 1); // the install bumps
    EXPECT_GT(pipe.lastCalibrationLatency(), 0);
    EXPECT_EQ(tel.counter("learning.calibrations_finished"), 1u);
    // One fit of both models, each running every sweep.
    EXPECT_EQ(tel.counter("learning.als_fits"), 1u);
    EXPECT_EQ(tel.counter("learning.als_sweeps"),
              2 * cf::AlsConfig{}.iterations);
    EXPECT_EQ(tel.timer("learning.als_fit").count, 1u);
}

TEST(LearningPipeline, SurfaceEpochTracksRecalibrationsAndRearrivals)
{
    // The epoch gates the allocator's last-solve cache: it must move
    // on every surface install, and only then (tracking and
    // departures change no surface; the cache keys on names).
    sim::Server server;
    Telemetry tel;
    LearningPipeline pipe(server, true, 7, &tel);
    pipe.seedCorpus(cf::profileCorpus(server.platform(), workloadLibrary()));

    std::uint64_t e0 = pipe.surfaceEpoch();
    int id = server.admit(workload("stream"));
    pipe.track(id, workload("stream"));
    EXPECT_EQ(pipe.surfaceEpoch(), e0);
    EXPECT_TRUE(pipe.startCalibration(id)); // first install: bump
    EXPECT_EQ(pipe.surfaceEpoch(), e0 + 1);
    EXPECT_TRUE(pipe.startCalibration(id)); // recalibration: bump
    EXPECT_EQ(pipe.surfaceEpoch(), e0 + 2);

    // A same-name re-arrival cannot reach the curve set before its
    // own surface lands, and that install is what bumps.
    pipe.forget(id);
    EXPECT_EQ(pipe.surfaceEpoch(), e0 + 2);
    int id2 = server.admit(workload("stream"));
    pipe.track(id2, workload("stream"));
    EXPECT_EQ(pipe.surfaceEpoch(), e0 + 2);
    EXPECT_TRUE(pipe.startCalibration(id2));
    EXPECT_EQ(pipe.surfaceEpoch(), e0 + 3);
}

// --- PlanSelector -----------------------------------------------------------

class PlanSelectorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto &plat = defaultPlatform();
        settings = plat.knobSpace();
        cf::Profiler prof(plat, 0.0);
        Rng rng(1);
        std::vector<cf::UtilitySurface> surfaces;
        for (const char *name : {"stream", "kmeans"}) {
            perf::PerfModel model(plat, perf::workload(name));
            std::vector<double> p, h;
            prof.measureAll(model, p, h, rng);
            surfaces.push_back(
                cf::UtilityEstimator::surfaceFromRows(p, h));
            curves.push_back(std::make_unique<UtilityCurve>(
                name, settings, surfaces.back(), KnobFreedom::All));
        }
        ptrs = {curves[0].get(), curves[1].get()};
        avg = std::make_unique<UtilityCurve>(
            "server-average", settings, averageSurfaces(surfaces),
            KnobFreedom::All);
    }

    /** Dynamic budget the manager would derive for a given cap. */
    Watts
    budgetFor(Watts cap) const
    {
        const auto &plat = defaultPlatform();
        Watts b = std::max(cap - plat.idlePower - plat.cmPower, 0.0);
        return b * 0.98;
    }

    PlanInputs
    inputsFor(PolicyKind policy, Watts cap)
    {
        PlanInputs in;
        in.policy = policy;
        in.cap = cap;
        in.budget = budgetFor(cap);
        in.appCount = 2;
        if (policyAppAware(policy))
            in.curves = ptrs;
        if (policy == PolicyKind::ServerResAware)
            in.serverAverage = avg.get();
        return in;
    }

    std::vector<power::KnobSetting> settings;
    std::vector<std::unique_ptr<UtilityCurve>> curves;
    std::vector<const UtilityCurve *> ptrs;
    std::unique_ptr<UtilityCurve> avg;
    Telemetry tel;
    PlanSelector selector{defaultPlatform(), AllocatorConfig{}, &tel};
};

TEST_F(PlanSelectorTest, NoAppsMeansIdle)
{
    PlanInputs in;
    in.appCount = 0;
    EXPECT_EQ(selector.select(in).choice, PlanChoice::Idle);
    EXPECT_EQ(tel.counter("selector.idle"), 1u);
}

TEST_F(PlanSelectorTest, NoCapMeansUncappedRun)
{
    PlanInputs in = inputsFor(PolicyKind::AppResAware, 0.0);
    EXPECT_EQ(selector.select(in).choice, PlanChoice::UncappedRun);
}

TEST_F(PlanSelectorTest, UtilUnawareSplitsFairly)
{
    PlanDecision d =
        selector.select(inputsFor(PolicyKind::UtilUnaware, 100.0));
    EXPECT_EQ(d.choice, PlanChoice::FairRaplSpace);
    EXPECT_NEAR(d.perAppBudget, budgetFor(100.0) / 2.0, 1e-9);
    EXPECT_FALSE(d.driftDetection);

    // Share below the floor but budget above it: duty cycling with
    // the blind baseline enforcement.
    Watts floor_power = minFeasibleAppPower(defaultPlatform());
    PlanInputs in = inputsFor(PolicyKind::UtilUnaware, 100.0);
    in.budget = floor_power * 1.5;
    d = selector.select(in);
    EXPECT_EQ(d.choice, PlanChoice::FairRaplTime);
    EXPECT_FALSE(d.demandFollowingRapl);

    // Budget below the floor: nobody can run.
    in.budget = floor_power * 0.5;
    EXPECT_EQ(selector.select(in).choice, PlanChoice::Idle);
}

TEST_F(PlanSelectorTest, ServerResAwareUsesTheAverageCurve)
{
    PlanDecision d =
        selector.select(inputsFor(PolicyKind::ServerResAware, 100.0));
    EXPECT_EQ(d.choice, PlanChoice::ServerAvgSpace);
    ASSERT_TRUE(d.avgPoint.has_value());
    EXPECT_LE(d.avgPoint->power, budgetFor(100.0) / 2.0 + 1e-6);

    // A tight cap forces the temporal fallback on the same curve.
    PlanInputs in = inputsFor(PolicyKind::ServerResAware, 100.0);
    in.budget = avg->minPower() * 1.2;
    d = selector.select(in);
    EXPECT_EQ(d.choice, PlanChoice::ServerAvgTime);
}

TEST_F(PlanSelectorTest, UtilityAwareSelectsSpatialAtAmpleBudget)
{
    PlanDecision d =
        selector.select(inputsFor(PolicyKind::AppResAware, 100.0));
    EXPECT_EQ(d.choice, PlanChoice::SpatialUtility);
    EXPECT_TRUE(d.driftDetection); // E4 active only in Space mode
    EXPECT_TRUE(d.alloc.allScheduled());
    EXPECT_GT(d.objective, 0.0);
    EXPECT_EQ(tel.counter("selector.spatial-utility"), 1u);
}

TEST_F(PlanSelectorTest, UtilityAwareFallsBackToTemporalWhenTight)
{
    // A budget below the sum of curve minima cannot host everyone
    // concurrently; the selector must duty-cycle instead.
    PlanInputs in = inputsFor(PolicyKind::AppResAware, 100.0);
    in.budget =
        (curves[0]->minPower() + curves[1]->minPower()) * 0.75;
    PlanDecision d = selector.select(in);
    EXPECT_EQ(d.choice, PlanChoice::TemporalUtility);
    EXPECT_FALSE(d.driftDetection);
    EXPECT_FALSE(d.temporal.slots.empty());
}

TEST_F(PlanSelectorTest, CalibratingAppsReserveTheirFloor)
{
    PlanInputs in = inputsFor(PolicyKind::AppResAware, 100.0);
    in.calibratingCount = 1;
    PlanDecision d = selector.select(in);
    Watts floor_power = minFeasibleAppPower(defaultPlatform());
    EXPECT_NEAR(d.usableBudget, budgetFor(100.0) - floor_power, 1e-9);

    // Nobody calibrated yet: hold the floor, decide nothing.
    in.curves.clear();
    in.calibratingCount = 2;
    EXPECT_EQ(selector.select(in).choice,
              PlanChoice::CalibrationOnly);
}

TEST_F(PlanSelectorTest, EsdPolicyConsolidatesUnderTightCaps)
{
    esd::BatteryConfig esd = esd::leadAcidUps();
    PlanInputs in = inputsFor(PolicyKind::AppResEsdAware, 80.0);
    in.hasEsd = true;
    in.esd = &esd;
    PlanDecision d = selector.select(in);
    EXPECT_EQ(d.choice, PlanChoice::EsdAssisted);
    EXPECT_TRUE(d.esd.viable);
    EXPECT_TRUE(d.esd.onAllocation.allScheduled());

    // The same inputs without the battery duty-cycle instead.
    in.hasEsd = false;
    in.esd = nullptr;
    d = selector.select(in);
    EXPECT_NE(d.choice, PlanChoice::EsdAssisted);
}

// --- NodePool ---------------------------------------------------------------

TEST(NodePool, BuildsManagedNodesAndAggregatesTelemetry)
{
    cluster::NodePoolConfig pc;
    pc.servers = 2;
    pc.seedBase = 100;
    pc.serverCap = 100.0;
    cluster::NodePool pool(pc);
    ASSERT_EQ(pool.size(), 2u);

    for (std::size_t s = 0; s < pool.size(); ++s) {
        ASSERT_NE(pool[s].manager, nullptr);
        EXPECT_EQ(pool[s].manager->config().seed, 100 + s);
        pool[s].manager->addApp(workload("stream"));
        pool[s].manager->run(toTicks(3.0));
    }

    EXPECT_GT(pool.totalEnergy(), 0.0);
    Telemetry cluster_tel = pool.aggregateTelemetry();
    // Both nodes reallocated at least once each.
    EXPECT_GE(cluster_tel.counter("manager.reallocations"), 2u);
    EXPECT_EQ(cluster_tel.counter("manager.reallocations"),
              pool[0].manager->reallocationCount() +
                  pool[1].manager->reallocationCount());
    // The rollup folds aggregates only: each decision record stays on
    // the bus of the node that made it.
    EXPECT_TRUE(cluster_tel.decisions().empty());
    for (std::size_t s = 0; s < pool.size(); ++s) {
        EXPECT_EQ(pool[s].manager->telemetry().decisions().size(),
                  pool[s].manager->reallocationCount());
    }
}

TEST(NodePool, ManagedNodesShareOneCorpus)
{
    // The pool profiles the corpus once and hands every node the same
    // read-only object; profiling per node would give each its own.
    cluster::NodePoolConfig pc;
    pc.servers = 3;
    cluster::NodePool pool(pc);
    const cf::UtilityEstimator *corpus =
        pool[0].manager->learning().corpus().get();
    ASSERT_NE(corpus, nullptr);
    EXPECT_EQ(corpus->corpusSize(), workloadLibrary().size());
    for (std::size_t s = 1; s < pool.size(); ++s)
        EXPECT_EQ(pool[s].manager->learning().corpus().get(), corpus);
}

TEST(NodePool, NodesShareOneKnobSpaceAndServerAverageCurve)
{
    // A node holds only what it owns.  Every node's profiler and the
    // shared corpus read one knob-space vector, and the pool builds
    // the server-average curve once for all of its nodes.
    cluster::NodePoolConfig pc;
    pc.servers = 4;
    pc.serverCap = 100.0;
    pc.manager.policy = PolicyKind::ServerResAware;
    cluster::NodePool pool(pc);
    const LearningPipeline &first = pool[0].manager->learning();
    const std::vector<power::KnobSetting> *space = &first.settings();
    EXPECT_EQ(space, first.corpus()->knobSpace().get());
    EXPECT_EQ(space->size(), defaultPlatform().knobSpace().size());
    const UtilityCurve *avg = first.serverAverageCurve();
    ASSERT_NE(avg, nullptr);
    for (std::size_t s = 1; s < pool.size(); ++s) {
        const LearningPipeline &lp = pool[s].manager->learning();
        EXPECT_EQ(&lp.settings(), space);
        EXPECT_EQ(lp.serverAverageCurve(), avg);
    }

    // Server+Res-Aware reads the shared curve from parallel node
    // steps, and every node decides as a lone manager seeded with its
    // own copy of the corpus does.
    for (auto &node : pool)
        node.manager->addApp(workload("stream"));
    pool.runAll(toTicks(2.0));
    sim::Server lone_server;
    lone_server.setCap(100.0);
    ManagerConfig lone_cfg = pc.manager;
    lone_cfg.seed = pc.seedBase;
    ServerManager lone(lone_server, lone_cfg);
    lone.seedCorpus(workloadLibrary());
    EXPECT_NE(lone.learning().serverAverageCurve(), avg);
    lone.addApp(workload("stream"));
    lone.run(toTicks(2.0));
    EXPECT_GT(lone.records().front().beats, 0.0);
    for (auto &node : pool) {
        const Telemetry &tel = node.manager->telemetry();
        EXPECT_GT(tel.counter("selector.server-avg-space") +
                      tel.counter("selector.server-avg-time"),
                  0u);
        EXPECT_EQ(node.manager->records().front().beats,
                  lone.records().front().beats);
    }
}

TEST(NodePool, RawPoolHasNoManagers)
{
    cluster::NodePoolConfig pc;
    pc.servers = 2;
    pc.managed = false;
    cluster::NodePool pool(pc);
    EXPECT_EQ(pool[0].manager, nullptr);
    EXPECT_EQ(pool[1].manager, nullptr);
    EXPECT_EQ(pool.aggregateTelemetry().counters().size(), 0u);
}

// --- End-to-end: the E1-E4 script on the bus --------------------------------

TEST(ControlPlane, ScriptedEventsLandOnTheTelemetryBus)
{
    sim::Server server;
    server.setCap(100.0);
    ManagerConfig cfg;
    cfg.policy = PolicyKind::AppResAware;
    cfg.oracleUtilities = true;
    ServerManager manager(server, cfg);
    manager.seedCorpus(workloadLibrary());

    // E2: two arrivals.  The first app changes phase mid-run so its
    // draw drifts from its allocation (E4); the second is finite so
    // it departs (E3).
    int drifting = manager.addApp(workload("kmeans"));
    server.app(drifting).setPhases(
        {{0.25, 1.0, 1.0}, {1.0, 0.3, 25.0}});
    perf::AppProfile finite = workload("x264");
    finite.totalHeartbeats = 3600.0;
    manager.addApp(finite);

    // Drift detection runs in Space mode only, so the phase change
    // and the departure both happen under the 100 W cap.
    manager.run(toTicks(60.0));
    // E1: the datacenter tightens the cap mid-run.
    manager.setCap(80.0);
    manager.run(toTicks(30.0));

    const Telemetry &tel = manager.telemetry();

    // Every event kind was observed and counted.
    EXPECT_EQ(tel.counter("event.E1-cap-change"), 1u);
    EXPECT_EQ(tel.counter("event.E2-arrival"), 2u);
    EXPECT_GE(tel.counter("event.E3-departure"), 1u);
    EXPECT_GE(tel.counter("event.E4-drift"), 1u);

    // Each reallocation produced exactly one decision record.
    EXPECT_EQ(tel.counter("manager.reallocations"),
              manager.reallocationCount());
    EXPECT_EQ(tel.timer("manager.reallocate").count,
              manager.reallocationCount());
    ASSERT_EQ(tel.decisions().size(), manager.reallocationCount());

    // The triggers recorded on the bus mirror the event log.
    bool saw_cap_trigger = false, saw_arrival = false,
         saw_departure = false, saw_drift = false;
    for (const DecisionRecord &d : tel.decisions()) {
        EXPECT_EQ(d.policy, PolicyKind::AppResAware);
        // Both names panic on a value outside their enum.
        EXPECT_FALSE(planChoiceName(d.plan).empty());
        EXPECT_FALSE(coordinationModeName(d.mode).empty());
        saw_cap_trigger |= d.trigger == DecisionTrigger::CapChange;
        saw_arrival |= d.trigger == DecisionTrigger::Arrival;
        saw_departure |= d.trigger == DecisionTrigger::Departure;
        saw_drift |= d.trigger == DecisionTrigger::Drift;
    }
    EXPECT_TRUE(saw_cap_trigger);
    EXPECT_TRUE(saw_arrival);
    EXPECT_TRUE(saw_departure);
    EXPECT_TRUE(saw_drift);

    // The selector's plan tally matches the decision count, and the
    // coordinator published its mode transitions.
    std::uint64_t plans = 0;
    for (const auto &[name, value] : tel.counters()) {
        if (name.rfind("selector.", 0) == 0)
            plans += value;
    }
    EXPECT_EQ(plans, manager.reallocationCount());
    EXPECT_GE(tel.counter("coordinator.enter.space"), 1u);
}

TEST(ControlPlane, KilledAppIsReapedAndReplanned)
{
    sim::Server server;
    server.setCap(100.0);
    ManagerConfig cfg;
    cfg.policy = PolicyKind::AppResAware;
    cfg.oracleUtilities = true;
    ServerManager manager(server, cfg);
    int victim = manager.addApp(workload("kmeans"));
    int survivor = manager.addApp(workload("stream"));
    manager.run(toTicks(1.0));

    // Kill the first app out from under the manager: it departs
    // without ever calling finished().
    server.remove(victim);
    manager.run(toTicks(1.0));

    const Telemetry &tel = manager.telemetry();
    EXPECT_GE(tel.counter("event.E3-departure"), 1u);
    EXPECT_EQ(tel.counter("degraded.app_reaped"), 1u);
    bool saw_e3 = false;
    for (const AccountantEvent &ev : manager.eventLog())
        saw_e3 |=
            ev.kind == EventKind::Departure && ev.appId == victim;
    EXPECT_TRUE(saw_e3);

    // The victim's record closed with its pre-kill progress; the
    // survivor keeps running under a fresh plan.
    auto records = manager.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].done);
    EXPECT_GT(records[0].beats, 0.0);
    EXPECT_FALSE(records[1].done);
    EXPECT_TRUE(server.hasApp(survivor));
    EXPECT_TRUE(manager.anyAppRunning());
}

// --- Event log ring ----------------------------------------------------------

/** A delegate that replans nothing: the loop's own bookkeeping is all
 * the event-log test reads. */
struct IdleDelegate : ControlLoop::Delegate
{
    void onDeparture(const AccountantEvent &) override {}
    bool onDrift(int) override { return false; }
    bool onCalibrationsDue() override { return false; }
    void reallocate(DecisionTrigger) override {}
};

TEST(ControlLoop, EventLogKeepsTheNewestEvents)
{
    // More E1s than the ring holds, in one poll and then a few more:
    // the log stops at maxEvents and keeps the newest in order, while
    // the count keeps growing.
    sim::Server server;
    Coordinator coord;
    IdleDelegate delegate;
    ControlLoop loop(server, coord, delegate);
    auto capOf = [](std::size_t i) {
        return 10.0 + static_cast<double>(i);
    };
    auto expectNewest = [&](std::size_t count) {
        ASSERT_EQ(loop.eventCount(), count);
        ASSERT_EQ(loop.eventLog().size(), ControlLoop::maxEvents);
        std::size_t i = count - ControlLoop::maxEvents;
        for (const AccountantEvent &ev : loop.eventLog()) {
            ASSERT_EQ(ev.kind, EventKind::CapChange);
            ASSERT_EQ(ev.newCap, capOf(i++));
        }
    };

    const std::size_t first = ControlLoop::maxEvents + 100;
    for (std::size_t i = 0; i < first; ++i)
        loop.accountant().notifyCapChange(capOf(i));
    loop.maybePoll();
    expectNewest(first);
    EXPECT_EQ(server.cap(), capOf(first - 1));

    for (std::size_t i = first; i < first + 3; ++i)
        loop.accountant().notifyCapChange(capOf(i));
    while (server.now() < ControlLoop::controlPeriod)
        server.step();
    loop.maybePoll();
    expectNewest(first + 3);
}

// --- Clock domains in the dumps ---------------------------------------------

TEST(Telemetry, DumpsRepeatRunToRunOutsideTheWallSection)
{
    // One seeded CF scenario, run twice: it publishes timers of both
    // clock domains, and once the wall-clock section is cut off, the
    // two JSON dumps (and the two text dumps) are byte-identical.
    auto run = [](std::string &json, std::string &text) {
        sim::Server server;
        server.setCap(90.0);
        ManagerConfig cfg;
        cfg.policy = PolicyKind::AppResAware;
        ServerManager manager(server, cfg);
        manager.seedCorpus(workloadLibrary());
        manager.addApp(workload("kmeans"));
        manager.addApp(workload("stream"));
        manager.run(toTicks(5.0));
        std::ostringstream j;
        manager.telemetry().dumpJson(j);
        json = j.str();
        std::ostringstream t;
        manager.telemetry().dumpText(t);
        text = t.str();
    };
    std::string json_a, text_a, json_b, text_b;
    run(json_a, text_a);
    run(json_b, text_b);

    // The wall section comes last in both dumps; each domain's
    // timers print in their own section.
    const std::string wall_json = ",\"wall_timers\":{";
    const std::size_t at_a = json_a.find(wall_json);
    const std::size_t at_b = json_b.find(wall_json);
    ASSERT_NE(at_a, std::string::npos) << json_a;
    ASSERT_NE(at_b, std::string::npos) << json_b;
    EXPECT_LT(json_a.find("\"manager.reallocate\":{"), at_a);
    EXPECT_LT(json_a.find("\"learning.calibration\":{"), at_a);
    EXPECT_GT(json_a.find("\"learning.als_fit\":{"), at_a);
    EXPECT_NE(json_a.find("\"learning.als_fit\":{"), std::string::npos);
    EXPECT_EQ(json_a.substr(0, at_a), json_b.substr(0, at_b));

    const std::string wall_text = "wall timers:\n";
    const std::size_t cut_a = text_a.find(wall_text);
    const std::size_t cut_b = text_b.find(wall_text);
    ASSERT_NE(cut_a, std::string::npos) << text_a;
    ASSERT_NE(cut_b, std::string::npos) << text_b;
    EXPECT_GT(text_a.find("  learning.als_fit: count="), cut_a);
    EXPECT_EQ(text_a.substr(0, cut_a), text_b.substr(0, cut_b));
}

} // namespace
} // namespace psm::core
