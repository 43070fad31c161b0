/**
 * @file
 * Tests for the fault-injection layer (util::FaultInjector) and the
 * graceful-degradation paths it drives: meter fallback + staleness
 * watchdog in the ControlLoop, ESD loss/restore and app kills in the
 * ServerManager, actuation faults demoting to fair RAPL, and node
 * crash isolation in the NodePool, a cluster replay under ambient
 * faults that must degrade gracefully — plus the determinism
 * guarantee that one seed replays the identical fault schedule at any
 * thread width.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "cluster/node_pool.hh"
#include "cluster/power_trace.hh"
#include "core/control_loop.hh"
#include "core/coordinator.hh"
#include "core/manager.hh"
#include "core/telemetry.hh"
#include "esd/battery.hh"
#include "perf/workloads.hh"
#include "power/power_meter.hh"
#include "sim/server.hh"
#include "util/fault.hh"
#include "util/thread_pool.hh"

namespace psm
{
namespace
{

using perf::workload;
using util::FaultInjector;
using util::FaultKind;
using util::FaultPlanConfig;
using util::FaultWindow;

// --- FaultInjector ----------------------------------------------------------

TEST(Faults, DisabledInjectorNeverFires)
{
    FaultInjector off;
    EXPECT_FALSE(off.enabled());
    FaultInjector zero{FaultPlanConfig{}};
    EXPECT_FALSE(zero.enabled());
    for (Tick t = 0; t < 1000; t += 7) {
        EXPECT_FALSE(off.inject(FaultKind::MeterNan, t));
        EXPECT_FALSE(zero.inject(FaultKind::NodeCrash, t, t, 0));
    }
}

TEST(Faults, RollsAreDeterministicAndRateBounded)
{
    FaultPlanConfig cfg;
    cfg.meterNanRate = 0.3;
    cfg.seed = 42;
    FaultInjector one(cfg);
    FaultInjector two(cfg);

    int fires = 0;
    const int rolls = 10000;
    for (Tick t = 0; t < static_cast<Tick>(rolls); ++t) {
        bool a = one.inject(FaultKind::MeterNan, t);
        // Same (seed, stream, kind, tick, salt) -> same answer.
        EXPECT_EQ(a, two.inject(FaultKind::MeterNan, t));
        fires += a ? 1 : 0;
    }
    // Uniform variate against 0.3: the hit rate lands near it.
    EXPECT_GT(fires, rolls / 5);
    EXPECT_LT(fires, rolls * 2 / 5);

    // Certainty and impossibility are exact.
    cfg.meterNanRate = 1.0;
    FaultInjector always(cfg);
    for (Tick t = 0; t < 100; ++t)
        EXPECT_TRUE(always.inject(FaultKind::MeterNan, t));
    // A different kind with rate 0 never fires on the same injector.
    EXPECT_FALSE(always.inject(FaultKind::AppKill, 5));
}

TEST(Faults, SeedsAndStreamsDecorrelateRolls)
{
    FaultPlanConfig cfg;
    cfg.meterStaleRate = 0.5;
    cfg.seed = 1;
    FaultInjector base(cfg, 0);
    FaultInjector other_stream(cfg, 1);
    cfg.seed = 2;
    FaultInjector other_seed(cfg, 0);

    bool stream_differs = false, seed_differs = false;
    for (Tick t = 0; t < 256; ++t) {
        bool b = base.inject(FaultKind::MeterStale, t);
        stream_differs |=
            b != other_stream.inject(FaultKind::MeterStale, t);
        seed_differs |=
            b != other_seed.inject(FaultKind::MeterStale, t);
    }
    EXPECT_TRUE(stream_differs);
    EXPECT_TRUE(seed_differs);
}

TEST(Faults, ScheduledWindowsFireExactlyInRange)
{
    FaultPlanConfig cfg; // no ambient rates at all
    cfg.schedule.push_back(FaultWindow{FaultKind::AppKill, 100, 200, 7});
    FaultInjector inj(cfg);
    EXPECT_TRUE(inj.enabled());

    EXPECT_FALSE(inj.inject(FaultKind::AppKill, 99, 0, 7));
    EXPECT_TRUE(inj.inject(FaultKind::AppKill, 100, 0, 7));
    EXPECT_TRUE(inj.inject(FaultKind::AppKill, 199, 0, 7));
    EXPECT_FALSE(inj.inject(FaultKind::AppKill, 200, 0, 7)); // end open
    // Wrong target or kind: the window does not apply.
    EXPECT_FALSE(inj.inject(FaultKind::AppKill, 150, 0, 8));
    EXPECT_FALSE(inj.inject(FaultKind::MeterNan, 150));
    EXPECT_TRUE(inj.scheduled(FaultKind::AppKill, 150, 7));
    EXPECT_FALSE(inj.scheduled(FaultKind::AppKill, 250, 7));

    // target = -1 in the window matches every roll target.
    FaultPlanConfig any;
    any.schedule.push_back(FaultWindow{FaultKind::NodeCrash, 10, 20, -1});
    FaultInjector any_inj(any);
    EXPECT_TRUE(any_inj.inject(FaultKind::NodeCrash, 15, 0, 3));
    EXPECT_TRUE(any_inj.inject(FaultKind::NodeCrash, 15, 0, -1));
}

TEST(Faults, AmbientRateScalesKindsSensibly)
{
    FaultPlanConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    cfg.setAmbientRate(0.02);
    EXPECT_TRUE(cfg.enabled());
    // Frequent, benign faults at the ambient rate; destructive ones
    // scaled down; per-interval node crashes scaled up.
    EXPECT_DOUBLE_EQ(cfg.rate(FaultKind::MeterStale), 0.02);
    EXPECT_LT(cfg.rate(FaultKind::AppKill),
              cfg.rate(FaultKind::MeterStale));
    EXPECT_GT(cfg.rate(FaultKind::NodeCrash),
              cfg.rate(FaultKind::MeterStale));
    EXPECT_GT(cfg.rate(FaultKind::EsdLoss), 0.0);
    EXPECT_GT(cfg.rate(FaultKind::EsdFade), 0.0);
    EXPECT_GT(cfg.rate(FaultKind::ActuationStuck), 0.0);
    EXPECT_GT(cfg.rate(FaultKind::MeterNan), 0.0);
}

// --- PowerMeter hardening ---------------------------------------------------

TEST(Faults, MeterSanitizesGarbageSamples)
{
    power::PowerMeter meter;
    meter.push(100, 50.0, 100.0);
    meter.push(100, std::nan(""), 100.0);
    meter.push(100, -5.0, 100.0);
    EXPECT_EQ(meter.droppedSamples(), 2u);
    // Garbage is replaced by the last accepted reading, keeping the
    // aggregates finite and the averages sane.
    EXPECT_TRUE(std::isfinite(meter.totalEnergy()));
    EXPECT_NEAR(meter.totalEnergy(), 50.0 * toSeconds(300), 1e-9);
    EXPECT_NEAR(meter.averagePower(), 50.0, 1e-9);
}

// --- ControlLoop: meter fallback + watchdog ---------------------------------

/** Minimal delegate: records reallocation triggers, nothing else. */
struct RecordingDelegate : core::ControlLoop::Delegate
{
    std::vector<core::DecisionTrigger> triggers;
    void onDeparture(const core::AccountantEvent &) override {}
    bool onDrift(int) override { return false; }
    bool onCalibrationsDue() override { return false; }
    void reallocate(core::DecisionTrigger trigger) override
    {
        triggers.push_back(trigger);
    }
};

TEST(Faults, MeterFaultFallsBackThenWatchdogThenRecovers)
{
    sim::Server server;
    server.setCap(60.0);
    server.admit(workload("kmeans"));
    core::Coordinator coord;
    core::Telemetry tel;
    RecordingDelegate delegate;
    core::ControlLoop loop(server, coord, delegate, &tel);

    FaultPlanConfig fc;
    fc.seed = 5;
    // The meter is unreadable for sim-time [0.5 s, 2.0 s), longer
    // than ControlLoop::meterStaleLimit (1 s).
    fc.schedule.push_back(FaultWindow{FaultKind::MeterNan,
                                      toTicks(0.5), toTicks(2.0), -1});
    FaultInjector inj(fc);
    loop.setFaultInjector(&inj);

    auto runFor = [&](double secs) {
        Tick end = server.now() + toTicks(secs);
        while (server.now() < end) {
            loop.maybePoll();
            server.step();
        }
    };

    runFor(0.45); // healthy
    EXPECT_EQ(tel.counter("fault.meter_nan"), 0u);
    EXPECT_EQ(loop.meterStaleSince(), maxTick);

    runFor(1.3); // ~1.75 s: inside the outage, past the watchdog
    EXPECT_GT(tel.counter("fault.meter_nan"), 0u);
    EXPECT_GT(tel.counter("degraded.meter_fallback"), 0u);
    EXPECT_NE(loop.meterStaleSince(), maxTick);
    EXPECT_GT(tel.counter("degraded.meter_watchdog"), 0u);

    runFor(0.8); // past 2.0 s: readings are back
    EXPECT_GE(tel.counter("degraded.meter_recovered"), 1u);
    EXPECT_EQ(loop.meterStaleSince(), maxTick);
}

// --- ServerManager: ESD loss / app kill / stuck actuation -------------------

TEST(Faults, EsdLossDemotesToTimeAndRestores)
{
    sim::Server server;
    server.attachEsd(esd::leadAcidUps());
    server.setCap(80.0);
    core::ManagerConfig cfg;
    cfg.policy = core::PolicyKind::AppResEsdAware;
    cfg.oracleUtilities = true;
    cfg.faults.seed = 11;
    cfg.faults.esdOutage = toTicks(2.0);
    cfg.faults.schedule.push_back(FaultWindow{
        FaultKind::EsdLoss, toTicks(1.0), toTicks(1.1), -1});
    core::ServerManager manager(server, cfg);
    manager.addApp(workload("stream"));
    manager.addApp(workload("kmeans"));

    manager.run(toTicks(1.5));
    const core::Telemetry &tel = manager.telemetry();
    EXPECT_GE(tel.counter("fault.esd_loss"), 1u);
    EXPECT_GE(tel.counter("degraded.esd_unavailable"), 1u);
    // The battery is still installed but the management plane cannot
    // see it, and the replan stopped relying on it.
    EXPECT_TRUE(server.esdInstalled());
    EXPECT_FALSE(server.hasEsd());
    EXPECT_NE(manager.mode(), core::CoordinationMode::EsdAssisted);

    manager.run(toTicks(2.0)); // past the 2 s outage
    EXPECT_GE(tel.counter("degraded.esd_restored"), 1u);
    EXPECT_TRUE(server.hasEsd());
}

TEST(Faults, KilledAppsAreReapedAndAccounted)
{
    sim::Server server;
    server.setCap(100.0);
    core::ManagerConfig cfg;
    cfg.policy = core::PolicyKind::AppResAware;
    cfg.oracleUtilities = true;
    cfg.faults.seed = 3;
    // Both apps die in one control period without calling finished().
    cfg.faults.schedule.push_back(FaultWindow{
        FaultKind::AppKill, toTicks(0.5), toTicks(0.55), -1});
    core::ServerManager manager(server, cfg);
    int a = manager.addApp(workload("stream"));
    int b = manager.addApp(workload("kmeans"));

    manager.run(toTicks(2.0));

    EXPECT_FALSE(server.hasApp(a));
    EXPECT_FALSE(server.hasApp(b));
    EXPECT_FALSE(manager.anyAppRunning());
    const core::Telemetry &tel = manager.telemetry();
    EXPECT_EQ(tel.counter("fault.app_kill"), 2u);
    // The Accountant noticed the vanished apps and synthesized their
    // E3s; the manager reaped the already-gone entries.
    EXPECT_EQ(tel.counter("event.E3-departure"), 2u);
    EXPECT_EQ(tel.counter("degraded.app_reaped"), 2u);
    for (const core::AppRecord &rec : manager.records()) {
        EXPECT_TRUE(rec.done);
        EXPECT_GT(rec.beats, 0.0); // pre-kill progress was harvested
        EXPECT_NE(rec.finishedAt, maxTick);
    }
}

TEST(Faults, StuckActuationDemotesToFairRapl)
{
    sim::Server server;
    server.setCap(100.0);
    core::ManagerConfig cfg;
    cfg.policy = core::PolicyKind::AppResAware;
    cfg.oracleUtilities = true;
    cfg.faults.seed = 9;
    cfg.faults.actuationFailRate = 1.0; // every reallocation faults
    core::ServerManager manager(server, cfg);
    manager.addApp(workload("stream"));
    manager.addApp(workload("kmeans"));
    manager.run(toTicks(1.0));

    const core::Telemetry &tel = manager.telemetry();
    EXPECT_GT(tel.counter("fault.actuation_stuck"), 0u);
    EXPECT_GT(tel.counter("degraded.knobs_to_rapl"), 0u);
    // The fallback plan is the hardware-enforced fair split, not a
    // knob-actuated utility plan.
    bool any_fair_rapl = false;
    for (const core::DecisionRecord &d : tel.decisions())
        any_fair_rapl |= d.plan == core::PlanChoice::FairRaplSpace ||
                         d.plan == core::PlanChoice::FairRaplTime;
    EXPECT_TRUE(any_fair_rapl);
}

// --- NodePool: crash isolation ----------------------------------------------

// Each crash scenario also runs with every manager rolling ambient
// faults: pool-level isolation must not depend on a clean node.
constexpr double kManagerAmbientRates[] = {0.0, 0.02};

TEST(Faults, NodeCrashIsolatesThenRestarts)
{
    for (double ambient : kManagerAmbientRates) {
        SCOPED_TRACE("manager ambient rate " + std::to_string(ambient));
        cluster::NodePoolConfig pc;
        pc.servers = 3;
        pc.seedBase = 50;
        pc.serverCap = 100.0;
        pc.manager.oracleUtilities = true;
        if (ambient > 0.0)
            pc.manager.faults.setAmbientRate(ambient);
        pc.faults.seed = 1;
        // NodeCrash windows are keyed on the node's 1-based runAll()
        // attempt counter: node 1 crashes on its first attempt only.
        pc.faults.schedule.push_back(
            FaultWindow{FaultKind::NodeCrash, 1, 2, 1});
        cluster::NodePool pool(pc);
        for (std::size_t s = 0; s < pool.size(); ++s)
            pool[s].manager->addApp(workload("stream"));

        pool.runAll(toTicks(1.0));
        core::Telemetry tel = pool.aggregateTelemetry();
        EXPECT_EQ(tel.counter("fault.node_crash"), 1u);
        EXPECT_EQ(tel.counter("degraded.node_isolated"), 1u);
        // The crashed node sat the interval out; the others advanced.
        EXPECT_EQ(pool[1].server->now(), 0u);
        EXPECT_EQ(pool[0].server->now(), toTicks(1.0));
        EXPECT_EQ(pool[2].server->now(), toTicks(1.0));
        // Each node's step telemetry lands on its own bus.
        const core::Telemetry &crashed = pool[1].manager->telemetry();
        EXPECT_EQ(crashed.counter("fault.node_crash"), 1u);
        EXPECT_EQ(crashed.counter("degraded.node_isolated"), 1u);
        EXPECT_EQ(crashed.timer("cluster.node_step").count, 0u);
        for (std::size_t s : {0u, 2u}) {
            const core::Telemetry &ok = pool[s].manager->telemetry();
            EXPECT_EQ(ok.timer("cluster.node_step").count, 1u) << s;
            EXPECT_EQ(ok.counter("fault.node_crash"), 0u) << s;
            EXPECT_EQ(ok.counter("fault.node_exception"), 0u) << s;
            EXPECT_EQ(ok.counter("degraded.node_isolated"), 0u) << s;
        }

        pool.runAll(toTicks(1.0)); // attempt 2: healthy again
        tel = pool.aggregateTelemetry();
        EXPECT_EQ(tel.counter("fault.node_crash"), 1u);
        EXPECT_EQ(tel.counter("degraded.node_restarted"), 1u);
        EXPECT_EQ(pool[1].server->now(), toTicks(1.0)); // one behind
        EXPECT_EQ(pool[0].server->now(), toTicks(2.0));
    }
}

TEST(Faults, ConsecutiveCrashesBackOffExponentially)
{
    for (double ambient : kManagerAmbientRates) {
        SCOPED_TRACE("manager ambient rate " + std::to_string(ambient));
        cluster::NodePoolConfig pc;
        pc.servers = 2;
        pc.seedBase = 60;
        pc.serverCap = 100.0;
        pc.manager.oracleUtilities = true;
        if (ambient > 0.0)
            pc.manager.faults.setAmbientRate(ambient);
        pc.faults.seed = 2;
        // Node 0 crashes on attempts 1 and 2 (streak of two).
        pc.faults.schedule.push_back(
            FaultWindow{FaultKind::NodeCrash, 1, 3, 0});
        cluster::NodePool pool(pc);
        for (std::size_t s = 0; s < pool.size(); ++s)
            pool[s].manager->addApp(workload("kmeans"));

        // Attempt 1: crash (streak 1, retry immediately).  Attempt 2:
        // crash again (streak 2, cooldown 1).  Attempt 3: skipped.
        // Attempt 4: healthy run.
        for (int i = 0; i < 4; ++i)
            pool.runAll(toTicks(0.5));
        core::Telemetry tel = pool.aggregateTelemetry();
        EXPECT_EQ(tel.counter("fault.node_crash"), 2u);
        EXPECT_EQ(tel.counter("degraded.node_isolated"), 2u);
        EXPECT_EQ(tel.counter("degraded.node_skipped"), 1u);
        EXPECT_EQ(tel.counter("degraded.node_restarted"), 1u);
        EXPECT_EQ(pool[0].server->now(), toTicks(0.5)); // one good run
        EXPECT_EQ(pool[1].server->now(), toTicks(2.0)); // all four
    }
}

TEST(Faults, CrashBackoffShiftClampedForHugeStreaks)
{
    for (double ambient : kManagerAmbientRates) {
        SCOPED_TRACE("manager ambient rate " + std::to_string(ambient));
        cluster::NodePoolConfig pc;
        pc.servers = 1;
        pc.seedBase = 61;
        pc.serverCap = 100.0;
        pc.manager.oracleUtilities = true;
        if (ambient > 0.0)
            pc.manager.faults.setAmbientRate(ambient);
        pc.faults.seed = 3;
        // Node 0 crashes on every attempt, forever.
        pc.faults.schedule.push_back(
            FaultWindow{FaultKind::NodeCrash, 1, maxTick, 0});
        cluster::NodePool pool(pc);
        pool[0].manager->addApp(workload("stream"));

        // A node that has been flapping for ages: the naive
        // `1 << (streak - 2)` backoff is UB once the streak passes the
        // width of int.  The shift amount must be clamped so the
        // cooldown stays at the 8-interval cap.
        pool[0].crashStreak = 1000;
        pool.runAll(toTicks(0.5));
        EXPECT_EQ(pool.aggregateTelemetry().counter("fault.node_crash"),
                  1u);
        EXPECT_EQ(pool[0].crashStreak, 1001);
        EXPECT_EQ(pool[0].cooldown, 8);

        // The streak itself saturates instead of eventually
        // overflowing.
        pool[0].crashStreak = 1 << 20;
        pool[0].cooldown = 0;
        pool.runAll(toTicks(0.5));
        EXPECT_EQ(pool[0].crashStreak, 1 << 20);
        EXPECT_EQ(pool[0].cooldown, 8);
    }
}

TEST(Faults, AmbientConfiguredManagerRunsToCompletion)
{
    // A manager rolling ambient faults of every kind must reach the
    // horizon without crashing, and every injected fault must surface
    // a degradation action.
    sim::Server server;
    server.attachEsd(esd::leadAcidUps());
    server.setCap(90.0);
    core::ManagerConfig cfg;
    cfg.policy = core::PolicyKind::AppResEsdAware;
    cfg.oracleUtilities = true;
    cfg.faults.setAmbientRate(0.02);
    core::ServerManager manager(server, cfg);
    // faults.seed == 0 derives the roll seed from the manager seed,
    // so the ambient schedule is reproducible too.
    EXPECT_EQ(manager.faultInjector().config().seed,
              manager.config().seed);
    // A plan comes only from the config: a default manager rolls none.
    sim::Server plain;
    EXPECT_FALSE(core::ServerManager(plain).faultInjector().enabled());
    manager.addApp(workload("stream"));
    manager.addApp(workload("kmeans"));
    manager.run(toTicks(10.0));
    EXPECT_EQ(server.now(), toTicks(10.0));

    std::uint64_t faults = 0, degraded = 0;
    for (const auto &[name, value] : manager.telemetry().counters()) {
        if (name.rfind("fault.", 0) == 0)
            faults += value;
        if (name.rfind("degraded.", 0) == 0)
            degraded += value;
    }
    EXPECT_GT(faults, 0u);
    EXPECT_GT(degraded, 0u);
}

// --- Cluster replay under ambient faults ------------------------------------

/** The fault.* / degraded.* counters and physics of one replay. */
struct FaultedReplay
{
    cluster::ClusterResult result;
    std::map<std::string, std::uint64_t> counters;
};

/**
 * bench_faults' scenario at 8 nodes: a Flat Equal(Ours) replay of a
 * load-following diurnal cap trace (4 intervals of 5 s) with @p rate
 * as the ambient rate of both the per-server and the pool fault plan.
 */
FaultedReplay
replayUnderAmbientFaults(double rate)
{
    cluster::ClusterConfig cfg;
    cfg.policy = cluster::ClusterPolicy::EqualOurs;
    cfg.servers = 8;
    if (rate > 0.0) {
        cfg.manager.faults.setAmbientRate(rate);
        cfg.faults.setAmbientRate(rate);
    }
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();
    cluster::TraceConfig tc;
    tc.points = 4;
    tc.interval = toTicks(5.0);
    cluster::PowerTrace caps = cluster::loadFollowingCaps(
        cluster::generateDiurnalDemand(tc), cm.uncappedDemandEstimate(),
        0.25);

    FaultedReplay run;
    run.result = cm.replay(caps);
    for (const auto &[name, value] : cm.aggregateTelemetry().counters()) {
        if (name.rfind("fault.", 0) == 0 ||
            name.rfind("degraded.", 0) == 0)
            run.counters.emplace(name, value);
    }
    return run;
}

TEST(Faults, AmbientClusterReplayDegradesGracefully)
{
    FaultedReplay clean = replayUnderAmbientFaults(0.0);
    FaultedReplay faulted = replayUnderAmbientFaults(0.02);
    EXPECT_TRUE(clean.counters.empty());

    // The faulted replay completed, and faults actually fired.
    EXPECT_EQ(faulted.result.duration, clean.result.duration);
    std::uint64_t faults = 0;
    for (const auto &[name, value] : faulted.counters)
        if (name.rfind("fault.", 0) == 0)
            faults += value;
    EXPECT_GT(faults, 0u);

    // Every fault kind that fired has its recovery action.
    const std::pair<const char *, const char *> recovery[] = {
        {"fault.meter_stale", "degraded.meter_fallback"},
        {"fault.meter_nan", "degraded.meter_fallback"},
        {"fault.esd_loss", "degraded.esd_unavailable"},
        {"fault.esd_fade", "degraded.esd_capacity"},
        {"fault.app_kill", "degraded.app_reaped"},
        {"fault.node_crash", "degraded.node_isolated"},
        {"fault.node_exception", "degraded.node_isolated"},
        {"fault.actuation_stuck", "degraded.knobs_to_rapl"},
    };
    for (const auto &[fault, action] : recovery) {
        if (faulted.counters.count(fault) > 0) {
            EXPECT_GT(faulted.counters.count(action), 0u)
                << fault << " fired without " << action;
        }
    }

    // Bounded loss: at least half the clean replay's utility.
    EXPECT_GE(faulted.result.aggregatePerf,
              0.5 * clean.result.aggregatePerf);
}

// --- Determinism across thread widths ---------------------------------------

TEST(Faults, PoolFaultScheduleIsThreadWidthInvariant)
{
    auto runPool = [](unsigned width) {
        util::ThreadPool::configureGlobal(width);
        cluster::NodePoolConfig pc;
        pc.servers = 4;
        pc.seedBase = 77;
        pc.serverCap = 90.0;
        pc.manager.oracleUtilities = true;
        pc.manager.faults.meterNanRate = 0.05;
        pc.manager.faults.appKillRate = 0.02;
        pc.faults.nodeCrashRate = 0.2;
        cluster::NodePool pool(pc);
        for (std::size_t s = 0; s < pool.size(); ++s) {
            pool[s].manager->addApp(workload("stream"));
            pool[s].manager->addApp(workload("kmeans"));
        }
        for (int i = 0; i < 6; ++i)
            pool.runAll(toTicks(0.5));
        std::map<std::string, std::uint64_t> out;
        core::Telemetry agg = pool.aggregateTelemetry();
        for (const auto &[name, value] : agg.counters()) {
            if (name.rfind("fault.", 0) == 0 ||
                name.rfind("degraded.", 0) == 0)
                out.emplace(name, value);
        }
        return std::make_pair(out, pool.totalEnergy());
    };

    auto serial = runPool(1);
    auto wide = runPool(4);

    // The cluster replay under ambient faults on both plans, too.
    util::ThreadPool::configureGlobal(1);
    FaultedReplay replay_serial = replayUnderAmbientFaults(0.02);
    util::ThreadPool::configureGlobal(4);
    FaultedReplay replay_wide = replayUnderAmbientFaults(0.02);
    util::ThreadPool::configureGlobal(0); // restore the default

    // Something actually faulted, and the schedule (every fault and
    // degradation counter) plus the physics replayed identically.
    EXPECT_FALSE(serial.first.empty());
    EXPECT_EQ(serial.first, wide.first);
    EXPECT_DOUBLE_EQ(serial.second, wide.second);
    EXPECT_FALSE(replay_serial.counters.empty());
    EXPECT_EQ(replay_serial.counters, replay_wide.counters);
    EXPECT_EQ(replay_serial.result.totalEnergy,
              replay_wide.result.totalEnergy);
}

} // namespace
} // namespace psm
