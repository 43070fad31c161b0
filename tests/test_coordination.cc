/**
 * @file
 * Tests for the Coordinator (R3a/R3b/R4 execution), the Accountant
 * (events E1-E4) and the policy descriptors.
 */

#include <gtest/gtest.h>

#include "core/accountant.hh"
#include "core/coordinator.hh"
#include "core/policy.hh"
#include "perf/workloads.hh"
#include "sim/server.hh"

namespace psm::core
{
namespace
{

using perf::workload;
using power::defaultPlatform;

// --- Policy descriptors -----------------------------------------------------

TEST(Policy, NamesMatchPaperLegends)
{
    EXPECT_EQ(policyName(PolicyKind::UtilUnaware), "Util-Unaware");
    EXPECT_EQ(policyName(PolicyKind::ServerResAware),
              "Server+Res-Aware");
    EXPECT_EQ(policyName(PolicyKind::AppAware), "App-Aware");
    EXPECT_EQ(policyName(PolicyKind::AppResAware), "App+Res-Aware");
    EXPECT_EQ(policyName(PolicyKind::AppResEsdAware),
              "App+Res+ESD-Aware");
}

TEST(Policy, AwarenessFlags)
{
    EXPECT_FALSE(policyAppAware(PolicyKind::UtilUnaware));
    EXPECT_FALSE(policyAppAware(PolicyKind::ServerResAware));
    EXPECT_TRUE(policyAppAware(PolicyKind::AppAware));
    EXPECT_TRUE(policyAppAware(PolicyKind::AppResAware));

    EXPECT_FALSE(policyResAware(PolicyKind::UtilUnaware));
    EXPECT_TRUE(policyResAware(PolicyKind::ServerResAware));
    EXPECT_FALSE(policyResAware(PolicyKind::AppAware));
    EXPECT_TRUE(policyResAware(PolicyKind::AppResAware));

    EXPECT_TRUE(policyUsesEsd(PolicyKind::AppResEsdAware));
    EXPECT_FALSE(policyUsesEsd(PolicyKind::AppResAware));
}

TEST(Policy, FeasibilityFloorIsPlausible)
{
    Watts floor = minFeasibleAppPower(defaultPlatform());
    EXPECT_GT(floor, 4.0);
    EXPECT_LT(floor, 12.0);
}

// --- Coordinator -------------------------------------------------------------

class CoordinatorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        a = server.admit(workload("stream"));
        b = server.admit(workload("kmeans"));
    }

    sim::Server server;
    Coordinator coord;
    int a = 0, b = 0;
};

TEST_F(CoordinatorTest, ModeNames)
{
    EXPECT_EQ(coordinationModeName(CoordinationMode::Idle), "idle");
    EXPECT_EQ(coordinationModeName(CoordinationMode::Space), "space");
    EXPECT_EQ(coordinationModeName(CoordinationMode::Time), "time");
    EXPECT_EQ(coordinationModeName(CoordinationMode::EsdAssisted),
              "esd");
}

TEST_F(CoordinatorTest, IdleSuspendsEverything)
{
    coord.idle(server);
    EXPECT_EQ(coord.mode(), CoordinationMode::Idle);
    EXPECT_FALSE(server.app(a).running());
    EXPECT_FALSE(server.app(b).running());
}

TEST_F(CoordinatorTest, SpaceRunsEveryoneWithTheirKnobs)
{
    Directive da{a, {1.4, 3, 8.0}, false, 0.0};
    Directive db{b, {1.8, 5, 4.0}, false, 0.0};
    coord.coordinateSpace(server, {da, db});
    EXPECT_EQ(coord.mode(), CoordinationMode::Space);
    EXPECT_TRUE(server.app(a).running());
    EXPECT_TRUE(server.app(b).running());
    EXPECT_NEAR(server.app(a).knobs().freq, 1.4, 1e-9);
    EXPECT_EQ(server.app(b).knobs().cores, 5);
}

TEST_F(CoordinatorTest, RaplDirectiveSetsPackageLimit)
{
    Directive d{a, defaultPlatform().maxSetting(), true, 7.5};
    coord.coordinateSpace(server, {d});
    EXPECT_TRUE(server.rapl()
                    .domain(power::RaplDomainId::Package0)
                    .limitEnabled() ||
                server.rapl()
                    .domain(power::RaplDomainId::Package1)
                    .limitEnabled());
}

TEST_F(CoordinatorTest, TimeRotatesSlotsByShares)
{
    CoordinatorConfig cfg;
    cfg.dutyPeriod = toTicks(1.0);
    Coordinator c(cfg);
    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};
    c.coordinateTime(server, {da, db}, {0.5, 0.5});
    EXPECT_EQ(c.mode(), CoordinationMode::Time);
    EXPECT_EQ(c.activeSlot(), 0);
    EXPECT_TRUE(server.app(a).running());
    EXPECT_FALSE(server.app(b).running());

    // Accumulate ON time per app over several duty periods.
    Tick a_on = 0, b_on = 0;
    for (int i = 0; i < 400; ++i) {
        c.advance(server);
        if (server.app(a).running())
            a_on += server.stepSize();
        if (server.app(b).running())
            b_on += server.stepSize();
        server.step();
    }
    // Exactly one app runs at any time, and shares are ~equal.
    EXPECT_NEAR(static_cast<double>(a_on) /
                    static_cast<double>(a_on + b_on),
                0.5, 0.1);
}

TEST_F(CoordinatorTest, TimeReplanSameAppsKeepsRotation)
{
    CoordinatorConfig cfg;
    cfg.dutyPeriod = toTicks(1.0);
    Coordinator c(cfg);
    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};
    c.coordinateTime(server, {da, db}, {0.5, 0.5});
    // Advance into the second slot.
    while (c.activeSlot() == 0) {
        c.advance(server);
        server.step();
    }
    EXPECT_EQ(c.activeSlot(), 1);
    // Re-plan with the same app set: rotation must not reset.
    c.coordinateTime(server, {da, db}, {0.5, 0.5});
    EXPECT_EQ(c.activeSlot(), 1);
}

TEST_F(CoordinatorTest, EsdAlternatesChargeAndOnPhases)
{
    esd::BatteryConfig esd = esd::leadAcidUps();
    server.attachEsd(esd);
    server.setCap(80.0);

    CoordinatorConfig cfg;
    cfg.dutyPeriod = toTicks(2.0);
    Coordinator c(cfg);
    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};
    c.coordinateEsd(server, {da, db}, 0.6);
    EXPECT_EQ(c.mode(), CoordinationMode::EsdAssisted);
    EXPECT_TRUE(c.inChargePhase());
    EXPECT_FALSE(server.app(a).running());

    bool saw_on = false, saw_charge = false;
    Tick both_running_and_charging = 0;
    for (int i = 0; i < 1000; ++i) {
        c.advance(server);
        server.step();
        if (c.inChargePhase()) {
            saw_charge = true;
            EXPECT_FALSE(server.app(a).running());
            EXPECT_FALSE(server.app(b).running());
        } else {
            saw_on = true;
            // Consolidated: both run together (Fig. 5b).
            if (server.app(a).running() && server.app(b).running() &&
                server.esdChargeEnabled()) {
                ++both_running_and_charging;
            }
        }
    }
    EXPECT_TRUE(saw_on);
    EXPECT_TRUE(saw_charge);
    EXPECT_EQ(both_running_and_charging, 0u);
    EXPECT_GT(server.battery()->totalDelivered(), 0.0);
}

TEST_F(CoordinatorTest, EmptyPlansDegradeToIdle)
{
    Telemetry tel;
    coord.setTelemetry(&tel);

    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    coord.coordinateSpace(server, {da});
    ASSERT_EQ(coord.mode(), CoordinationMode::Space);

    coord.coordinateSpace(server, {});
    EXPECT_EQ(coord.mode(), CoordinationMode::Idle);
    EXPECT_FALSE(server.app(a).running());

    coord.coordinateTime(server, {}, {});
    EXPECT_EQ(coord.mode(), CoordinationMode::Idle);
    EXPECT_EQ(coord.activeSlot(), -1);

    coord.coordinateEsd(server, {}, 0.5);
    EXPECT_EQ(coord.mode(), CoordinationMode::Idle);
    EXPECT_FALSE(coord.inChargePhase());

    EXPECT_EQ(tel.counter("coordinator.empty_plan"), 3u);
}

TEST_F(CoordinatorTest, TimeSharesAwayFromOneAreRenormalized)
{
    CoordinatorConfig cfg;
    cfg.dutyPeriod = toTicks(1.0);
    Coordinator c(cfg);
    Telemetry tel;
    c.setTelemetry(&tel);

    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};
    // 3:1 ratio, but summing to 2.0 instead of 1.0.
    c.coordinateTime(server, {da, db}, {1.5, 0.5});
    EXPECT_EQ(c.mode(), CoordinationMode::Time);
    EXPECT_EQ(tel.counter("coordinator.share_renormalized"), 1u);

    Tick a_on = 0, b_on = 0;
    for (int i = 0; i < 800; ++i) {
        c.advance(server);
        if (server.app(a).running())
            a_on += server.stepSize();
        if (server.app(b).running())
            b_on += server.stepSize();
        server.step();
    }
    // The ratio survives renormalization: a gets ~3/4 of the ON time.
    EXPECT_NEAR(static_cast<double>(a_on) /
                    static_cast<double>(a_on + b_on),
                0.75, 0.1);
}

TEST_F(CoordinatorTest, ModeTransitionsKeepSlotAndPhaseInvariants)
{
    esd::BatteryConfig esd = esd::leadAcidUps();
    server.attachEsd(esd);
    server.setCap(80.0);

    Telemetry tel;
    coord.setTelemetry(&tel);
    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};

    // Space: nobody duty-cycles, no ESD phase.
    coord.coordinateSpace(server, {da, db});
    EXPECT_EQ(coord.mode(), CoordinationMode::Space);
    EXPECT_EQ(coord.activeSlot(), -1);
    EXPECT_FALSE(coord.inChargePhase());

    // Time: a slot is active, still no ESD phase.
    coord.coordinateTime(server, {da, db}, {0.5, 0.5});
    EXPECT_EQ(coord.mode(), CoordinationMode::Time);
    EXPECT_EQ(coord.activeSlot(), 0);
    EXPECT_FALSE(coord.inChargePhase());

    // EsdAssisted: no alternate slot, charge phase begins.
    coord.coordinateEsd(server, {da, db}, 0.5);
    EXPECT_EQ(coord.mode(), CoordinationMode::EsdAssisted);
    EXPECT_EQ(coord.activeSlot(), -1);
    EXPECT_TRUE(coord.inChargePhase());

    // Idle: everything off.
    coord.idle(server);
    EXPECT_EQ(coord.mode(), CoordinationMode::Idle);
    EXPECT_EQ(coord.activeSlot(), -1);
    EXPECT_FALSE(coord.inChargePhase());
    EXPECT_FALSE(server.app(a).running());
    EXPECT_FALSE(server.app(b).running());

    // Every transition was published on the bus.
    EXPECT_EQ(tel.counter("coordinator.enter.space"), 1u);
    EXPECT_EQ(tel.counter("coordinator.enter.time"), 1u);
    EXPECT_EQ(tel.counter("coordinator.enter.esd"), 1u);
    EXPECT_EQ(tel.counter("coordinator.enter.idle"), 1u);
}

TEST_F(CoordinatorTest, EsdRequestWithoutBatteryDegradesToTime)
{
    // Planning raced an ESD pull: the plan says "use the battery" but
    // the server has none.  The coordinator must demote to alternate
    // duty cycling instead of asserting.
    Telemetry tel;
    coord.setTelemetry(&tel);
    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};
    coord.coordinateEsd(server, {da, db}, 0.5);
    EXPECT_EQ(coord.mode(), CoordinationMode::Time);
    EXPECT_EQ(tel.counter("degraded.esd_to_time"), 1u);
    // The demoted schedule still makes progress.
    EXPECT_NE(coord.activeSlot(), -1);
    EXPECT_TRUE(server.app(a).running() || server.app(b).running());
}

TEST_F(CoordinatorTest, EsdBatteryLossMidRunDemotesToTime)
{
    server.attachEsd(esd::leadAcidUps());
    Telemetry tel;
    coord.setTelemetry(&tel);
    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};
    coord.coordinateEsd(server, {da, db}, 0.5);
    EXPECT_EQ(coord.mode(), CoordinationMode::EsdAssisted);

    // The battery drops out mid-duty-cycle (fault injection or a
    // maintenance pull): the next advance demotes, no crash.
    server.setEsdAvailable(false);
    coord.advance(server);
    EXPECT_EQ(coord.mode(), CoordinationMode::Time);
    EXPECT_EQ(tel.counter("degraded.esd_to_time"), 1u);
}

TEST_F(CoordinatorTest, SlotRotationKeepsPeriodOverLongHorizons)
{
    CoordinatorConfig cfg;
    cfg.dutyPeriod = toTicks(0.1);
    Coordinator c(cfg);
    Telemetry tel;
    c.setTelemetry(&tel);
    Directive da{a, defaultPlatform().maxSetting(), false, 0.0};
    Directive db{b, defaultPlatform().maxSetting(), false, 0.0};
    // Shares that do not align with the 10 ms step: every rotation
    // overshoots its boundary, and the overshoot must carry into the
    // next slot instead of stretching the period.
    c.coordinateTime(server, {da, db}, {0.33, 0.67});

    const Tick horizon = toTicks(20.0); // 200 duty periods
    while (server.now() < horizon) {
        c.advance(server);
        server.step();
    }
    // Two rotations per duty period.  The drifting implementation
    // (slot_started reset to `now`) stretched each period by a full
    // step and managed only ~363 rotations over this horizon.
    EXPECT_GE(tel.counter("coordinator.slot_rotations"), 395u);
    EXPECT_LE(tel.counter("coordinator.slot_rotations"), 401u);
}

// --- Accountant ----------------------------------------------------------------

TEST(Accountant, EventNames)
{
    EXPECT_EQ(eventKindName(EventKind::CapChange), "E1-cap-change");
    EXPECT_EQ(eventKindName(EventKind::Arrival), "E2-arrival");
    EXPECT_EQ(eventKindName(EventKind::Departure), "E3-departure");
    EXPECT_EQ(eventKindName(EventKind::Drift), "E4-drift");
}

TEST(Accountant, ExplicitEventsAreQueued)
{
    sim::Server server;
    Accountant acc;
    acc.notifyCapChange(90.0);
    acc.notifyArrival(7);
    auto events = acc.poll(server);
    // App 7 was announced but is not resident by poll time, so the
    // poll also emits a synthetic E3 for it (announced-then-vanished
    // apps must not leak).
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, EventKind::CapChange);
    EXPECT_DOUBLE_EQ(events[0].newCap, 90.0);
    EXPECT_EQ(events[1].kind, EventKind::Arrival);
    EXPECT_EQ(events[1].appId, 7);
    EXPECT_EQ(events[2].kind, EventKind::Departure);
    EXPECT_EQ(events[2].appId, 7);
    // Queue drains, and the vanished entry was dropped for good.
    EXPECT_TRUE(acc.poll(server).empty());
}

TEST(Accountant, DetectsDeparture)
{
    sim::Server server;
    perf::AppProfile tiny = workload("kmeans");
    tiny.totalHeartbeats = 5.0;
    int id = server.admit(tiny);
    Accountant acc;
    acc.notifyArrival(id);
    acc.poll(server); // drain arrival

    server.run(toTicks(5.0));
    auto events = acc.poll(server);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::Departure);
    EXPECT_EQ(events[0].appId, id);
    // Reported exactly once.
    EXPECT_TRUE(acc.poll(server).empty());
}

TEST(Accountant, DetectsSustainedDrift)
{
    sim::Server server;
    int id = server.admit(workload("kmeans"));
    Accountant acc;
    acc.notifyArrival(id);
    acc.poll(server);
    // Allocate far less than the app actually draws (~24 W).
    acc.setAllocatedPower(id, 5.0);

    bool drifted = false;
    for (int i = 0; i < 100 && !drifted; ++i) {
        server.run(toTicks(0.05));
        for (const auto &ev : acc.poll(server))
            drifted |= ev.kind == EventKind::Drift;
    }
    EXPECT_TRUE(drifted);
}

TEST(Accountant, NoDriftWhenAllocationMatches)
{
    sim::Server server;
    int id = server.admit(workload("kmeans"));
    server.run(toTicks(1.0));
    Accountant acc;
    acc.notifyArrival(id);
    acc.poll(server);
    acc.setAllocatedPower(id, server.observedAppPower(id));
    for (int i = 0; i < 40; ++i) {
        server.run(toTicks(0.05));
        for (const auto &ev : acc.poll(server))
            EXPECT_NE(ev.kind, EventKind::Drift);
    }
}

TEST(Accountant, DriftDetectionCanBeDisabled)
{
    sim::Server server;
    int id = server.admit(workload("kmeans"));
    Accountant acc;
    acc.notifyArrival(id);
    acc.poll(server);
    acc.setAllocatedPower(id, 1.0);
    acc.setDriftDetection(false);
    for (int i = 0; i < 40; ++i) {
        server.run(toTicks(0.05));
        EXPECT_TRUE(acc.poll(server).empty());
    }
}

TEST(Accountant, KilledAppEmitsSyntheticDepartureOnce)
{
    sim::Server server;
    int id = server.admit(workload("kmeans"));
    Accountant acc;
    acc.notifyArrival(id);
    acc.poll(server); // drain the E2
    server.run(toTicks(0.5));

    // The app is killed out from under the accountant — it vanishes
    // without ever reporting finished().
    server.remove(id);
    auto events = acc.poll(server);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::Departure);
    EXPECT_EQ(events[0].appId, id);
    // Reported exactly once; the tracked entry does not leak.
    EXPECT_TRUE(acc.poll(server).empty());
    EXPECT_TRUE(acc.poll(server).empty());
}

TEST(Accountant, ReusedAppIdRearmsDetection)
{
    // App ids are recycled (each server hands them out from 1), so
    // after a departure the same id can reappear as a brand-new app.
    // The arrival must reset the tracked entry: a stale
    // reported_finished flag would swallow the new tenant's E3.
    perf::AppProfile tiny = workload("kmeans");
    tiny.totalHeartbeats = 5.0;
    Accountant acc;

    sim::Server first;
    int id = first.admit(tiny);
    acc.notifyArrival(id);
    acc.poll(first);
    first.run(toTicks(5.0)); // runs to completion
    auto events = acc.poll(first);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::Departure);

    sim::Server second;
    int reused = second.admit(tiny);
    ASSERT_EQ(reused, id); // same id, different app
    acc.notifyArrival(reused);
    acc.poll(second); // drain the E2; entry must be re-armed
    second.run(toTicks(5.0));
    events = acc.poll(second);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::Departure);
    EXPECT_EQ(events[0].appId, id);
}

} // namespace
} // namespace psm::core
