#include "plan_selector.hh"

#include <algorithm>

#include "util/logging.hh"

namespace psm::core
{

std::string
planChoiceName(PlanChoice choice)
{
    switch (choice) {
      case PlanChoice::Idle:
        return "idle";
      case PlanChoice::CalibrationOnly:
        return "calibration-only";
      case PlanChoice::UncappedRun:
        return "uncapped-run";
      case PlanChoice::SpatialUtility:
        return "spatial-utility";
      case PlanChoice::FairRaplSpace:
        return "fair-rapl-space";
      case PlanChoice::FairRaplTime:
        return "fair-rapl-time";
      case PlanChoice::ServerAvgSpace:
        return "server-avg-space";
      case PlanChoice::ServerAvgTime:
        return "server-avg-time";
      case PlanChoice::TemporalUtility:
        return "temporal-utility";
      case PlanChoice::EsdAssisted:
        return "esd-assisted";
      default:
        panic("invalid PlanChoice %d", static_cast<int>(choice));
    }
}

namespace
{

/** The trace event counting one plan choice (the typed equivalent of
 * the old "selector." + planChoiceName() key). */
trace::EventId
selectorTraceId(PlanChoice choice)
{
    switch (choice) {
      case PlanChoice::Idle:
        return trace::EventId::SelectorIdle;
      case PlanChoice::CalibrationOnly:
        return trace::EventId::SelectorCalibrationOnly;
      case PlanChoice::UncappedRun:
        return trace::EventId::SelectorUncappedRun;
      case PlanChoice::SpatialUtility:
        return trace::EventId::SelectorSpatialUtility;
      case PlanChoice::FairRaplSpace:
        return trace::EventId::SelectorFairRaplSpace;
      case PlanChoice::FairRaplTime:
        return trace::EventId::SelectorFairRaplTime;
      case PlanChoice::ServerAvgSpace:
        return trace::EventId::SelectorServerAvgSpace;
      case PlanChoice::ServerAvgTime:
        return trace::EventId::SelectorServerAvgTime;
      case PlanChoice::TemporalUtility:
        return trace::EventId::SelectorTemporalUtility;
      case PlanChoice::EsdAssisted:
        return trace::EventId::SelectorEsdAssisted;
      default:
        panic("invalid PlanChoice %d", static_cast<int>(choice));
    }
}

} // namespace

PlanSelector::PlanSelector(const power::PlatformConfig &platform,
                           AllocatorConfig allocator,
                           Telemetry *telemetry)
    : plat(platform), alloc_cfg(allocator), tel(telemetry)
{
}

PlanDecision
PlanSelector::fairSplit(Watts budget, std::size_t n,
                        bool demand_following) const
{
    PlanDecision d;
    Watts floor_power = minFeasibleAppPower(plat);
    Watts share = budget / static_cast<double>(n);
    if (share >= floor_power) {
        d.choice = PlanChoice::FairRaplSpace;
        d.perAppBudget = share;
    } else if (budget >= floor_power) {
        // Fair alternate duty cycling; the ON app gets the whole
        // budget, enforced by RAPL throttling.
        d.choice = PlanChoice::FairRaplTime;
        d.perAppBudget = budget;
        d.demandFollowingRapl = demand_following;
    } else {
        d.choice = PlanChoice::Idle;
    }
    return d;
}

PlanDecision
PlanSelector::selectServerResAware(const PlanInputs &in) const
{
    if (!in.serverAverage) {
        fatal("Server+Res-Aware requires a seeded corpus for the "
              "server-level average utilities");
    }
    const UtilityCurve &avg = *in.serverAverage;
    PlanDecision d;
    Watts share = in.budget / static_cast<double>(in.appCount);

    auto spatial_point = avg.bestWithin(share);
    if (spatial_point) {
        d.choice = PlanChoice::ServerAvgSpace;
        d.perAppBudget = share;
        d.avgPoint = spatial_point;
        d.objective = spatial_point->perfNorm *
                      static_cast<double>(in.appCount);
        return d;
    }

    auto on_point = avg.bestWithin(in.budget);
    if (!on_point) {
        d.choice = PlanChoice::Idle;
        return d;
    }
    d.choice = PlanChoice::ServerAvgTime;
    d.perAppBudget = in.budget;
    d.avgPoint = on_point;
    d.objective = on_point->perfNorm;
    return d;
}

SpatialPlanner &
PlanSelector::plannerFor(const PolicyInfo &info) const
{
    auto it = planners.find(info.kind);
    if (it == planners.end()) {
        it = planners.emplace(info.kind, info.makePlanner()).first;
        psm_assert(it->second != nullptr);
    }
    return *it->second;
}

PlanDecision
PlanSelector::selectUtilityAware(const PlanInputs &in) const
{
    PlanDecision d;
    Watts floor_power = minFeasibleAppPower(plat);
    Watts reserved =
        static_cast<double>(in.calibratingCount) * floor_power;
    Watts usable = std::max(in.budget - reserved, 0.0);
    d.usableBudget = usable;

    if (in.curves.empty()) {
        // Everybody is still calibrating at the conservative floor;
        // nothing to (re)plan yet.
        d.choice = PlanChoice::CalibrationOnly;
        return d;
    }

    if (!in.knobsAvailable) {
        // Degradation ladder: per-app knob actuation is failing, so
        // utility-shaped plans (which rely on software operating
        // points) cannot be enforced.  Demote to the fair RAPL split
        // — hardware enforcement that needs no app cooperation.
        if (tel)
            tel->count(trace::EventId::DegradedKnobsToRapl);
        PlanDecision fair = fairSplit(usable, in.curves.size(), true);
        fair.usableBudget = usable;
        return fair;
    }

    // The planning allocator (temporal/ESD plans) keeps the
    // configured reservation behaviour; the spatial optimization is
    // the policy's own: registry policies with a planner factory
    // (FastCap, CuttleSys) replace the DP entirely, the rest run the
    // built-in DP with reservation toggled per policy — RAPL-enforced
    // grants can clock-modulate below any frontier point, so their
    // curve minima are not hard minima.
    const PolicyInfo &info =
        PolicyRegistry::instance().infoFor(in.policy);
    PowerAllocator planner(alloc_cfg);
    planner.setTelemetry(tel);

    Allocation alloc;
    if (info.makePlanner) {
        alloc = plannerFor(info).plan(
            in.curves, usable,
            SpatialPlanner::Context{plat, alloc_cfg, tel});
    } else {
        AllocatorConfig dp_cfg = alloc_cfg;
        dp_cfg.reserveMinima = info.caps.resAware;
        PowerAllocator dp(dp_cfg);
        dp.setTelemetry(tel);
        alloc = dp.allocate(in.curves, usable, &dp_cache,
                            in.surfaceEpoch);
    }
    if (alloc.allScheduled()) {
        d.choice = PlanChoice::SpatialUtility;
        d.objective = alloc.objective;
        d.alloc = std::move(alloc);
        d.driftDetection = true; // E4 active in Space mode
        return d;
    }

    // A RAPL-enforced policy's utility view bottoms out at f_min,
    // but its enforcement can clock-modulate below it: when the
    // curves claim spatial infeasibility yet an equal share clears
    // the hardware floor, fall back to the fair RAPL split rather
    // than duty-cycling.
    std::size_t n = in.curves.size();
    if (info.caps.raplEnforced && in.calibratingCount == 0 &&
        usable / static_cast<double>(n) >= floor_power) {
        PlanDecision fair = fairSplit(usable, n, false);
        fair.usableBudget = usable;
        return fair;
    }

    if (policyUsesEsd(in.policy) && in.hasEsd && in.esd &&
        in.calibratingCount == 0) {
        EsdPlan plan = planner.esdPlan(in.curves, plat.idlePower,
                                       plat.cmPower, in.cap, *in.esd,
                                       plat.offPeriodCmPower);
        if (plan.viable) {
            d.choice = PlanChoice::EsdAssisted;
            d.objective = plan.objective;
            d.esd = std::move(plan);
            return d;
        }
    } else if (policyUsesEsd(in.policy) && !in.hasEsd && tel) {
        // The policy would consider ESD plans but the device is gone
        // (fault or never installed): continue down the ladder to the
        // temporal plan.
        tel->count(trace::EventId::DegradedEsdToTime);
    }

    TemporalPlan plan = planner.temporalPlan(
        in.curves, usable, ShareMode::UtilityWeighted);
    if (plan.slots.empty()) {
        // Even the cheapest learnt operating point exceeds the ON
        // budget; fall back to the hardware floor: RAPL-throttled
        // fair alternation (the same last resort the baseline has).
        // Below the hardware floor no one can run within the cap.
        if (usable >= floor_power) {
            d.choice = PlanChoice::FairRaplTime;
            d.perAppBudget = usable;
            d.demandFollowingRapl = true;
        } else {
            d.choice = PlanChoice::Idle;
        }
        return d;
    }
    d.choice = PlanChoice::TemporalUtility;
    d.objective = plan.objective;
    d.temporal = std::move(plan);
    return d;
}

PlanDecision
PlanSelector::select(const PlanInputs &in) const
{
    PlanDecision d;
    if (in.appCount == 0) {
        d.choice = PlanChoice::Idle;
    } else if (in.cap <= 0.0) {
        d.choice = PlanChoice::UncappedRun;
    } else if (!policyAppAware(in.policy)) {
        d = in.policy == PolicyKind::UtilUnaware
                ? fairSplit(in.budget, in.appCount, false)
                : selectServerResAware(in);
    } else {
        d = selectUtilityAware(in);
    }
    if (tel)
        tel->count(selectorTraceId(d.choice));
    return d;
}

} // namespace psm::core
