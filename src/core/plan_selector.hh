/**
 * @file
 * The PlanSelector: the decision layer of the control plane.
 *
 * Given the policy, the dynamic power budget and the utility
 * frontiers the LearningPipeline has produced, it chooses ONE plan —
 * a spatial Allocation (R3a), a TemporalPlan (R3b), an EsdPlan (R4)
 * or one of the degraded fallbacks (fair RAPL split, server-average
 * knobs, idle) — without touching the server.  Actuating the chosen
 * plan is the Actuator's job; this separation is what makes the
 * policy semantics of Figs. 8/10 testable in isolation.
 */

#ifndef PSM_CORE_PLAN_SELECTOR_HH
#define PSM_CORE_PLAN_SELECTOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "esd/battery.hh"
#include "policy.hh"
#include "policy_registry.hh"
#include "power/platform.hh"
#include "power_allocator.hh"
#include "telemetry.hh"
#include "utility_curve.hh"
#include "util/units.hh"

namespace psm::core
{

/** Every plan shape the control plane can decide on. */
enum class PlanChoice : std::uint8_t
{
    /** Suspend everything: no feasible plan at this budget. */
    Idle,
    /** Calibrations in flight and nobody ready: leave the
     * conservatively-held calibrating apps alone. */
    CalibrationOnly,
    /** No cap: everyone flat out. */
    UncappedRun,
    /** Utility-optimal spatial allocation (R1/R2 + R3a). */
    SpatialUtility,
    /** Equal split enforced by RAPL, all apps concurrent. */
    FairRaplSpace,
    /** Equal-share alternate duty cycling under RAPL. */
    FairRaplTime,
    /** Server-average knobs, equal spatial shares. */
    ServerAvgSpace,
    /** Server-average knobs, equal temporal shares. */
    ServerAvgTime,
    /** Utility-weighted alternate duty cycling (R3b). */
    TemporalUtility,
    /** ESD-assisted consolidated duty cycling (R4). */
    EsdAssisted,
};

/** Printable plan-choice name (for telemetry records). */
std::string planChoiceName(PlanChoice choice);

/** Everything the selector needs to decide. */
struct PlanInputs
{
    PolicyKind policy = PolicyKind::AppResAware;
    Watts cap = 0.0;    ///< server cap (<= 0 means uncapped)
    Watts budget = 0.0; ///< dynamic budget after guard band and trim
    /** Frontiers of calibrated apps, admission order. */
    std::vector<const UtilityCurve *> curves;
    std::size_t calibratingCount = 0; ///< apps still calibrating
    std::size_t appCount = 0;         ///< all active apps
    bool hasEsd = false;
    const esd::BatteryConfig *esd = nullptr;
    /** False when per-app knob actuation is currently failing: the
     * selector demotes to hardware RAPL enforcement, which needs no
     * per-app software knobs. */
    bool knobsAvailable = true;
    /** Corpus-average curve (Server+Res-Aware baseline). */
    const UtilityCurve *serverAverage = nullptr;
    /**
     * LearningPipeline::surfaceEpoch() of the curves (bumped on every
     * surface install), keying the selector's last-solve allocator
     * cache.  0 (the default) disables cross-event reuse.
     */
    std::uint64_t surfaceEpoch = 0;
};

/** The selector's verdict: which plan, and its payload. */
struct PlanDecision
{
    PlanChoice choice = PlanChoice::Idle;
    Allocation alloc;      ///< SpatialUtility payload
    TemporalPlan temporal; ///< TemporalUtility payload
    EsdPlan esd;           ///< EsdAssisted payload
    /** FairRapl*: per-app (Space) or ON-period (Time) budget;
     * ServerAvg*: the equal share. */
    Watts perAppBudget = 0.0;
    /** ServerAvg*: the chosen server-average operating point. */
    std::optional<UtilityPoint> avgPoint;
    /** FairRaplTime: demand-following RAPL (utility-aware fallback)
     * instead of the blind baseline enforcement. */
    bool demandFollowingRapl = false;
    /** Whether the Accountant's E4 drift detector should run. */
    bool driftDetection = false;
    double objective = 0.0; ///< expected Eq. 1 objective (when known)
    /** Budget left after reserving floors for calibrating apps. */
    Watts usableBudget = 0.0;
};

/**
 * Decision layer; one per manager.  Pure with respect to the server —
 * its only state is the allocator's last-solve cache, which walks the
 * same choice tables an uncached solve would fold, so allocations are
 * bit-identical with or without it by construction.
 */
class PlanSelector
{
  public:
    PlanSelector(const power::PlatformConfig &platform,
                 AllocatorConfig allocator,
                 Telemetry *telemetry = nullptr);

    /** Decide a plan.  No server mutation, no actuation. */
    PlanDecision select(const PlanInputs &in) const;

  private:
    const power::PlatformConfig &plat;
    AllocatorConfig alloc_cfg;
    Telemetry *tel;
    /** The spatial allocation's last solve, keyed on
     * PlanInputs::surfaceEpoch. */
    mutable AllocatorCache dp_cache;
    /** Registry-made planners of policies that replace the built-in
     * DP, constructed on first use and kept across events so they
     * can warm-start. */
    mutable std::map<PolicyKind, std::unique_ptr<SpatialPlanner>>
        planners;

    PlanDecision fairSplit(Watts budget, std::size_t n,
                           bool demand_following) const;
    PlanDecision selectServerResAware(const PlanInputs &in) const;
    PlanDecision selectUtilityAware(const PlanInputs &in) const;

    /** The cached planner instance for a registered custom policy. */
    SpatialPlanner &plannerFor(const PolicyInfo &info) const;
};

} // namespace psm::core

#endif // PSM_CORE_PLAN_SELECTOR_HH
