/**
 * @file
 * The PowerAllocator: apportions the server's dynamic power budget
 * across applications (R1) and, through each application's utility
 * frontier, across its direct resources (R2) — the optimization of
 * Eq. 1 subject to Eq. 2.
 *
 * Allocation is a discrete knapsack over per-application Pareto
 * frontiers, solved by dynamic programming at sub-watt granularity,
 * followed by a greedy pass that hands any slack to the application
 * with the best marginal utility.  There is one DP: a fold whose
 * transition only inspects the bucket thresholds where a frontier
 * point first becomes affordable (P points instead of B buckets per
 * cell), and one walk-back that turns a bucket count into per-app
 * grants.  allocate(), its cached form and the esdPlan sweep all
 * share the two; an AllocatorCache memoizes the last solve's fold so
 * a repeat of the same curve sequence only walks it back.
 *
 * Besides the spatial allocation it also produces the two temporal
 * plans the Coordinator needs: alternate duty-cycle slots (R3b) and
 * the ESD-assisted consolidated plan with the Eq. 5 duty ratio (R4).
 */

#ifndef PSM_CORE_POWER_ALLOCATOR_HH
#define PSM_CORE_POWER_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "esd/battery.hh"
#include "power/platform.hh"
#include "telemetry.hh"
#include "utility_curve.hh"
#include "util/units.hh"

namespace psm::core
{

/** The allocator's verdict for one application. */
struct AppAllocation
{
    std::string app;       ///< application name
    Watts budget = 0.0;    ///< granted power budget P_X
    /** Chosen operating point; nullopt when the app got nothing. */
    std::optional<UtilityPoint> point;
    double expectedPerf = 0.0; ///< perfNorm the point should deliver

    bool scheduled() const { return point.has_value(); }
};

/** A complete spatial allocation. */
struct Allocation
{
    std::vector<AppAllocation> apps;
    Watts dynamicBudget = 0.0; ///< budget that was divided
    Watts used = 0.0;          ///< sum of granted app power
    double objective = 0.0;    ///< sum of expected perfNorm (Eq. 1)

    /** True when every application received a feasible point. */
    bool allScheduled() const;
};

/** One application's slot in an alternate duty-cycle schedule. */
struct TemporalSlot
{
    std::string app;
    UtilityPoint point;  ///< operating point during the ON period
    double share = 0.0;  ///< fraction of wall-clock time ON
};

/** A temporal (alternate duty-cycling) plan. */
struct TemporalPlan
{
    std::vector<TemporalSlot> slots;
    double objective = 0.0; ///< sum share * perfNorm
    /** Apps that cannot run even alone within the budget. */
    std::vector<std::string> unschedulable;
};

/** An ESD-assisted consolidated duty-cycle plan (R4). */
struct EsdPlan
{
    Allocation onAllocation; ///< spatial allocation during ON periods
    double offFraction = 0.0; ///< (d2-d1)/(d3-d1) from Eq. 5
    Watts deficit = 0.0;      ///< draw above cap during ON, from ESD
    Watts chargePower = 0.0;  ///< wall power into ESD during OFF
    double objective = 0.0;   ///< onFraction * sum perfNorm
    bool viable = false;      ///< a positive-throughput plan exists
};

/** How duty-cycle ON-time shares are chosen. */
enum class ShareMode
{
    Equal,          ///< fair alternate duty cycling (the baselines)
    UtilityWeighted, ///< shares follow perf-per-watt, with a floor
};

/** Allocator tuning. */
struct AllocatorConfig
{
    Watts granularity = 0.25;   ///< DP watt quantum
    /**
     * When the budget covers every application's cheapest frontier
     * point, reserve those minima before optimizing (Eq. 1 weighs
     * apps evenly — nobody starves while spatial coordination is
     * feasible).  Disable for policies whose enforcement can throttle
     * below the frontier's floor (RAPL clock modulation), where the
     * curve minimum is not a real hardware minimum.
     */
    bool reserveMinima = true;

    bool operator==(const AllocatorConfig &) const = default;
};

/**
 * The last spatial solve, memoized across E1–E4 events.
 *
 * Between events the curve set usually stays the same and only the
 * budget moves (a cap change or trim), so the cache keeps the last
 * fold's per-app choice tables.  A call with the same key walks them
 * back from its own bucket count; any other call folds afresh and
 * replaces them.  Rows at bucket b never depend on the table width,
 * so a served answer is bit-identical to the uncached solve.
 *
 * The key is the owner's surface epoch, the DP granularity, the
 * reserve regime, the (name, reserve) sequence, and a bucket count no
 * wider than the tables.  Tables are built a little wider than the
 * solve that fills them so small cap raises still hit.  The epoch
 * stands in for curve contents: every surface install must bump it
 * or the cache serves stale frontiers.
 */
class AllocatorCache
{
    friend class PowerAllocator;

    bool valid = false;
    std::uint64_t epoch = 0;
    Watts granularity = 0.0;
    bool reserveApplied = false;
    /** (name, reserve) per application, in curve order. */
    std::vector<std::pair<std::string, Watts>> apps;
    std::size_t width = 0; ///< table width in buckets (with the pad)
    /** choice[i][b]: buckets app i takes when apps [0, i] share b. */
    std::vector<std::vector<std::size_t>> choice;
};

/**
 * Stateless allocator over utility frontiers.  All cross-event state
 * lives in a caller-owned AllocatorCache; the allocator itself can be
 * constructed freely per decision.
 */
class PowerAllocator
{
  public:
    /** Min total ON share under ShareMode::UtilityWeighted: each of
     * n slots gets at least shareFloor / n. */
    static constexpr double shareFloor = 0.25;
    /** Candidate ON-budget step searched when planning with ESD. */
    static constexpr Watts esdSearchStep = 1.0;

    explicit PowerAllocator(AllocatorConfig config = {});

    const AllocatorConfig &config() const { return cfg; }

    /** Attach a telemetry bus (nullptr detaches). */
    void setTelemetry(Telemetry *telemetry) { tel = telemetry; }

    /**
     * Utility-optimal split of @p dynamic_budget across @p curves
     * (DP + greedy slack pass).  Applications whose cheapest point
     * does not fit may end up unscheduled (budget 0).
     */
    Allocation allocate(const std::vector<const UtilityCurve *> &curves,
                        Watts dynamic_budget) const;

    /**
     * Same optimization, reusing @p cache across events: a call whose
     * key matches the last solve walks its tables back, any other
     * call rebuilds them.  @p epoch is the owner's surface-cache
     * epoch; the cache is invalid the moment it changes.  epoch 0
     * means "no epoch discipline available" and bypasses the cache
     * entirely.
     */
    Allocation allocate(const std::vector<const UtilityCurve *> &curves,
                        Watts dynamic_budget, AllocatorCache *cache,
                        std::uint64_t epoch) const;

    /**
     * The Util-Unaware baseline's split: every application gets an
     * equal share regardless of utility.
     */
    Allocation
    equalSplit(const std::vector<const UtilityCurve *> &curves,
               Watts dynamic_budget) const;

    /**
     * Alternate duty-cycle plan: one application ON at a time, each
     * using the whole @p on_budget during its slot.
     */
    TemporalPlan
    temporalPlan(const std::vector<const UtilityCurve *> &curves,
                 Watts on_budget, ShareMode mode) const;

    /**
     * ESD-assisted consolidated plan: all applications ON together
     * above the cap, bridged by the battery, alternating with
     * all-off charge periods per Eq. 5.
     *
     * @param idle_power P_idle of the platform.
     * @param cm_power P_cm of the platform.
     * @param cap The server power cap.
     * @param esd The battery's static parameters.
     * @param off_cm_power Management power still drawn during OFF
     *        (charge) periods.  0 on platforms whose uncore parks in
     *        PC6 once every core sleeps (the default platform — its
     *        OFF draw is P_idle alone, matching the paper's §II-C
     *        headroom example); set to the platform's P_cm when the
     *        management plane stays awake while charging, where
     *        ignoring it would understate Eq. 5's off/on ratio and
     *        overstate the plan objective.
     */
    EsdPlan esdPlan(const std::vector<const UtilityCurve *> &curves,
                    Watts idle_power, Watts cm_power, Watts cap,
                    const esd::BatteryConfig &esd,
                    Watts off_cm_power = 0.0) const;

  private:
    /** Test-only access for the dense reference DP. */
    friend struct DenseDpOracle;

    /** Reserve-minima decision plus the resulting bucket count. */
    struct ReservePlan
    {
        std::vector<Watts> reserve;
        Watts total = 0.0;
        bool applied = false;
        std::size_t buckets = 0;
    };

    /** choice[i][b]: buckets app i takes when apps [0, i] share b. */
    using ChoiceTables = std::vector<std::vector<std::size_t>>;

    AllocatorConfig cfg;
    Telemetry *tel = nullptr;

    /** Reserve the minima when affordable and size the headroom in
     * buckets, capped where every app affords its top point. */
    ReservePlan
    reservePlan(const std::vector<const UtilityCurve *> &curves,
                Watts dynamic_budget) const;

    /** Fold every curve's frontier candidates into choice tables
     * @p width buckets wide. */
    ChoiceTables fold(const std::vector<const UtilityCurve *> &curves,
                      const ReservePlan &rp, std::size_t width) const;

    /** Walk @p choice back from rp.buckets into per-app granted
     * watts. */
    std::vector<Watts> walkBack(const ChoiceTables &choice,
                                const ReservePlan &rp) const;

    /** bestWithin + slack pass + objective/used rollup over per-app
     * granted watts, with the point<=budget invariant asserted. */
    Allocation
    buildAllocation(const std::vector<const UtilityCurve *> &curves,
                    const std::vector<Watts> &granted,
                    Watts dynamic_budget) const;

    /** Greedy upgrade pass distributing DP slack.  Bounded: a
     * non-monotonic marginal-utility corner case cannot spin forever
     * (guard trips are counted on the telemetry bus). */
    void distributeSlack(const std::vector<const UtilityCurve *> &curves,
                         Allocation &alloc) const;
};

} // namespace psm::core

#endif // PSM_CORE_POWER_ALLOCATOR_HH
