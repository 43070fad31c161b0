/**
 * @file
 * Power-utility curves and Pareto frontiers over the knob space.
 *
 * A utility surface (power and heartbeat rate per knob setting, either
 * measured or CF-estimated) is reduced to a Pareto frontier: the
 * settings for which no other setting delivers more performance at no
 * more power.  The frontier is the object the PowerAllocator searches:
 * its slope at a budget is the application's marginal utility per
 * watt (Fig. 2), and comparing frontiers restricted to single knobs
 * yields the per-resource utilities of Fig. 3.
 */

#ifndef PSM_CORE_UTILITY_CURVE_HH
#define PSM_CORE_UTILITY_CURVE_HH

#include <optional>
#include <string>
#include <vector>

#include "cf/estimator.hh"
#include "perf/app_profile.hh"
#include "power/platform.hh"
#include "util/units.hh"

namespace psm::core
{

/**
 * The queueing contract of an interactive application, as far as the
 * allocator needs to know it: offered load, mean request cost, and
 * the p99 SLO.  When attached to a UtilityCurve it replaces throughput
 * normalization with an SLO utility (see the curve constructor).
 */
struct InteractiveSlo
{
    double offeredLoad = 0.0;  ///< lambda, requests per second
    double hbPerRequest = 0.0; ///< mean request cost in heartbeats
    double sloP99 = 0.0;       ///< p99 SLO in seconds

    bool valid() const
    {
        return offeredLoad > 0.0 && hbPerRequest > 0.0 && sloP99 > 0.0;
    }

    /** The spec of an interactive profile; invalid (all-zero) for
     * batch profiles. */
    static InteractiveSlo fromProfile(const perf::AppProfile &p)
    {
        InteractiveSlo s;
        if (p.interactive()) {
            s.offeredLoad = p.offeredLoad;
            s.hbPerRequest = p.hbPerRequest;
            s.sloP99 = p.sloP99;
        }
        return s;
    }
};

/** One Pareto-optimal operating point. */
struct UtilityPoint
{
    power::KnobSetting setting; ///< knobs achieving the point
    Watts power = 0.0;          ///< predicted application power P_X
    double hbRate = 0.0;        ///< predicted heartbeat rate
    double perfNorm = 0.0;      ///< hbRate / uncapped hbRate
};

/**
 * Which knobs a frontier may vary; baselines that are unaware of
 * resource-level utilities only scale frequency (the way RAPL
 * enforcement does), while the full scheme searches all three knobs.
 */
enum class KnobFreedom
{
    FrequencyOnly, ///< n = n_max, m = m_max, vary f
    All,           ///< vary f, n and m jointly
};

/**
 * The Pareto frontier of one application's utility surface, sorted by
 * increasing power.
 */
class UtilityCurve
{
  public:
    /**
     * Build from a surface.
     *
     * @param name Application name (for reporting).
     * @param settings Knob setting of each surface column.
     * @param surface Predicted power / heartbeat rate per column.
     * @param freedom Which knob combinations are admissible.
     * @param slo Optional interactive-SLO spec.  When valid, perfNorm
     *        is no longer hbRate/uncapped but the SLO utility
     *        min(1, sloP99 / p99(mu, lambda)) with mu the service rate
     *        the setting's heartbeat rate sustains — 0 where the M/M/1
     *        queue is unstable, saturating at 1 once the tail meets
     *        the SLO.  The transform is monotone non-decreasing in
     *        hbRate, so the Pareto frontier and every allocator
     *        invariant (non-decreasing perfNorm along the curve) are
     *        preserved; the DP, fastcap and cuttlesys policies see a
     *        curve whose marginal utility collapses past the SLO knee
     *        and trade watts to batch apps exactly there.
     */
    UtilityCurve(std::string name,
                 const std::vector<power::KnobSetting> &settings,
                 const cf::UtilitySurface &surface,
                 KnobFreedom freedom = KnobFreedom::All,
                 const InteractiveSlo *slo = nullptr);

    const std::string &name() const { return app_name; }
    const std::vector<UtilityPoint> &points() const { return frontier; }
    bool empty() const { return frontier.empty(); }

    /** The interactive-SLO spec shaping perfNorm; nullopt for
     * throughput (batch) curves. */
    const std::optional<InteractiveSlo> &interactiveSlo() const
    {
        return slo_spec;
    }

    /** Least power at which the application can run at all. */
    Watts minPower() const;
    /** Power of the most performant point. */
    Watts maxPower() const;

    /**
     * Best point whose power fits within @p budget; nullopt when even
     * the cheapest point exceeds it.
     */
    std::optional<UtilityPoint> bestWithin(Watts budget) const;

    /**
     * The frontier compressed onto the allocator's bucket grid: for
     * each frontier point affordable within @p reserve plus
     * @p max_buckets * @p granularity, the smallest bucket count at
     * which bestWithin(reserve + buckets * granularity) reaches it,
     * paired with the perfNorm delivered there.
     *
     * perfAt() is a non-decreasing step function of the bucket index,
     * so these thresholds are the only indices where its value
     * changes: a DP transition restricted to them is exactly
     * equivalent to scanning every bucket, at O(points) instead of
     * O(buckets) cost.  Values are re-read through perfAt() at the
     * threshold so the compressed transition sees bit-identical
     * doubles to a dense per-bucket table.  Always contains the
     * (0, perfAt(reserve)) candidate; thresholds strictly increase.
     */
    std::vector<std::pair<std::size_t, double>>
    bucketCandidates(Watts reserve, Watts granularity,
                     std::size_t max_buckets) const;

    /** Normalized performance at @p budget (0 when infeasible). */
    double perfAt(Watts budget) const;

    /**
     * Marginal utility at @p budget: d(perfNorm)/d(watts) estimated
     * from the frontier segment containing the budget; 0 beyond the
     * frontier's ends.
     */
    double marginalUtility(Watts budget) const;

    /**
     * The point with the highest perfNorm-per-watt ratio within
     * @p budget — the most efficient ON-period operating point for
     * duty cycling.
     */
    std::optional<UtilityPoint> mostEfficientWithin(Watts budget) const;

  private:
    std::string app_name;
    std::vector<UtilityPoint> frontier;
    double nocap_rate = 0.0;
    std::optional<InteractiveSlo> slo_spec;
};

/**
 * Per-resource marginal utilities at a base setting (the bars of
 * Fig. 3/9d): performance gained per extra watt spent on one more
 * core, one DVFS step, or one more DRAM watt.
 */
struct ResourceMarginals
{
    double corePerWatt = 0.0; ///< +1 core
    double freqPerWatt = 0.0; ///< +1 DVFS step on all cores
    double dramPerWatt = 0.0; ///< +1 W DRAM budget
};

/**
 * Compute resource marginals from a surface around @p base.
 */
ResourceMarginals
resourceMarginals(const power::PlatformConfig &config,
                  const std::vector<power::KnobSetting> &settings,
                  const cf::UtilitySurface &surface,
                  const power::KnobSetting &base);

/**
 * Average several surfaces cell-wise — the application-agnostic
 * "server level" utility the Server+Res-Aware baseline uses.
 */
cf::UtilitySurface
averageSurfaces(const std::vector<cf::UtilitySurface> &surfaces);

} // namespace psm::core

#endif // PSM_CORE_UTILITY_CURVE_HH
