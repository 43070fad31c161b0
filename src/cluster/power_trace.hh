/**
 * @file
 * Cluster power traces for the peak-shaving study (Fig. 12).
 *
 * The paper replays dynamic power caps derived from a publicly
 * available cluster power trace (Chen et al., NSDI'08 — a
 * connection-intensive internet service with a strong diurnal cycle).
 * That trace is not redistributable, so we generate a synthetic
 * diurnal demand curve with the same character — a daily sinusoidal
 * base, a morning/evening double hump, and short-term noise — and
 * derive cap traces that shave 15%, 30% and 45% off the peak, exactly
 * as the paper's Fig. 12a does.
 */

#ifndef PSM_CLUSTER_POWER_TRACE_HH
#define PSM_CLUSTER_POWER_TRACE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "util/random.hh"
#include "util/units.hh"

namespace psm::cluster
{

/** A piecewise-constant power trace. */
struct PowerTrace
{
    Tick interval = 0;          ///< duration of each point
    std::vector<Watts> values;  ///< one value per interval

    /** Value in force at @p t (clamps to the last point). */
    Watts at(Tick t) const;

    /** Total trace duration. */
    Tick duration() const;

    Watts peak() const;
    Watts mean() const;
};

/** Parameters of the synthetic diurnal demand generator. */
struct TraceConfig
{
    std::size_t points = 96;        ///< samples across the day
    Tick interval = toTicks(30.0);  ///< simulated time per sample
    Watts floor = 600.0;            ///< overnight demand (10 servers)
    Watts peak = 1100.0;            ///< daily peak demand
    double noise = 0.03;            ///< relative short-term noise
    std::uint64_t seed = 2020;
};

/**
 * Generate the diurnal cluster demand curve.
 */
PowerTrace generateDiurnalDemand(const TraceConfig &config);

/**
 * Derive the peak-shaving cap trace: cap(t) = min(demand(t),
 * (1 - shave) * peak(demand)).  With shave = 0 the cap simply tracks
 * demand (uncapped operation).
 */
PowerTrace peakShavingCaps(const PowerTrace &demand, double shave);

/**
 * Serialize a trace to CSV ("seconds,watts" rows with a header) so
 * externally measured cluster traces can be inspected or replayed.
 */
void saveTraceCsv(const PowerTrace &trace, const std::string &path);

/**
 * Load a trace from CSV as written by saveTraceCsv() (or any
 * two-column "seconds,watts" file with uniform spacing, one optional
 * header row).  Each field must be a whole finite number; watts must
 * be non-negative, timestamps must increase uniformly, and the step
 * must round to a Tick in [1, maxTick).  On failure returns false,
 * leaves @p out untouched and, when @p error is non-null, fills it
 * with a diagnostic naming the file and the 1-based line.
 */
bool loadTraceCsv(const std::string &path, PowerTrace &out,
                  std::string *error);

/**
 * Load-following peak-shaving caps for a steady-state population.
 *
 * The paper's cluster load follows the diurnal trace, so its caps
 * only bind around the daily peak.  Our synthetic population draws a
 * constant uncapped power, so we map the trace's diurnal *shape*
 * onto the cap instead: the cap equals the population's uncapped
 * draw off-peak and dips to (1 - shave) of it at the daily peak:
 *
 *   cap(t) = uncapped * (1 - shave * shape(t)),
 *   shape(t) = (demand(t) - min) / (peak - min) in [0, 1].
 */
PowerTrace loadFollowingCaps(const PowerTrace &demand,
                             Watts uncapped, double shave);

} // namespace psm::cluster

#endif // PSM_CLUSTER_POWER_TRACE_HH
