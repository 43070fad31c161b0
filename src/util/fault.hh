/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * Production servers lose sensors, batteries, nodes, and applications
 * at inconvenient times; the control plane has to degrade instead of
 * crash.  This header provides the injection side of that story: a
 * `FaultInjector` that components consult at their natural decision
 * points ("should the meter read fail this poll?", "does this node
 * crash this interval?").
 *
 * Every roll is a pure function of (seed, stream, kind, tick, salt) —
 * there is no stateful RNG stream to consume, so the fault schedule
 * for a given seed is identical regardless of thread count, call
 * order, or which other components also roll.  This is what makes a
 * faulted run replayable at any `PSM_THREADS`.
 *
 * The injector lives in `util` and therefore knows nothing about
 * telemetry; the call sites in `core`/`cluster` count the `fault.*`
 * and `degraded.*` events.
 */

#ifndef PSM_UTIL_FAULT_HH
#define PSM_UTIL_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hh"

namespace psm::util
{

/** The fault classes the injector can produce. */
enum class FaultKind {
    MeterStale,     ///< power meter returns a stale reading
    MeterNan,       ///< power meter returns garbage (NaN)
    EsdLoss,        ///< ESD/battery becomes unavailable mid-run
    EsdFade,        ///< ESD capacity fades (aging, cell failure)
    ActuationStuck, ///< per-app knob actuation fails to apply
    NodeCrash,      ///< a cluster node crashes for an interval
    AppKill,        ///< an app is killed without finishing
};

/** Stable short name for a fault kind ("meter_stale", ...). */
std::string faultKindName(FaultKind kind);

/**
 * A scheduled fault: deterministically active for every roll of
 * @p kind whose tick falls in [start, end) and whose target matches.
 */
struct FaultWindow
{
    FaultKind kind = FaultKind::MeterStale;
    Tick start = 0;        ///< first tick the window is active
    Tick end = maxTick;    ///< first tick past the window
    std::int64_t target = -1; ///< app id / node index; -1 matches any
};

/**
 * Fault plan: per-kind ambient probabilities plus explicit scheduled
 * windows.  Probabilities are per-roll — components roll once per
 * control period (meters, ESD, kills) or once per cluster interval
 * (node crashes), so a rate of 0.02 means "2% of polls fault".
 */
struct FaultPlanConfig
{
    double meterStaleRate = 0.0;
    double meterNanRate = 0.0;
    double esdLossRate = 0.0;
    double esdFadeRate = 0.0;
    double actuationFailRate = 0.0;
    double appKillRate = 0.0;
    double nodeCrashRate = 0.0;

    /** How long an injected ESD loss lasts before restoration. */
    Tick esdOutage = toTicks(5.0);
    /** Capacity multiplier applied by each EsdFade event. */
    double fadeFactor = 0.9;

    /** Explicit deterministic fault windows (checked before rolls). */
    std::vector<FaultWindow> schedule;

    /**
     * Seed for the roll hash.  0 means "derive from the owning
     * component's seed" (manager seed, pool seed base) so one
     * top-level seed reproduces the whole fault schedule.
     */
    std::uint64_t seed = 0;

    /** Ambient probability for @p kind. */
    double rate(FaultKind kind) const;

    /** True when any rate is positive or any window is scheduled. */
    bool enabled() const;

    /**
     * Derive the per-kind rates from one ambient rate @p r, scaled so
     * frequent rolls (meter, per control period) fault at @p r while
     * destructive ones (kills, node crashes) fault correspondingly
     * less often.  Used by the `bench_faults` rate sweep, the
     * arena's ambient fault schedule and the fault tests.
     */
    void setAmbientRate(double r);
};

/**
 * Stateless fault oracle.  `inject()` answers "does a fault of this
 * kind occur at this tick (for this target)?" by first consulting the
 * scheduled windows and then hashing (seed, stream, kind, tick, salt)
 * into a uniform variate compared against the kind's ambient rate.
 */
class FaultInjector
{
  public:
    /** Disabled injector: every roll answers no. */
    FaultInjector() = default;

    /**
     * @param config Fault plan (probabilities + schedule + seed).
     * @param stream Optional sub-stream id so two components sharing
     *               a seed (e.g. manager vs. pool) roll independently.
     */
    explicit FaultInjector(FaultPlanConfig config,
                           std::uint64_t stream = 0);

    const FaultPlanConfig &config() const { return cfg; }
    bool enabled() const { return cfg.enabled(); }

    /**
     * Roll for a fault of @p kind at tick @p now.
     *
     * @param salt Distinguishes otherwise-identical rolls at the same
     *             tick (app id, node index, attempt counter).
     * @param target Identity checked against scheduled windows; pass
     *             the app id / node index when windows should be able
     *             to single one out (-1 rolls match any-target
     *             windows only).
     */
    bool inject(FaultKind kind, Tick now, std::uint64_t salt = 0,
                std::int64_t target = -1) const;

    /** True when a scheduled window for @p kind covers @p now. */
    bool scheduled(FaultKind kind, Tick now,
                   std::int64_t target = -1) const;

  private:
    FaultPlanConfig cfg;
    std::uint64_t stream_id = 0;
};

} // namespace psm::util

#endif // PSM_UTIL_FAULT_HH
