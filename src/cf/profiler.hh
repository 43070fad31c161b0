/**
 * @file
 * Measurement front-end for the utility learner.
 *
 * In the paper, "measuring" a knob setting means actuating (f, n, m)
 * on the live application for a short window and reading RAPL power
 * plus the heartbeat rate.  Here the measurement path goes through the
 * same analytic models the simulator executes, optionally with
 * measurement noise, so the learner sees exactly what a live profiling
 * window would have produced.
 */

#ifndef PSM_CF_PROFILER_HH
#define PSM_CF_PROFILER_HH

#include <memory>
#include <vector>

#include "matrix.hh"
#include "perf/perf_model.hh"
#include "power/platform.hh"
#include "util/random.hh"

namespace psm::cf
{

/** The knob settings the CF columns index, shared read-only. */
using KnobSpace = std::shared_ptr<const std::vector<power::KnobSetting>>;

/**
 * The knob space of @p config.  The default platform is immutable and
 * lives as long as the process, so its space is enumerated once and
 * every call on it returns that one vector: every node's Profiler and
 * the corpus they share read the same 10 KB.  Any other platform is a
 * mutable value whose address does not identify its contents, so each
 * call on one enumerates a new vector.
 */
KnobSpace knobSpaceOf(const power::PlatformConfig &config);

/** One online measurement of an application at one knob setting. */
struct Measurement
{
    std::size_t column = 0; ///< knob-space column index
    double power = 0.0;     ///< observed P_X in watts
    double hbRate = 0.0;    ///< observed heartbeat rate
};

/**
 * Measures applications over the knob space.
 */
class Profiler
{
  public:
    /**
     * @param config Platform whose knobSpace() defines the columns.
     * @param noise_stddev Multiplicative measurement noise (relative
     *        standard deviation) applied to both observables; zero
     *        for noiseless measurement.
     */
    explicit Profiler(const power::PlatformConfig &config,
                      double noise_stddev = 0.0);

    /** The knob settings column c refers to. */
    const std::vector<power::KnobSetting> &settings() const
    {
        return *columns;
    }

    std::size_t columnCount() const { return columns->size(); }

    /**
     * Measure one application at one column.
     *
     * @param cpu_scale Phase multiplier on compute work (when the
     *        live application is mid-phase, measurement sees it).
     * @param mem_scale Phase multiplier on memory traffic.
     */
    Measurement measureOne(const perf::PerfModel &model,
                           std::size_t column, Rng &rng,
                           double cpu_scale = 1.0,
                           double mem_scale = 1.0) const;

    /** Measure one application at a set of columns. */
    std::vector<Measurement>
    measure(const perf::PerfModel &model,
            const std::vector<std::size_t> &cols, Rng &rng,
            double cpu_scale = 1.0, double mem_scale = 1.0) const;

    /**
     * Exhaustively measure an application (the paper's "optimal
     * strategy which exhaustively samples all settings").
     *
     * @param power_row Out: per-column power values.
     * @param hb_row Out: per-column heartbeat rates.
     */
    void measureAll(const perf::PerfModel &model,
                    std::vector<double> &power_row,
                    std::vector<double> &hb_row, Rng &rng) const;

  private:
    double noise;
    KnobSpace columns;

    double noisy(double value, Rng &rng) const;
};

} // namespace psm::cf

#endif // PSM_CF_PROFILER_HH
