/**
 * @file
 * The utility estimator: given sparse online measurements of a new
 * application plus a corpus of previously profiled applications,
 * predict the application's full power and performance surfaces over
 * the knob space (Section III-A, "App Utilities" in Fig. 6).
 *
 * Power is factored in linear space (it is approximately additive in
 * the knobs); heartbeat rates are factored in log space because their
 * structure is multiplicative and their absolute scales differ by
 * orders of magnitude across applications.
 */

#ifndef PSM_CF_ESTIMATOR_HH
#define PSM_CF_ESTIMATOR_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "als.hh"
#include "matrix.hh"
#include "profiler.hh"
#include "power/platform.hh"

namespace psm::cf
{

/** A complete predicted utility surface for one application. */
struct UtilitySurface
{
    std::vector<double> power;  ///< watts per knob-space column
    std::vector<double> hbRate; ///< heartbeats/s per column
    std::size_t sampledColumns = 0; ///< how many were measured
};

/**
 * Memoized estimation state for one application, owned by the caller
 * (the LearningPipeline keeps one per tracked app).  A repeat
 * estimate() against the same corpus with the identical sampled-column
 * mask returns the cached surface without running a single ALS sweep;
 * a mask that strictly grew warm-starts both factorizations from the
 * previous factors instead of the random cold init.
 *
 * The cache key is deliberately the *mask*, not the measured values:
 * re-measuring the same columns yields the same surface modulo
 * measurement noise, and the sampler draws a fresh random mask on
 * drift recalibration, so a stale phase's surface is not pinned.
 */
struct FitState
{
    bool valid = false;
    std::vector<std::size_t> mask; ///< sorted sampled columns
    std::uint64_t maskHash = 0;    ///< FNV-1a over the mask
    std::size_t corpusRows = 0;    ///< rows the fit was made against
    UtilitySurface surface;
    AlsWarmStart powerWarm;
    AlsWarmStart hbWarm;
};

/** What one estimate() call actually did, for telemetry upstream. */
struct FitOutcome
{
    bool cacheHit = false;    ///< surface served without any fit
    bool warmStarted = false; ///< factors seeded from previous fit
    std::size_t sweeps = 0;   ///< total ALS sweeps across both models
    double fitSeconds = 0.0;  ///< wall-clock spent fitting (0 on hit)
};

/**
 * Corpus + estimation logic.
 */
class UtilityEstimator
{
  public:
    explicit UtilityEstimator(const power::PlatformConfig &config,
                              AlsConfig als = {});

    /** Number of knob-space columns. */
    std::size_t columnCount() const { return n_cols; }

    /** The knob setting of column @p c. */
    const power::KnobSetting &setting(std::size_t c) const;

    /** Column index of a (clamped, quantized) knob setting. */
    std::size_t columnOf(const power::KnobSetting &s) const;

    // --- Corpus ------------------------------------------------------

    /**
     * Add a fully profiled application to the corpus.
     */
    void addCorpusApp(const std::string &name,
                      const std::vector<double> &power_row,
                      const std::vector<double> &hb_row);

    bool hasCorpusApp(const std::string &name) const;
    std::size_t corpusSize() const { return names.size(); }
    const std::vector<std::string> &corpusNames() const { return names; }

    /** Drop every corpus application (used by cross-validation). */
    void clearCorpus();

    // --- Estimation ---------------------------------------------------

    /**
     * Estimate the full surface of a new application from sparse
     * measurements.  Measured columns keep their measured values.
     *
     * @param state Optional per-app memo: identical mask (and corpus)
     *        => cached surface, zero sweeps; grown mask => warm-
     *        started refit.  Updated in place with this fit.
     * @param outcome Optional report of what the call did (cache hit,
     *        warm start, sweeps, fit wall-clock).
     */
    UtilitySurface estimate(const std::vector<Measurement> &samples,
                            FitState *state = nullptr,
                            FitOutcome *outcome = nullptr) const;

    /** Sorted column mask of a sample set plus its FNV-1a hash. */
    static std::pair<std::vector<std::size_t>, std::uint64_t>
    sampleMask(const std::vector<Measurement> &samples);

    /**
     * Convenience for a fully known application: wrap exhaustive
     * rows as a surface.
     */
    static UtilitySurface
    surfaceFromRows(const std::vector<double> &power_row,
                    const std::vector<double> &hb_row);

  private:
    const power::PlatformConfig &config;
    AlsConfig als_config;
    std::vector<power::KnobSetting> columns;
    std::size_t n_cols;

    std::vector<std::string> names;
    MaskedMatrix power_corpus;  ///< linear watts
    MaskedMatrix log_hb_corpus; ///< log heartbeat rates
};

} // namespace psm::cf

#endif // PSM_CF_ESTIMATOR_HH
