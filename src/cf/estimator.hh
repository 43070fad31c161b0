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

#include <memory>
#include <string>
#include <vector>

#include "als.hh"
#include "profiler.hh"
#include "perf/app_profile.hh"
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

/** What one estimate() call cost, for telemetry upstream. */
struct FitOutcome
{
    std::size_t sweeps = 0;  ///< total ALS sweeps across both models
    double fitSeconds = 0.0; ///< wall-clock spent fitting
};

/**
 * Corpus + estimation logic.  Once profiled, a corpus never changes,
 * so one object may serve every server built on its platform
 * (profileCorpus returns it as a shared pointer to const):
 * estimate() writes no member and may run concurrently on one
 * object.
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

    /** The corpus applications' exhaustive surfaces, in the order
     * they were added. */
    const std::vector<UtilitySurface> &corpusSurfaces() const
    {
        return corpus;
    }

    // --- Estimation ---------------------------------------------------

    /**
     * Estimate the full surface of a new application from sparse
     * measurements.  Measured columns keep their measured values.
     *
     * @param exclude Name of a corpus application to leave out of the
     *        fit — the application being estimated, so that it never
     *        predicts itself.  The remaining rows keep their order;
     *        an empty name or one not in the corpus leaves all in.
     * @param outcome Optional report of the fit's sweeps and
     *        wall-clock.
     */
    UtilitySurface estimate(const std::vector<Measurement> &samples,
                            const std::string &exclude = {},
                            FitOutcome *outcome = nullptr) const;

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
    /** Exhaustive rows: watts and raw heartbeat rates (the fit takes
     * the log of the rates it uses). */
    std::vector<UtilitySurface> corpus;
};

/**
 * Profile @p profiles exhaustively into a new corpus ("previously
 * seen applications", Section III-A); a repeated name keeps its first
 * profile.  Profiling is noiseless, so the rows depend only on the
 * platform and the profiles, and one corpus can serve every server
 * built on @p config.
 */
std::shared_ptr<const UtilityEstimator>
profileCorpus(const power::PlatformConfig &config,
              const std::vector<perf::AppProfile> &profiles,
              AlsConfig als = {});

} // namespace psm::cf

#endif // PSM_CF_ESTIMATOR_HH
