/**
 * @file
 * The LearningPipeline: the learning layer of the control plane
 * (Fig. 6's Profiler -> Sampler -> UtilityEstimator path).
 *
 * It holds everything the framework knows about application
 * utilities: the exhaustively profiled corpus of previously seen
 * applications (read-only, and shared by every node of a NodePool),
 * the online sparse-sampling calibration of newly arrived (or phase-
 * changed) applications, the CF estimation that turns sparse samples
 * into full utility surfaces, and the server-average surface used by
 * the Server+Res-Aware baseline.
 *
 * The decision layers above consume it through two calls:
 * calibrated(id) and utilityFor(id, freedom).  Calibration wall-clock
 * cost is modelled faithfully: startCalibration() charges the
 * measurement time and the surface only becomes available once
 * finishDueCalibrations() observes the deadline pass.
 */

#ifndef PSM_CORE_LEARNING_PIPELINE_HH
#define PSM_CORE_LEARNING_PIPELINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cf/cross_validation.hh"
#include "cf/estimator.hh"
#include "cf/profiler.hh"
#include "cf/sampler.hh"
#include "sim/server.hh"
#include "telemetry.hh"
#include "utility_curve.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace psm::core
{

/** Tuning of the learning layer. */
struct LearningConfig
{
    /** Fraction of knob settings measured online (Fig. 7's 10%). */
    double sampleFraction = 0.10;
    /** Use exhaustive ground-truth utilities instead of CF. */
    bool oracleUtilities = false;
    /** Relative measurement noise of online profiling. */
    double measurementNoise = 0.02;
    /** Wall-clock cost of measuring one knob setting online. */
    Tick calibrationPerSample = toTicks(0.018);

    cf::AlsConfig als;
    cf::SamplingStrategy sampling = cf::SamplingStrategy::Stratified;
    std::uint64_t seed = 7;
};

/**
 * Per-server learning pipeline.  The server reference is used for
 * profiling measurements and the simulation clock; it must outlive
 * the pipeline.
 */
class LearningPipeline
{
  public:
    LearningPipeline(sim::Server &server, LearningConfig config,
                     Telemetry *telemetry = nullptr);

    const LearningConfig &config() const { return cfg; }

    /**
     * Install the collaborative filtering corpus ("previously seen
     * applications" in Section III-A, from cf::profileCorpus on this
     * server's platform), replacing any earlier one.  The corpus is
     * read-only, so pipelines may share it.  When later estimating an
     * application that is itself in the corpus, its own row is left
     * out of the fit (leave-one-out).
     */
    void seedCorpus(std::shared_ptr<const cf::UtilityEstimator> corpus);

    /**
     * The installed corpus: null until seeded, except that an
     * unseeded pipeline's first online calibration installs an empty
     * one (its fit sees the sparse samples alone).
     */
    const std::shared_ptr<const cf::UtilityEstimator> &corpus() const
    {
        return cf_corpus;
    }

    /** Server-average utility curve over the corpus (nullopt while
     * the corpus is empty). */
    const std::optional<UtilityCurve> &serverAverageCurve() const
    {
        return server_avg_curve;
    }

    /** Register an application with the pipeline. */
    void track(int id, const std::string &name);

    /**
     * Register an application carrying its full profile.  Interactive
     * profiles additionally record their SLO spec, so utilityFor()
     * hands the allocator an SLO-shaped curve; batch profiles behave
     * exactly like the name-only overload.
     */
    void track(int id, const perf::AppProfile &profile);

    /** Drop a departed application's learning state. */
    void forget(int id);

    /**
     * Begin (re)calibrating an application.
     *
     * Oracle mode re-profiles exhaustively and instantaneously at the
     * application's current phase; online mode selects sparse samples,
     * charges their wall-clock cost, and pins the application to the
     * minimal knob setting while it is being profiled.
     *
     * @return True when the surface is available immediately (oracle).
     */
    bool startCalibration(int id);

    /**
     * Deliver surfaces whose calibration deadline has passed.
     *
     * @return Ids whose calibration finished during this poll.
     */
    std::vector<int> finishDueCalibrations();

    /** True when a utility surface is available for the app. */
    bool calibrated(int id) const;

    /**
     * The application's utility frontier under the given knob freedom
     * — the single entry point for the decision layers.  Requires
     * calibrated(id).
     */
    UtilityCurve utilityFor(int id, KnobFreedom freedom) const;

    /**
     * Wall-clock duration of the most recently completed calibration
     * (0 for oracle calibrations, which are instantaneous).
     */
    Tick lastCalibrationLatency() const { return last_latency; }

    /**
     * Monotonic epoch of the utility surfaces: bumped once on every
     * surface install (an oracle calibration, or an online one
     * finishing), so downstream caches keyed on curve contents (the
     * allocator's last-solve memo) know their frontiers may be stale.
     * Departures need no bump — those caches also key on names — and
     * a same-name re-arrival cannot reach the curve set before its own
     * install bumps.  Starts at 1 (0 is the "no epoch discipline"
     * sentinel).
     */
    std::uint64_t surfaceEpoch() const { return surface_epoch; }

  private:
    sim::Server &srv;
    LearningConfig cfg;
    Telemetry *tel;
    Rng rng;
    cf::Profiler profiler;
    cf::Sampler sampler;

    std::shared_ptr<const cf::UtilityEstimator> cf_corpus;
    std::optional<UtilityCurve> server_avg_curve;

    struct AppLearning
    {
        std::string name;
        InteractiveSlo slo; ///< invalid (all-zero) for batch apps
        std::optional<cf::UtilitySurface> surface;
        Tick calibration_ready = maxTick; ///< maxTick = none pending
        Tick calibration_started = 0;
        std::vector<std::size_t> pending_cols;
    };
    std::map<int, AppLearning> apps;
    Tick last_latency = 0;
    std::uint64_t surface_epoch = 1;

    void finishCalibration(int id);
};

} // namespace psm::core

#endif // PSM_CORE_LEARNING_PIPELINE_HH
