#include "learning_pipeline.hh"

#include "util/logging.hh"

namespace psm::core
{

LearningPipeline::LearningPipeline(sim::Server &server,
                                   bool oracle_utilities,
                                   std::uint64_t seed,
                                   Telemetry *telemetry)
    : srv(server), oracle(oracle_utilities), rng_seed(seed),
      tel(telemetry), rng(seed),
      profiler(server.platform(), measurementNoise),
      sampler(server.platform(), sampling)
{
}

std::shared_ptr<const UtilityCurve>
makeServerAverageCurve(const cf::UtilityEstimator &corpus)
{
    if (corpus.corpusSize() == 0)
        return nullptr;
    return std::make_shared<const UtilityCurve>(
        "server-average", *corpus.knobSpace(),
        averageSurfaces(corpus.corpusSurfaces()), KnobFreedom::All);
}

void
LearningPipeline::seedCorpus(
    std::shared_ptr<const cf::UtilityEstimator> corpus,
    std::shared_ptr<const UtilityCurve> server_average)
{
    psm_assert(corpus &&
               corpus->columnCount() == profiler.columnCount());
    cf_corpus = std::move(corpus);
    server_avg_curve = server_average
                           ? std::move(server_average)
                           : makeServerAverageCurve(*cf_corpus);
    if (tel) {
        tel->count(trace::EventId::LearningCorpusApps,
                   cf_corpus->corpusSize());
    }
}

void
LearningPipeline::track(int id, const perf::AppProfile &profile)
{
    AppLearning a;
    a.name = profile.name;
    auto it = apps.emplace(id, std::move(a)).first;
    it->second.slo = InteractiveSlo::fromProfile(profile);
}

void
LearningPipeline::forget(int id)
{
    apps.erase(id);
}

bool
LearningPipeline::startCalibration(int id)
{
    auto it = apps.find(id);
    psm_assert(it != apps.end());
    AppLearning &a = it->second;
    a.calibration_started = srv.now();
    if (tel)
        tel->count(trace::EventId::LearningCalibrationsStarted);

    if (oracle) {
        // Oracle: exhaustive, instantaneous, noiseless re-profiling
        // at the application's current phase.
        sim::Application &app = srv.app(id);
        const sim::Phase &phase = app.currentPhase();
        cf::Profiler exhaustive(srv.platform(), 0.0);
        Rng oracle_rng(rng_seed ^ 0x04ac1eULL);
        std::vector<double> power_row;
        std::vector<double> hb_row;
        // measureAll lacks phase scaling; measure per column instead.
        std::size_t n = exhaustive.columnCount();
        power_row.resize(n);
        hb_row.resize(n);
        for (std::size_t c = 0; c < n; ++c) {
            cf::Measurement s = exhaustive.measureOne(
                app.perf(), c, oracle_rng, phase.cpuScale,
                phase.memScale);
            power_row[c] = s.power;
            hb_row[c] = s.hbRate;
        }
        a.surface = cf::UtilityEstimator::surfaceFromRows(power_row,
                                                          hb_row);
        ++surface_epoch;
        a.calibration_ready = maxTick;
        last_latency = 0;
        if (tel)
            tel->count(trace::EventId::LearningOracleCalibrations);
        return true;
    }

    // Online sparse sampling: choose the settings now, charge the
    // measurement wall-clock, deliver the surface when it elapses.
    a.surface.reset();
    a.pending_cols = sampler.select(sampleFraction, rng);
    a.calibration_ready =
        srv.now() + static_cast<Tick>(a.pending_cols.size()) *
                        calibrationPerSample;
    // The application runs conservatively while being profiled.
    srv.app(id).setKnobs(srv.platform().minSetting());
    return false;
}

void
LearningPipeline::finishCalibration(int id)
{
    auto it = apps.find(id);
    psm_assert(it != apps.end());
    AppLearning &a = it->second;
    psm_assert(!a.pending_cols.empty());

    sim::Application &app = srv.app(id);
    const sim::Phase &phase = app.currentPhase();
    auto samples = profiler.measure(app.perf(), a.pending_cols, rng,
                                    phase.cpuScale, phase.memScale);

    if (!cf_corpus) {
        cf_corpus = std::make_shared<const cf::UtilityEstimator>(
            srv.platform());
    }
    // Leave-one-out: never let an application predict itself.
    cf::FitOutcome outcome;
    a.surface = cf_corpus->estimate(samples, a.name, &outcome);
    ++surface_epoch;
    a.calibration_ready = maxTick;
    // Free the sampled columns: the next calibration draws its own.
    a.pending_cols = std::vector<std::size_t>();
    last_latency = srv.now() - a.calibration_started;
    if (tel) {
        tel->count(trace::EventId::LearningCalibrationsFinished);
        tel->observe(trace::EventId::LearningCalibration, last_latency);
        tel->count(trace::EventId::LearningAlsFits);
        tel->count(trace::EventId::LearningAlsSweeps, outcome.sweeps);
        tel->observe(trace::EventId::LearningAlsFit,
                     toTicks(outcome.fitSeconds));
    }
}

std::vector<int>
LearningPipeline::finishDueCalibrations()
{
    std::vector<int> finished;
    for (auto &[id, a] : apps) {
        if (a.calibration_ready != maxTick &&
            srv.now() >= a.calibration_ready && srv.hasApp(id) &&
            !srv.app(id).finished()) {
            finishCalibration(id);
            finished.push_back(id);
        }
    }
    return finished;
}

bool
LearningPipeline::calibrated(int id) const
{
    auto it = apps.find(id);
    return it != apps.end() && it->second.surface.has_value();
}

UtilityCurve
LearningPipeline::utilityFor(int id, KnobFreedom freedom) const
{
    auto it = apps.find(id);
    psm_assert(it != apps.end());
    psm_assert(it->second.surface.has_value());
    return UtilityCurve(it->second.name, profiler.settings(),
                        *it->second.surface, freedom, &it->second.slo);
}

} // namespace psm::core
