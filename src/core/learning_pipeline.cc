#include "learning_pipeline.hh"

#include "util/logging.hh"

namespace psm::core
{

LearningPipeline::LearningPipeline(sim::Server &server,
                                   LearningConfig config,
                                   Telemetry *telemetry)
    : srv(server), cfg(config), tel(telemetry), rng(cfg.seed),
      profiler(server.platform(), cfg.measurementNoise),
      sampler(server.platform(), cfg.sampling)
{
    if (cfg.sampleFraction <= 0.0 || cfg.sampleFraction > 1.0)
        fatal("sampleFraction must lie in (0, 1]");
}

void
LearningPipeline::seedCorpus(
    const std::vector<perf::AppProfile> &profiles)
{
    cf::Profiler exhaustive(srv.platform(), 0.0);
    Rng corpus_rng(cfg.seed ^ 0xc0f5eULL);
    for (const auto &p : profiles) {
        bool duplicate = false;
        for (const auto &e : corpus)
            duplicate |= e.name == p.name;
        if (duplicate)
            continue;
        perf::PerfModel model(srv.platform(), p);
        CorpusEntry entry;
        entry.name = p.name;
        exhaustive.measureAll(model, entry.power, entry.hbRate,
                              corpus_rng);
        corpus.push_back(std::move(entry));
    }
    // Cached fits were made against the old corpus; drop them.
    fit_states.clear();
    rebuildServerAverageCurve();
    if (tel)
        tel->count(trace::EventId::LearningCorpusApps, corpus.size());
}

void
LearningPipeline::rebuildServerAverageCurve()
{
    if (corpus.empty()) {
        server_avg_curve.reset();
        return;
    }
    std::vector<cf::UtilitySurface> surfaces;
    surfaces.reserve(corpus.size());
    for (const auto &e : corpus) {
        surfaces.push_back(
            cf::UtilityEstimator::surfaceFromRows(e.power, e.hbRate));
    }
    server_avg_curve.emplace("server-average", profiler.settings(),
                             averageSurfaces(surfaces),
                             KnobFreedom::All);
}

void
LearningPipeline::track(int id, const std::string &name)
{
    AppLearning a;
    a.name = name;
    apps.emplace(id, std::move(a));
}

void
LearningPipeline::track(int id, const perf::AppProfile &profile)
{
    track(id, profile.name);
    apps.at(id).slo = InteractiveSlo::fromProfile(profile);
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

    if (cfg.oracleUtilities) {
        // Oracle: exhaustive, instantaneous, noiseless re-profiling
        // at the application's current phase.
        sim::Application &app = srv.app(id);
        const sim::Phase &phase = app.currentPhase();
        cf::Profiler exhaustive(srv.platform(), 0.0);
        Rng oracle_rng(cfg.seed ^ 0x04ac1eULL);
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
    a.pending_cols = sampler.select(cfg.sampleFraction, rng);
    a.calibration_ready =
        srv.now() + static_cast<Tick>(a.pending_cols.size()) *
                        cfg.calibrationPerSample;
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

    // Leave-one-out corpus: never let an application predict itself.
    cf::UtilityEstimator estimator(srv.platform(), cfg.als);
    for (const auto &e : corpus) {
        if (e.name != a.name)
            estimator.addCorpusApp(e.name, e.power, e.hbRate);
    }
    cf::FitOutcome outcome;
    a.surface = estimator.estimate(samples, &fit_states[a.name],
                                   &outcome);
    ++surface_epoch;
    a.calibration_ready = maxTick;
    a.pending_cols.clear();
    last_latency = srv.now() - a.calibration_started;
    if (tel) {
        tel->count(trace::EventId::LearningCalibrationsFinished);
        tel->observe(trace::EventId::LearningCalibration, last_latency);
        if (outcome.cacheHit) {
            // Cache hits run zero ALS sweeps and never touch the
            // fit timer.
            tel->count(trace::EventId::LearningSurfaceCacheHits);
        } else {
            tel->count(trace::EventId::LearningAlsFits);
            tel->count(trace::EventId::LearningAlsSweeps, outcome.sweeps);
            tel->observe(trace::EventId::LearningAlsFit,
                         toTicks(outcome.fitSeconds));
            if (outcome.warmStarted)
                tel->count(trace::EventId::LearningAlsWarmStarts);
        }
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
                        *it->second.surface, freedom, &srv.platform(),
                        &it->second.slo);
}

} // namespace psm::core
