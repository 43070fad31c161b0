#include "estimator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "matrix.hh"
#include "util/logging.hh"

namespace psm::cf
{

namespace
{
/** Floor for log-space transforms of heartbeat rates. */
constexpr double hbFloor = 1e-6;
} // namespace

UtilityEstimator::UtilityEstimator(const power::PlatformConfig &config,
                                   AlsConfig als)
    : config(config), als_config(als), columns(knobSpaceOf(config)),
      n_cols(columns->size())
{
    als_config.validate();
    psm_assert(n_cols > 0);
}

const power::KnobSetting &
UtilityEstimator::setting(std::size_t c) const
{
    psm_assert(c < n_cols);
    return (*columns)[c];
}

std::size_t
UtilityEstimator::columnOf(const power::KnobSetting &raw) const
{
    power::KnobSetting s = config.clampSetting(raw);
    for (std::size_t c = 0; c < n_cols; ++c) {
        const power::KnobSetting &k = (*columns)[c];
        if (std::abs(k.freq - s.freq) < 1e-6 && k.cores == s.cores &&
            std::abs(k.dramPower - s.dramPower) < 1e-6) {
            return c;
        }
    }
    panic("knob setting (%.1f GHz, %d cores, %.0f W) not in the "
          "enumerated space", s.freq, s.cores, s.dramPower);
}

void
UtilityEstimator::addCorpusApp(const std::string &name,
                               const std::vector<double> &power_row,
                               const std::vector<double> &hb_row)
{
    psm_assert(power_row.size() == n_cols && hb_row.size() == n_cols);
    if (hasCorpusApp(name))
        fatal("corpus already contains '%s'", name.c_str());
    names.push_back(name);
    corpus.push_back(surfaceFromRows(power_row, hb_row));
}

bool
UtilityEstimator::hasCorpusApp(const std::string &name) const
{
    for (const auto &n : names)
        if (n == name)
            return true;
    return false;
}

UtilitySurface
UtilityEstimator::estimate(const std::vector<Measurement> &samples,
                           const std::string &exclude,
                           FitOutcome *outcome) const
{
    if (samples.empty())
        fatal("cannot estimate a utility surface from zero samples");

    // The fit matrices: every corpus row but the excluded one, in
    // corpus order (the ALS initial factors are drawn in row order),
    // then the new app as a sparse row.
    MaskedMatrix power_m(0, n_cols);
    MaskedMatrix hb_m(0, n_cols);
    std::vector<double> log_row(n_cols);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (names[i] == exclude)
            continue;
        for (std::size_t c = 0; c < n_cols; ++c)
            log_row[c] = std::log(std::max(corpus[i].hbRate[c], hbFloor));
        power_m.appendObservedRow(corpus[i].power);
        hb_m.appendObservedRow(log_row);
    }
    power_m.appendEmptyRow();
    hb_m.appendEmptyRow();
    std::size_t new_row = power_m.rows() - 1;
    for (const Measurement &s : samples) {
        psm_assert(s.column < n_cols);
        power_m.observe(new_row, s.column, s.power);
        hb_m.observe(new_row, s.column,
                     std::log(std::max(s.hbRate, hbFloor)));
    }

    auto fit_start = std::chrono::steady_clock::now();
    AlsModel power_model(power_m, als_config);
    AlsModel hb_model(hb_m, als_config);
    double fit_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - fit_start)
            .count();

    UtilitySurface surface;
    surface.power.resize(n_cols);
    surface.hbRate.resize(n_cols);
    surface.sampledColumns = samples.size();
    for (std::size_t c = 0; c < n_cols; ++c) {
        if (power_m.observed(new_row, c)) {
            surface.power[c] = power_m.at(new_row, c);
            surface.hbRate[c] = std::exp(hb_m.at(new_row, c));
        } else {
            surface.power[c] = power_model.predict(new_row, c);
            surface.hbRate[c] =
                std::exp(hb_model.predict(new_row, c));
        }
    }

    if (outcome) {
        outcome->sweeps =
            power_model.sweepsRun() + hb_model.sweepsRun();
        outcome->fitSeconds = fit_seconds;
    }
    return surface;
}

UtilitySurface
UtilityEstimator::surfaceFromRows(const std::vector<double> &power_row,
                                  const std::vector<double> &hb_row)
{
    psm_assert(power_row.size() == hb_row.size());
    UtilitySurface s;
    s.power = power_row;
    s.hbRate = hb_row;
    s.sampledColumns = power_row.size();
    return s;
}

std::shared_ptr<const UtilityEstimator>
profileCorpus(const power::PlatformConfig &config,
              const std::vector<perf::AppProfile> &profiles)
{
    auto corpus = std::make_shared<UtilityEstimator>(config);
    Profiler exhaustive(config, 0.0);
    Rng no_draws; // a noiseless Profiler draws no random numbers
    for (const perf::AppProfile &p : profiles) {
        if (corpus->hasCorpusApp(p.name))
            continue;
        perf::PerfModel model(config, p);
        std::vector<double> power_row;
        std::vector<double> hb_row;
        exhaustive.measureAll(model, power_row, hb_row, no_draws);
        corpus->addCorpusApp(p.name, power_row, hb_row);
    }
    return corpus;
}

} // namespace psm::cf
