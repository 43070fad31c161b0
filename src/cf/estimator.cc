#include "estimator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

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
    : config(config), als_config(als), columns(config.knobSpace()),
      n_cols(columns.size()), power_corpus(0, 0), log_hb_corpus(0, 0)
{
    als_config.validate();
    psm_assert(n_cols > 0);
}

const power::KnobSetting &
UtilityEstimator::setting(std::size_t c) const
{
    psm_assert(c < n_cols);
    return columns[c];
}

std::size_t
UtilityEstimator::columnOf(const power::KnobSetting &raw) const
{
    power::KnobSetting s = config.clampSetting(raw);
    for (std::size_t c = 0; c < n_cols; ++c) {
        const power::KnobSetting &k = columns[c];
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

    if (power_corpus.rows() == 0) {
        power_corpus = MaskedMatrix(0, 0);
        log_hb_corpus = MaskedMatrix(0, 0);
    }
    std::vector<double> log_row(n_cols);
    for (std::size_t c = 0; c < n_cols; ++c)
        log_row[c] = std::log(std::max(hb_row[c], hbFloor));
    power_corpus.appendObservedRow(power_row);
    log_hb_corpus.appendObservedRow(log_row);
    names.push_back(name);
}

bool
UtilityEstimator::hasCorpusApp(const std::string &name) const
{
    for (const auto &n : names)
        if (n == name)
            return true;
    return false;
}

void
UtilityEstimator::clearCorpus()
{
    names.clear();
    power_corpus = MaskedMatrix(0, 0);
    log_hb_corpus = MaskedMatrix(0, 0);
}

std::pair<std::vector<std::size_t>, std::uint64_t>
UtilityEstimator::sampleMask(const std::vector<Measurement> &samples)
{
    std::vector<std::size_t> mask;
    mask.reserve(samples.size());
    for (const Measurement &s : samples)
        mask.push_back(s.column);
    std::sort(mask.begin(), mask.end());
    mask.erase(std::unique(mask.begin(), mask.end()), mask.end());

    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV-1a
    for (std::size_t c : mask) {
        hash ^= static_cast<std::uint64_t>(c);
        hash *= 0x100000001b3ULL;
    }
    return {std::move(mask), hash};
}

UtilitySurface
UtilityEstimator::estimate(const std::vector<Measurement> &samples,
                           FitState *state, FitOutcome *outcome) const
{
    if (samples.empty())
        fatal("cannot estimate a utility surface from zero samples");
    if (outcome)
        *outcome = FitOutcome{}; // each call reports only itself

    auto [mask, mask_hash] = sampleMask(samples);
    std::size_t fit_rows = power_corpus.rows() + 1;

    if (state && state->valid && state->corpusRows == fit_rows &&
        state->maskHash == mask_hash && state->mask == mask) {
        // Same app, same corpus, same sampled columns: the refit
        // would reproduce this surface modulo measurement noise.
        if (outcome)
            outcome->cacheHit = true;
        return state->surface;
    }

    // Warm-start only when the previous mask strictly grew: the
    // factors then start near the new optimum.
    bool warm = state && state->valid &&
                state->corpusRows == fit_rows &&
                mask.size() > state->mask.size() &&
                std::includes(mask.begin(), mask.end(),
                              state->mask.begin(), state->mask.end());

    // Build working copies of the corpus with the new app appended as
    // a sparse row.
    MaskedMatrix power_m = power_corpus;
    MaskedMatrix hb_m = log_hb_corpus;
    if (power_m.rows() == 0) {
        power_m = MaskedMatrix(0, n_cols);
        hb_m = MaskedMatrix(0, n_cols);
        // MaskedMatrix(0, n) has the column count fixed; append via
        // empty rows below.
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
    AlsModel power_model(power_m, als_config,
                         warm ? &state->powerWarm : nullptr);
    AlsModel hb_model(hb_m, als_config,
                      warm ? &state->hbWarm : nullptr);
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
        outcome->cacheHit = false;
        outcome->warmStarted = warm;
        outcome->sweeps =
            power_model.sweepsRun() + hb_model.sweepsRun();
        outcome->fitSeconds = fit_seconds;
    }
    if (state) {
        state->valid = true;
        state->mask = std::move(mask);
        state->maskHash = mask_hash;
        state->corpusRows = fit_rows;
        state->surface = surface;
        state->powerWarm = power_model.warmStart();
        state->hbWarm = hb_model.warmStart();
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

} // namespace psm::cf
