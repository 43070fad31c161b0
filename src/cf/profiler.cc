#include "profiler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace psm::cf
{

KnobSpace
knobSpaceOf(const power::PlatformConfig &config)
{
    if (&config == &power::defaultPlatform()) {
        static const KnobSpace shared =
            std::make_shared<const std::vector<power::KnobSetting>>(
                config.knobSpace());
        return shared;
    }
    return std::make_shared<const std::vector<power::KnobSetting>>(
        config.knobSpace());
}

Profiler::Profiler(const power::PlatformConfig &config,
                   double noise_stddev)
    : noise(noise_stddev), columns(knobSpaceOf(config))
{
    psm_assert(noise >= 0.0);
}

double
Profiler::noisy(double value, Rng &rng) const
{
    if (noise <= 0.0)
        return value;
    return std::max(0.0, value * (1.0 + rng.gaussian(0.0, noise)));
}

Measurement
Profiler::measureOne(const perf::PerfModel &model, std::size_t column,
                     Rng &rng, double cpu_scale,
                     double mem_scale) const
{
    psm_assert(column < columns->size());
    perf::OperatingPoint op = model.evaluate(
        (*columns)[column], 1.0, 1.0, cpu_scale, mem_scale);
    Measurement m;
    m.column = column;
    m.power = noisy(op.totalPower(), rng);
    m.hbRate = noisy(op.hbRate, rng);
    return m;
}

std::vector<Measurement>
Profiler::measure(const perf::PerfModel &model,
                  const std::vector<std::size_t> &cols, Rng &rng,
                  double cpu_scale, double mem_scale) const
{
    std::vector<Measurement> out;
    out.reserve(cols.size());
    for (std::size_t c : cols)
        out.push_back(measureOne(model, c, rng, cpu_scale, mem_scale));
    return out;
}

void
Profiler::measureAll(const perf::PerfModel &model,
                     std::vector<double> &power_row,
                     std::vector<double> &hb_row, Rng &rng) const
{
    power_row.resize(columns->size());
    hb_row.resize(columns->size());
    for (std::size_t c = 0; c < columns->size(); ++c) {
        Measurement m = measureOne(model, c, rng);
        power_row[c] = m.power;
        hb_row[c] = m.hbRate;
    }
}

} // namespace psm::cf
