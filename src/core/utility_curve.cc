#include "utility_curve.hh"

#include <algorithm>
#include <cmath>

#include "perf/latency.hh"
#include "util/logging.hh"

namespace psm::core
{

UtilityCurve::UtilityCurve(
    std::string name,
    const std::vector<power::KnobSetting> &settings,
    const cf::UtilitySurface &surface, KnobFreedom freedom,
    const InteractiveSlo *slo)
    : app_name(std::move(name))
{
    if (slo != nullptr && slo->valid())
        slo_spec = *slo;
    psm_assert(settings.size() == surface.power.size() &&
               settings.size() == surface.hbRate.size());
    psm_assert(!settings.empty());

    // Uncapped rate: the surface's best heartbeat rate (the max
    // setting is always admissible, but estimates can be noisy, so
    // normalize by the best seen).
    nocap_rate = *std::max_element(surface.hbRate.begin(),
                                   surface.hbRate.end());
    psm_assert(nocap_rate > 0.0);

    // Under FrequencyOnly freedom, only settings with the
    // non-frequency knobs pinned at their maxima are admissible.
    int top_cores = 0;
    double top_dram = 0.0;
    for (const auto &s : settings) {
        top_cores = std::max(top_cores, s.cores);
        top_dram = std::max(top_dram, s.dramPower);
    }

    // Collect admissible candidates.
    std::vector<UtilityPoint> candidates;
    for (std::size_t c = 0; c < settings.size(); ++c) {
        const power::KnobSetting &s = settings[c];
        if (freedom == KnobFreedom::FrequencyOnly &&
            (s.cores != top_cores ||
             std::abs(s.dramPower - top_dram) > 1e-9)) {
            continue;
        }
        UtilityPoint p;
        p.setting = s;
        p.power = surface.power[c];
        p.hbRate = surface.hbRate[c];
        if (slo_spec) {
            // SLO utility: 1 while the predicted M/M/1 tail meets
            // the SLO, decaying as the tail stretches past it, 0
            // where the queue is unstable.  Monotone non-decreasing
            // in hbRate, so the frontier ordering below still yields
            // non-decreasing perfNorm along increasing power.
            double mu = p.hbRate / slo_spec->hbPerRequest;
            double p99 =
                perf::LatencyModel::p99(mu, slo_spec->offeredLoad);
            p.perfNorm = std::isfinite(p99)
                             ? std::min(1.0, slo_spec->sloP99 / p99)
                             : 0.0;
        } else {
            p.perfNorm = p.hbRate / nocap_rate;
        }
        candidates.push_back(p);
    }
    psm_assert(!candidates.empty());

    // Pareto filter: sort by power ascending (perf descending as the
    // tie-break) and keep points that strictly improve performance.
    std::sort(candidates.begin(), candidates.end(),
              [](const UtilityPoint &a, const UtilityPoint &b) {
                  if (a.power != b.power)
                      return a.power < b.power;
                  return a.hbRate > b.hbRate;
              });
    double best = -1.0;
    for (const auto &p : candidates) {
        if (p.hbRate > best + 1e-12) {
            frontier.push_back(p);
            best = p.hbRate;
        }
    }
}

Watts
UtilityCurve::minPower() const
{
    psm_assert(!frontier.empty());
    return frontier.front().power;
}

Watts
UtilityCurve::maxPower() const
{
    psm_assert(!frontier.empty());
    return frontier.back().power;
}

std::optional<UtilityPoint>
UtilityCurve::bestWithin(Watts budget) const
{
    // Frontier is sorted by power with increasing performance, so the
    // last affordable point is the best.
    std::optional<UtilityPoint> best;
    for (const auto &p : frontier) {
        if (p.power <= budget + 1e-9)
            best = p;
        else
            break;
    }
    return best;
}

double
UtilityCurve::perfAt(Watts budget) const
{
    auto p = bestWithin(budget);
    return p ? p->perfNorm : 0.0;
}

std::vector<std::pair<std::size_t, double>>
UtilityCurve::bucketCandidates(Watts reserve, Watts granularity,
                               std::size_t max_buckets) const
{
    psm_assert(granularity > 0.0);
    std::vector<std::pair<std::size_t, double>> cands;
    cands.emplace_back(0, perfAt(reserve));
    for (const auto &p : frontier) {
        // Points inside the reserve are already captured by the
        // bucket-0 candidate.
        if (p.power <= reserve + 1e-9)
            continue;
        if ((p.power - reserve) / granularity >
            static_cast<double>(max_buckets) + 2.0) {
            break; // beyond the grid (frontier ascends in power)
        }
        // Smallest x with p.power <= reserve + x * granularity + eps.
        // ceil() can land one bucket off through rounding, so settle
        // with the exact affordability predicate bestWithin() uses.
        auto x = static_cast<std::size_t>(std::max(
            std::ceil((p.power - reserve - 1e-9) / granularity), 0.0));
        while (x > 0 &&
               p.power <= reserve +
                              static_cast<double>(x - 1) * granularity +
                              1e-9) {
            --x;
        }
        while (p.power >
               reserve + static_cast<double>(x) * granularity + 1e-9) {
            ++x;
        }
        if (x > max_buckets)
            break;
        double v =
            perfAt(reserve + static_cast<double>(x) * granularity);
        if (cands.back().first == x)
            cands.back().second = v; // same bucket: keep the best
        else
            cands.emplace_back(x, v);
    }
    return cands;
}

double
UtilityCurve::marginalUtility(Watts budget) const
{
    if (frontier.size() < 2)
        return 0.0;
    if (budget < frontier.front().power ||
        budget >= frontier.back().power) {
        return 0.0;
    }
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        if (frontier[i].power > budget) {
            double dp = frontier[i].power - frontier[i - 1].power;
            double dperf =
                frontier[i].perfNorm - frontier[i - 1].perfNorm;
            return dp > 0.0 ? dperf / dp : 0.0;
        }
    }
    return 0.0;
}

std::optional<UtilityPoint>
UtilityCurve::mostEfficientWithin(Watts budget) const
{
    std::optional<UtilityPoint> best;
    double best_ratio = -1.0;
    for (const auto &p : frontier) {
        if (p.power > budget + 1e-9)
            break;
        double ratio = p.perfNorm / std::max(p.power, 1e-9);
        if (ratio > best_ratio) {
            best_ratio = ratio;
            best = p;
        }
    }
    return best;
}

ResourceMarginals
resourceMarginals(const power::PlatformConfig &config,
                  const std::vector<power::KnobSetting> &settings,
                  const cf::UtilitySurface &surface,
                  const power::KnobSetting &base)
{
    psm_assert(settings.size() == surface.power.size());

    auto find = [&](const power::KnobSetting &want) -> long {
        power::KnobSetting s = config.clampSetting(want);
        for (std::size_t c = 0; c < settings.size(); ++c) {
            if (std::abs(settings[c].freq - s.freq) < 1e-6 &&
                settings[c].cores == s.cores &&
                std::abs(settings[c].dramPower - s.dramPower) < 1e-6) {
                return static_cast<long>(c);
            }
        }
        return -1;
    };

    long base_ix = find(base);
    psm_assert(base_ix >= 0);
    double base_power = surface.power[static_cast<std::size_t>(base_ix)];
    double base_hb = surface.hbRate[static_cast<std::size_t>(base_ix)];

    auto marginal = [&](power::KnobSetting next, Watts min_cost) {
        long ix = find(next);
        if (ix < 0 || ix == base_ix)
            return 0.0;
        double dpow = surface.power[static_cast<std::size_t>(ix)] -
                      base_power;
        double dperf = (surface.hbRate[static_cast<std::size_t>(ix)] -
                        base_hb) / std::max(base_hb, 1e-9);
        // Charge at least the knob's commitment: an allocated watt is
        // spent from the budget whether the hardware draws it or not,
        // and a (nearly) free knob move must not yield a
        // noise-dominated ratio.
        dpow = std::max(dpow, min_cost);
        if (dpow <= 0.05)
            return 0.0;
        return dperf / dpow;
    };

    ResourceMarginals out;
    power::KnobSetting more_cores = base;
    more_cores.cores += 1;
    out.corePerWatt = marginal(more_cores, 0.05);

    power::KnobSetting more_freq = base;
    more_freq.freq += config.freqStep;
    out.freqPerWatt = marginal(more_freq, 0.05);

    // The DRAM knob is a budget grant of a full step.
    power::KnobSetting more_dram = base;
    more_dram.dramPower += config.dramPowerStep;
    out.dramPerWatt = marginal(more_dram, config.dramPowerStep);
    return out;
}

cf::UtilitySurface
averageSurfaces(const std::vector<cf::UtilitySurface> &surfaces)
{
    psm_assert(!surfaces.empty());
    std::size_t n = surfaces.front().power.size();
    cf::UtilitySurface avg;
    avg.power.assign(n, 0.0);
    avg.hbRate.assign(n, 0.0);
    avg.sampledColumns = n;

    // Average normalized performance so large-throughput apps do not
    // dominate the shape; average power in watts directly.
    for (const auto &s : surfaces) {
        psm_assert(s.power.size() == n && s.hbRate.size() == n);
        double peak = *std::max_element(s.hbRate.begin(),
                                        s.hbRate.end());
        psm_assert(peak > 0.0);
        for (std::size_t c = 0; c < n; ++c) {
            avg.power[c] += s.power[c];
            avg.hbRate[c] += s.hbRate[c] / peak;
        }
    }
    for (std::size_t c = 0; c < n; ++c) {
        avg.power[c] /= static_cast<double>(surfaces.size());
        avg.hbRate[c] /= static_cast<double>(surfaces.size());
    }
    return avg;
}

} // namespace psm::core
