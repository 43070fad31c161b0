#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace psm
{

void
RunningStats::push(double x)
{
    ++n;
    total += x;
    double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    // Chan et al. parallel-variance combination.
    double delta = other.m - m;
    std::size_t total_n = n + other.n;
    double combined_m = m + delta * static_cast<double>(other.n) /
                                static_cast<double>(total_n);
    m2 = m2 + other.m2 + delta * delta * static_cast<double>(n) *
                             static_cast<double>(other.n) /
                             static_cast<double>(total_n);
    m = combined_m;
    n = total_n;
    total += other.total;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
RunningStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
TimeWeightedStats::push(double value, Tick dt)
{
    if (dt == 0)
        return;
    area += value * toSeconds(dt);
    span += dt;
    lo = std::min(lo, value);
    hi = std::max(hi, value);
}

void
TimeWeightedStats::reset()
{
    *this = TimeWeightedStats();
}

double
TimeWeightedStats::mean() const
{
    if (span == 0)
        return 0.0;
    return area / toSeconds(span);
}

Ewma::Ewma(double alpha) : alpha(alpha)
{
    psm_assert(alpha > 0.0 && alpha <= 1.0);
}

double
Ewma::push(double x)
{
    if (!seeded) {
        current = x;
        seeded = true;
    } else {
        current = alpha * x + (1.0 - alpha) * current;
    }
    return current;
}

void
Ewma::reset()
{
    current = 0.0;
    seeded = false;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo(lo), hi(hi), narrow(bins, 0)
{
    psm_assert(bins > 0 && hi > lo);
}

void
Histogram::push(double x)
{
    // NaN carries no ranking information, and casting it (or an
    // overflowing fraction) to an integer is UB — clamp in floating
    // point first, where comparisons against NaN are safely false.
    if (std::isnan(x))
        return;
    double bins = static_cast<double>(binCount());
    double frac = (x - lo) / (hi - lo);
    double scaled = std::clamp(frac * bins, 0.0, bins - 1.0);
    auto bin = static_cast<std::size_t>(scaled);
    ++total;
    if (wide.empty()) {
        if (narrow[bin] < std::numeric_limits<std::uint16_t>::max()) {
            ++narrow[bin];
            return;
        }
        wide.assign(narrow.begin(), narrow.end());
        narrow = std::vector<std::uint16_t>();
    }
    ++wide[bin];
}

void
Histogram::reset()
{
    std::fill(narrow.begin(), narrow.end(), 0);
    std::fill(wide.begin(), wide.end(), 0);
    total = 0;
}

std::size_t
Histogram::binSamples(std::size_t bin) const
{
    return wide.empty() ? narrow.at(bin) : wide.at(bin);
}

double
Histogram::binLow(std::size_t bin) const
{
    return lo + (hi - lo) * static_cast<double>(bin) /
                    static_cast<double>(binCount());
}

template <typename Count>
double
Histogram::percentileOver(const std::vector<Count> &counts,
                          std::size_t target) const
{
    std::size_t seen = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        seen += counts[b];
        if (seen > target) {
            double width = (hi - lo) / static_cast<double>(counts.size());
            return binLow(b) + width / 2.0;
        }
    }
    return hi;
}

double
Histogram::percentile(double p) const
{
    if (total == 0 || std::isnan(p))
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    auto target = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(total - 1));
    return wide.empty() ? percentileOver(narrow, target)
                        : percentileOver(wide, target);
}

double
percentileOf(std::vector<double> samples, double p)
{
    // NaN samples would poison std::sort (strict weak ordering) and
    // a NaN p survives std::clamp; drop both up front.
    samples.erase(std::remove_if(samples.begin(), samples.end(),
                                 [](double s) {
                                     return std::isnan(s);
                                 }),
                  samples.end());
    if (samples.empty() || std::isnan(p))
        return 0.0;
    std::sort(samples.begin(), samples.end());
    p = std::clamp(p, 0.0, 100.0);
    double idx = p / 100.0 * static_cast<double>(samples.size() - 1);
    auto below = static_cast<std::size_t>(idx);
    std::size_t above = std::min(below + 1, samples.size() - 1);
    double frac = idx - static_cast<double>(below);
    return samples[below] * (1.0 - frac) + samples[above] * frac;
}

double
meanOf(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    return sum / static_cast<double>(samples.size());
}

double
geomeanOf(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double s : samples) {
        if (s <= 0.0)
            return 0.0;
        log_sum += std::log(s);
    }
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

} // namespace psm
