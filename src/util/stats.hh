/**
 * @file
 * Statistics accumulators used by the power meter, benchmarks and tests.
 */

#ifndef PSM_UTIL_STATS_HH
#define PSM_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "units.hh"

namespace psm
{

/**
 * Streaming scalar statistics (Welford's online algorithm) with min/max
 * tracking.  O(1) memory regardless of sample count.
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void push(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Discard all samples. */
    void reset();

    std::size_t count() const { return n; }
    double mean() const { return n ? m : 0.0; }
    /** Population variance; zero for fewer than two samples. */
    double variance() const;
    double stddev() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double sum() const { return total; }

  private:
    std::size_t n = 0;
    double m = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    double total = 0.0;
};

/**
 * Time-weighted average of a piecewise-constant signal, e.g. power draw
 * held constant over each simulation tick interval.
 */
class TimeWeightedStats
{
  public:
    /**
     * Record that the signal held @p value for @p dt ticks.
     */
    void push(double value, Tick dt);

    void reset();

    /** Time-weighted mean over the whole recorded span. */
    double mean() const;
    double min() const { return span ? lo : 0.0; }
    double max() const { return span ? hi : 0.0; }
    /** Integral of the signal over time: sum(value * seconds). */
    double integral() const { return area; }
    /** Total recorded span. */
    Tick duration() const { return span; }

  private:
    double area = 0.0;
    Tick span = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

/**
 * Exponentially weighted moving average used by the Accountant to
 * smooth noisy per-poll power observations before change detection.
 */
class Ewma
{
  public:
    /**
     * @param alpha Smoothing factor in (0, 1]; higher tracks faster.
     */
    explicit Ewma(double alpha = 0.2);

    /** Incorporate one observation and return the new average. */
    double push(double x);

    double value() const { return current; }
    bool primed() const { return seeded; }
    void reset();

  private:
    double alpha;
    double current = 0.0;
    bool seeded = false;
};

/**
 * Fixed-bin histogram over [lo, hi); out-of-range samples land in the
 * first/last bin (NaN samples are dropped).  Bins count in 32 bits
 * (see `counts`); the total counts in 64.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void push(double x);
    void reset();

    std::size_t binCount() const { return counts.size(); }
    std::size_t binSamples(std::size_t bin) const { return counts.at(bin); }
    std::size_t totalSamples() const { return total; }
    /** Lower edge of a bin. */
    double binLow(std::size_t bin) const;
    /** Approximate p-th percentile by bin midpoint.  p is clamped to
     * [0, 100]; a NaN p (like an empty histogram) yields 0. */
    double percentile(double p) const;

  private:
    double lo;
    double hi;
    /**
     * Per-bin sample counts.  32 bits halve every sim::RequestQueue's
     * 4,096-bin response histogram to 16 KB, and a bin reaches 2^32
     * only after >= 211 simulated days at kvstore's 235 req/s, the
     * highest offered load among the interactive workloads.
     */
    std::vector<std::uint32_t> counts;
    std::size_t total = 0;
};

/** Exact percentile of a sample vector (copies and sorts).  p is
 * clamped to [0, 100]; NaN samples are dropped, and an empty (or
 * all-NaN) vector or a NaN p yields 0. */
double percentileOf(std::vector<double> samples, double p);

/** Arithmetic mean of a vector; zero when empty. */
double meanOf(const std::vector<double> &samples);

/** Geometric mean of a vector of positive values; zero when empty. */
double geomeanOf(const std::vector<double> &samples);

} // namespace psm

#endif // PSM_UTIL_STATS_HH
