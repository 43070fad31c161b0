/**
 * @file
 * Unit and property tests for the statistics accumulators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/random.hh"
#include "util/stats.hh"

namespace psm
{
namespace
{

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesNaiveComputation)
{
    std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
    RunningStats s;
    for (double x : xs)
        s.push(x);

    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= static_cast<double>(xs.size());

    EXPECT_EQ(s.count(), xs.size());
    EXPECT_NEAR(s.mean(), mean, 1e-12);
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.sum(), mean * static_cast<double>(xs.size()), 1e-12);
}

TEST(RunningStats, MergeEqualsCombinedStream)
{
    Rng rng(7);
    RunningStats a, b, all;
    for (int i = 0; i < 500; ++i) {
        double x = rng.gaussian(5.0, 2.0);
        if (i % 3 == 0)
            a.push(x);
        else
            b.push(x);
        all.push(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity)
{
    RunningStats a;
    a.push(2.0);
    a.push(4.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);

    RunningStats c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 3.0);
    // The one-sided merges must not leak the empty side's +-inf
    // min/max sentinels into the populated accumulator.
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_DOUBLE_EQ(c.min(), 2.0);
    EXPECT_DOUBLE_EQ(c.max(), 4.0);
}

TEST(TimeWeightedStats, WeightsByDuration)
{
    TimeWeightedStats s;
    s.push(100.0, ticksPerSecond);     // 100 W for 1 s
    s.push(50.0, 3 * ticksPerSecond);  // 50 W for 3 s
    EXPECT_NEAR(s.mean(), (100.0 + 150.0) / 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.integral(), 250.0);
    EXPECT_EQ(s.duration(), 4 * ticksPerSecond);
    EXPECT_DOUBLE_EQ(s.min(), 50.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(TimeWeightedStats, ZeroDurationIgnored)
{
    TimeWeightedStats s;
    s.push(1000.0, 0);
    EXPECT_EQ(s.duration(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Ewma, FirstSampleSeeds)
{
    Ewma e(0.5);
    EXPECT_FALSE(e.primed());
    EXPECT_DOUBLE_EQ(e.push(10.0), 10.0);
    EXPECT_TRUE(e.primed());
    EXPECT_DOUBLE_EQ(e.push(20.0), 15.0);
}

TEST(Ewma, ConvergesToConstantInput)
{
    Ewma e(0.3);
    for (int i = 0; i < 100; ++i)
        e.push(42.0);
    EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(Histogram, CountsAndPercentiles)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.push(static_cast<double>(i));
    EXPECT_EQ(h.totalSamples(), 100u);
    for (std::size_t b = 0; b < h.binCount(); ++b)
        EXPECT_EQ(h.binSamples(b), 10u);
    EXPECT_NEAR(h.percentile(50.0), 50.0, 10.0);
    EXPECT_NEAR(h.percentile(95.0), 95.0, 10.0);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins)
{
    Histogram h(0.0, 10.0, 5);
    h.push(-100.0);
    h.push(100.0);
    EXPECT_EQ(h.binSamples(0), 1u);
    EXPECT_EQ(h.binSamples(4), 1u);
}

TEST(Percentile, ExactValues)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentileOf(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf(xs, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentileOf(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileOf(xs, 25.0), 2.0);
}

TEST(Percentile, EmptyReturnsZero)
{
    EXPECT_DOUBLE_EQ(percentileOf({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(meanOf({}), 0.0);
    EXPECT_DOUBLE_EQ(geomeanOf({}), 0.0);
}

TEST(Percentile, OutOfRangePClampsToEnds)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentileOf(xs, -10.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf(xs, 250.0), 5.0);
}

TEST(Percentile, NanInputsAreDropped)
{
    double nan = std::nan("");
    // NaN samples would break std::sort's strict weak ordering;
    // the percentile must come from the finite samples alone.
    std::vector<double> xs = {nan, 1.0, nan, 2.0, 3.0, nan};
    EXPECT_DOUBLE_EQ(percentileOf(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf(xs, 100.0), 3.0);
    // A NaN p (or an all-NaN vector) yields the empty-vector answer.
    EXPECT_DOUBLE_EQ(percentileOf({1.0, 2.0}, nan), 0.0);
    EXPECT_DOUBLE_EQ(percentileOf({nan, nan}, 50.0), 0.0);
}

TEST(Histogram, NanSamplesAreDropped)
{
    Histogram h(0.0, 10.0, 5);
    h.push(std::nan(""));
    EXPECT_EQ(h.totalSamples(), 0u);
    h.push(5.0);
    EXPECT_EQ(h.totalSamples(), 1u);
    EXPECT_NEAR(h.percentile(50.0), 5.0, 1.0);
}

TEST(Histogram, InfiniteSamplesClampToEdgeBins)
{
    Histogram h(0.0, 10.0, 5);
    double inf = std::numeric_limits<double>::infinity();
    h.push(inf);
    h.push(-inf);
    EXPECT_EQ(h.binSamples(4), 1u);
    EXPECT_EQ(h.binSamples(0), 1u);
}

TEST(Histogram, PercentileEdgeCases)
{
    Histogram h(0.0, 10.0, 10);
    // Empty histogram: every percentile is 0.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
    for (double x : {1.0, 3.0, 5.0, 7.0, 9.0})
        h.push(x);
    // p clamps to [0, 100]; NaN p matches the empty answer.
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(400.0), h.percentile(100.0));
    EXPECT_DOUBLE_EQ(h.percentile(std::nan("")), 0.0);
    EXPECT_NEAR(h.percentile(0.0), 1.5, 1.0);
    EXPECT_NEAR(h.percentile(100.0), 9.5, 1.0);
}

TEST(Means, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(meanOf({2.0, 4.0, 6.0}), 4.0);
    EXPECT_NEAR(geomeanOf({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    // Non-positive input makes the geomean undefined; we return 0.
    EXPECT_DOUBLE_EQ(geomeanOf({1.0, 0.0}), 0.0);
}

/** Property: histogram percentile tracks exact percentile loosely. */
class HistogramPercentileProperty
    : public ::testing::TestWithParam<double>
{
};

TEST_P(HistogramPercentileProperty, WithinOneBinOfExact)
{
    double p = GetParam();
    Rng rng(99);
    Histogram h(0.0, 1.0, 50);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform();
        xs.push_back(x);
        h.push(x);
    }
    EXPECT_NEAR(h.percentile(p), percentileOf(xs, p), 0.03);
}

/**
 * Reference histogram: the same binning and percentile walk as
 * Histogram, with 64-bit bin counts.
 */
struct WideCountHistogram
{
    double lo;
    double hi;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;

    void
    push(double x)
    {
        if (std::isnan(x))
            return;
        double n = static_cast<double>(counts.size());
        double scaled =
            std::clamp((x - lo) / (hi - lo) * n, 0.0, n - 1.0);
        ++counts[static_cast<std::size_t>(scaled)];
        ++total;
    }

    double
    percentile(double p) const
    {
        if (total == 0 || std::isnan(p))
            return 0.0;
        p = std::clamp(p, 0.0, 100.0);
        auto target = static_cast<std::uint64_t>(
            p / 100.0 * static_cast<double>(total - 1));
        double width = (hi - lo) / static_cast<double>(counts.size());
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
            seen += counts[b];
            if (seen > target) {
                return lo + (hi - lo) * static_cast<double>(b) /
                                static_cast<double>(counts.size()) +
                       width / 2.0;
            }
        }
        return hi;
    }
};

TEST_P(HistogramPercentileProperty, MatchesWideCountReference)
{
    // 32-bit bins must change no count and no percentile: over seeded
    // spans, bin counts and sample mixes (in range, past both edges,
    // infinite and NaN), every bin and the percentile equal the
    // 64-bit-count reference exactly.
    double p = GetParam();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        double lo = rng.uniform(-5.0, 5.0);
        double hi = lo + rng.uniform(0.001, 100.0);
        const std::size_t bin_choices[] = {1, 7, 50, 4096};
        std::size_t bins = bin_choices[seed % 4];
        Histogram h(lo, hi, bins);
        WideCountHistogram ref{lo, hi,
                               std::vector<std::uint64_t>(bins, 0)};
        int samples = rng.uniformInt(1, 20000);
        for (int i = 0; i < samples; ++i) {
            double u = rng.uniform();
            double x = std::nan("");
            if (u < 0.80)
                x = rng.uniform(lo, hi);
            else if (u < 0.90)
                x = hi + rng.exponential(1.0 / (hi - lo));
            else if (u < 0.97)
                x = lo - rng.exponential(1.0);
            else if (u < 0.99)
                x = std::numeric_limits<double>::infinity();
            h.push(x);
            ref.push(x);
        }
        ASSERT_EQ(h.totalSamples(), ref.total) << "seed " << seed;
        for (std::size_t b = 0; b < bins; ++b)
            ASSERT_EQ(h.binSamples(b), ref.counts[b]) << "seed " << seed;
        EXPECT_EQ(h.percentile(p), ref.percentile(p)) << "seed " << seed;
    }
}

TEST(Histogram, WideningPastSixteenBitsIsLossless)
{
    // 1- and 7-bin histograms where one bin passes 65,535: every bin,
    // the total and every percentile equal the 64-bit-count reference
    // just before the widening push, just after it and at the end;
    // reset() then zeroes every bin, and the widened bins count on.
    const double ps[] = {0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9,
                         100.0};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        const std::size_t bins = seed % 2 ? 1 : 7;
        const double lo = rng.uniform(-5.0, 5.0);
        const double hi = lo + rng.uniform(0.5, 50.0);
        const double width = (hi - lo) / static_cast<double>(bins);
        const auto heavy = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bins) - 1));
        Histogram h(lo, hi, bins);
        WideCountHistogram ref{lo, hi,
                               std::vector<std::uint64_t>(bins, 0)};
        auto expectSame = [&](const char *when) {
            ASSERT_EQ(h.totalSamples(), ref.total) << when;
            for (std::size_t b = 0; b < bins; ++b)
                ASSERT_EQ(h.binSamples(b), ref.counts[b]) << when;
            for (double p : ps)
                ASSERT_EQ(h.percentile(p), ref.percentile(p))
                    << when << " p" << p;
        };
        const int samples = rng.uniformInt(70000, 200000);
        for (int i = 0; i < samples; ++i) {
            // 96% of the samples fall in one bin, so it passes 65,535
            // even at 70k samples; the rest spread over the span and
            // past both edges.
            double u = rng.uniform();
            double x;
            if (u < 0.96)
                x = lo + width * (static_cast<double>(heavy) +
                                  rng.uniform(0.05, 0.95));
            else if (u < 0.98)
                x = rng.uniform(lo, hi);
            else if (u < 0.99)
                x = hi + rng.exponential(1.0);
            else
                x = lo - rng.exponential(1.0);
            h.push(x);
            ref.push(x);
            std::uint64_t top = ref.counts[heavy];
            if (top == 65535)
                expectSame("before widening");
            else if (top == 65536)
                expectSame("after widening");
        }
        ASSERT_GT(ref.counts[heavy], 65535u) << "seed " << seed;
        expectSame("end");

        h.reset();
        ref = WideCountHistogram{lo, hi,
                                 std::vector<std::uint64_t>(bins, 0)};
        EXPECT_EQ(h.binCount(), bins);
        expectSame("reset");
        for (int i = 0; i < 1000; ++i) {
            double x = rng.uniform(lo, hi);
            h.push(x);
            ref.push(x);
        }
        expectSame("after reset");
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistogramPercentileProperty,
                         ::testing::Values(5.0, 25.0, 50.0, 75.0,
                                           95.0, 99.0, 0.0, 99.9,
                                           100.0));

} // namespace
} // namespace psm
