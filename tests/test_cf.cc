/**
 * @file
 * Tests for the collaborative filtering stack: matrices, ALS,
 * sampling, the estimator and cross-validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "cf/als.hh"
#include "cf/cross_validation.hh"
#include "cf/estimator.hh"
#include "cf/matrix.hh"
#include "cf/profiler.hh"
#include "cf/sampler.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "util/random.hh"

namespace psm::cf
{
namespace
{

using power::defaultPlatform;

// --- Matrix ---------------------------------------------------------------

TEST(Matrix, BasicAccessAndAppend)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
    m.at(0, 0) = 7.0;
    EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);

    m.appendRow({1.0, 2.0, 3.0});
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.row(2), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Matrix, RmseAgainstSelfIsZero)
{
    Matrix m(3, 3, 2.0);
    EXPECT_DOUBLE_EQ(m.rmse(m), 0.0);
    Matrix n(3, 3, 4.0);
    EXPECT_DOUBLE_EQ(m.rmse(n), 2.0);
}

TEST(MaskedMatrix, ObservationBookkeeping)
{
    MaskedMatrix m(2, 4);
    EXPECT_EQ(m.observedCount(), 0u);
    m.observe(0, 1, 5.0);
    m.observe(1, 3, 9.0);
    EXPECT_TRUE(m.observed(0, 1));
    EXPECT_FALSE(m.observed(0, 0));
    EXPECT_EQ(m.observedCount(), 2u);
    EXPECT_DOUBLE_EQ(m.density(), 0.25);
    EXPECT_DOUBLE_EQ(m.observedMean(), 7.0);
    auto [lo, hi] = m.observedRange();
    EXPECT_DOUBLE_EQ(lo, 5.0);
    EXPECT_DOUBLE_EQ(hi, 9.0);

    m.unobserve(0, 1);
    EXPECT_EQ(m.observedCount(), 1u);
    // Re-observing the same cell does not double count.
    m.observe(1, 3, 9.0);
    EXPECT_EQ(m.observedCount(), 1u);
}

TEST(MaskedMatrix, AppendRows)
{
    MaskedMatrix m(0, 0);
    m.appendObservedRow({1.0, 2.0});
    m.appendEmptyRow();
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_TRUE(m.observed(0, 0));
    EXPECT_FALSE(m.observed(1, 0));
}

// --- ALS --------------------------------------------------------------------

TEST(SolveSpd, MatchesKnownSolution)
{
    // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
    auto x = solveSpd({4.0, 1.0, 1.0, 3.0}, {1.0, 2.0}, 2);
    EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-12);
    EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-12);
}

TEST(Als, RecoversLowRankMatrixFromSparseSample)
{
    // Build a rank-2 ground truth and observe 30% of it.
    const std::size_t rows = 12, cols = 40;
    Rng rng(3);
    std::vector<double> u(rows * 2), v(cols * 2);
    for (auto &x : u)
        x = rng.uniform(0.5, 1.5);
    for (auto &x : v)
        x = rng.uniform(0.5, 1.5);

    Matrix truth(rows, cols);
    MaskedMatrix observed(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            double val = u[r * 2] * v[c * 2] +
                         u[r * 2 + 1] * v[c * 2 + 1];
            truth.at(r, c) = val;
            if (rng.chance(0.3))
                observed.observe(r, c, val);
        }
    }

    AlsConfig cfg;
    cfg.rank = 2;
    cfg.lambda = 0.01;
    AlsModel model(observed, cfg);
    Matrix completed = model.complete(observed);
    EXPECT_LT(completed.rmse(truth), 0.25);
    EXPECT_LT(model.trainRmse(observed), 0.10);
}

TEST(Als, CompleteKeepsObservedValues)
{
    MaskedMatrix m(2, 2);
    m.observe(0, 0, 1.0);
    m.observe(1, 1, 2.0);
    AlsModel model(m);
    Matrix out = model.complete(m);
    EXPECT_DOUBLE_EQ(out.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(out.at(1, 1), 2.0);
}

TEST(Als, PredictionsClampedToObservedRange)
{
    MaskedMatrix m(3, 3);
    m.observe(0, 0, 10.0);
    m.observe(1, 1, 20.0);
    m.observe(2, 2, 15.0);
    AlsModel model(m);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_GE(model.predict(r, c), 10.0);
            EXPECT_LE(model.predict(r, c), 20.0);
        }
}

TEST(AlsDeath, ConfigValidation)
{
    MaskedMatrix m(1, 1);
    m.observe(0, 0, 1.0);
    AlsConfig bad;
    bad.rank = 0;
    EXPECT_DEATH(AlsModel(m, bad), "rank");
}

// --- Sampler -----------------------------------------------------------------

class SamplerTest
    : public ::testing::TestWithParam<SamplingStrategy>
{
};

TEST_P(SamplerTest, AnchorsAlwaysIncludedAndBudgetMet)
{
    Sampler sampler(defaultPlatform(), GetParam());
    Rng rng(5);
    for (double frac : {0.02, 0.05, 0.10, 0.25}) {
        auto cols = sampler.select(frac, rng);
        // Budget: ceil(frac * 432), at least the anchor count.
        std::size_t budget = static_cast<std::size_t>(
            std::ceil(frac * static_cast<double>(
                                 sampler.columnCount())));
        budget = std::max(budget, sampler.anchors().size());
        EXPECT_EQ(cols.size(), budget);
        // Distinct, sorted, in range.
        std::set<std::size_t> unique(cols.begin(), cols.end());
        EXPECT_EQ(unique.size(), cols.size());
        EXPECT_LT(*cols.rbegin(), sampler.columnCount());
        // Anchors present.
        for (std::size_t a : sampler.anchors())
            EXPECT_TRUE(unique.count(a)) << "anchor " << a;
    }
}

TEST_P(SamplerTest, FullFractionCoversEverything)
{
    Sampler sampler(defaultPlatform(), GetParam());
    Rng rng(6);
    auto cols = sampler.select(1.0, rng);
    EXPECT_EQ(cols.size(), sampler.columnCount());
}

INSTANTIATE_TEST_SUITE_P(Strategies, SamplerTest,
                         ::testing::Values(SamplingStrategy::Random,
                                           SamplingStrategy::Stratified));

TEST(Sampler, EightCornerAnchors)
{
    Sampler sampler(defaultPlatform());
    EXPECT_EQ(sampler.anchors().size(), 8u);
}

// --- Profiler / Estimator ------------------------------------------------------

TEST(Profiler, NoiselessMeasurementMatchesModel)
{
    const auto &plat = defaultPlatform();
    Profiler prof(plat, 0.0);
    perf::PerfModel model(plat, perf::workload("kmeans"));
    Rng rng(1);
    Measurement m = prof.measureOne(model, 0, rng);
    perf::OperatingPoint op = model.evaluate(prof.settings()[0]);
    EXPECT_DOUBLE_EQ(m.power, op.totalPower());
    EXPECT_DOUBLE_EQ(m.hbRate, op.hbRate);
}

TEST(Estimator, ColumnIndexRoundTrips)
{
    const auto &plat = defaultPlatform();
    UtilityEstimator est(plat);
    for (std::size_t c = 0; c < est.columnCount(); c += 37) {
        EXPECT_EQ(est.columnOf(est.setting(c)), c);
    }
}

TEST(Estimator, MeasuredColumnsKeepMeasuredValues)
{
    const auto &plat = defaultPlatform();
    UtilityEstimator est(plat);
    std::vector<Measurement> samples = {
        {0, 12.0, 100.0}, {10, 14.0, 150.0}, {431, 20.0, 300.0}};
    UtilitySurface s = est.estimate(samples);
    EXPECT_DOUBLE_EQ(s.power[0], 12.0);
    EXPECT_DOUBLE_EQ(s.power[10], 14.0);
    EXPECT_DOUBLE_EQ(s.power[431], 20.0);
    EXPECT_NEAR(s.hbRate[10], 150.0, 1e-6);
    EXPECT_EQ(s.sampledColumns, 3u);

    // Leaving out the only corpus row fits the lone sparse row, just
    // as the empty corpus does.
    UtilityEstimator one(plat);
    std::vector<double> row(one.columnCount(), 10.0);
    one.addCorpusApp("alpha", row, row);
    UtilitySurface alone = one.estimate(samples, "alpha");
    EXPECT_EQ(alone.power, s.power);
    EXPECT_EQ(alone.hbRate, s.hbRate);
}

TEST(Estimator, CorpusManagement)
{
    const auto &plat = defaultPlatform();
    UtilityEstimator est(plat);
    std::vector<double> row(est.columnCount(), 10.0);
    est.addCorpusApp("alpha", row, row);
    EXPECT_TRUE(est.hasCorpusApp("alpha"));
    EXPECT_EQ(est.corpusSize(), 1u);
    EXPECT_DEATH(est.addCorpusApp("alpha", row, row),
                 "already contains");
    ASSERT_EQ(est.corpusSurfaces().size(), 1u);
    EXPECT_EQ(est.corpusSurfaces()[0].power, row);

    // Profiling a corpus keeps the first of repeated names.
    auto profiled = profileCorpus(
        plat, {perf::workload("stream"), perf::workload("stream")});
    EXPECT_EQ(profiled->corpusSize(), 1u);
    EXPECT_TRUE(profiled->hasCorpusApp("stream"));
}

TEST(Estimator, LeaveOneOutPredictsHeldOutAppWell)
{
    // Corpus: 11 apps fully profiled.  Estimate the 12th from 10%
    // samples; relative error should be small (the Fig. 7 result).
    const auto &plat = defaultPlatform();
    Profiler prof(plat, 0.0);
    Rng rng(17);
    UtilityEstimator est(plat);

    const std::string target = "facesim";
    std::vector<double> truth_p, truth_h;
    for (const auto &p : perf::workloadLibrary()) {
        perf::PerfModel model(plat, p);
        std::vector<double> pr, hr;
        prof.measureAll(model, pr, hr, rng);
        if (p.name == target) {
            truth_p = pr;
            truth_h = hr;
        } else {
            est.addCorpusApp(p.name, pr, hr);
        }
    }

    Sampler sampler(plat);
    auto cols = sampler.select(0.10, rng);
    perf::PerfModel model(plat, perf::workload(target));
    auto samples = prof.measure(model, cols, rng);
    UtilitySurface s = est.estimate(samples);

    double perr = 0.0, herr = 0.0;
    for (std::size_t c = 0; c < s.power.size(); ++c) {
        perr += std::abs(s.power[c] - truth_p[c]) / truth_p[c];
        herr += std::abs(s.hbRate[c] - truth_h[c]) / truth_h[c];
    }
    perr /= static_cast<double>(s.power.size());
    herr /= static_cast<double>(s.power.size());
    EXPECT_LT(perr, 0.06);
    EXPECT_LT(herr, 0.12);

    // Leaving the target out of the full 12-app corpus by name is the
    // same fit, bit for bit, as the 11-app corpus without it.
    auto full = profileCorpus(plat, perf::workloadLibrary());
    ASSERT_TRUE(full->hasCorpusApp(target));
    UtilitySurface loo = full->estimate(samples, target);
    EXPECT_EQ(loo.power, s.power);
    EXPECT_EQ(loo.hbRate, s.hbRate);
}

// --- Cross validation -------------------------------------------------------

TEST(CrossValidation, ErrorShrinksWithMoreSamples)
{
    CvConfig cv;
    cv.measurementNoise = 0.0;
    auto coarse = crossValidate(defaultPlatform(),
                                perf::workloadLibrary(), 0.03, cv);
    auto fine = crossValidate(defaultPlatform(),
                              perf::workloadLibrary(), 0.40, cv);
    EXPECT_EQ(coarse.heldOutApps, 12u);
    EXPECT_GT(coarse.perfRelError, 0.0);
    EXPECT_LT(fine.perfRelError, coarse.perfRelError);
    EXPECT_LE(fine.powerUnderPrediction,
              coarse.powerUnderPrediction + 0.01);
}

TEST(CrossValidation, SweepCoversRequestedFractions)
{
    CvConfig cv;
    auto results = sweepSamplingFractions(
        defaultPlatform(), perf::workloadLibrary(), {0.05, 0.10}, cv);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].sampleFraction, 0.05);
    EXPECT_DOUBLE_EQ(results[1].sampleFraction, 0.10);
}

} // namespace
} // namespace psm::cf
