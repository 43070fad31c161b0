/**
 * @file
 * Reference for the ALS tests: the joint fit as first written, with a
 * Gram matrix, a Cholesky factorization and two vector allocations per
 * row and per column and every residual read through
 * MaskedMatrix::at.  cf::AlsModel factors once per observation pattern
 * and reuses its bias-pass dot products, but keeps every sum's operand
 * order, so it must reproduce this oracle bit for bit, and
 * UtilityEstimator::estimate must reproduce oracleEstimate.
 */

#ifndef PSM_TESTS_ALS_ORACLE_HH
#define PSM_TESTS_ALS_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "cf/als.hh"
#include "cf/estimator.hh"
#include "cf/matrix.hh"
#include "util/logging.hh"

namespace psm::cf
{

/** The Cholesky solve the oracle fit calls, vectors by value. */
inline std::vector<double>
oracleSolveSpd(std::vector<double> a, std::vector<double> b, std::size_t k)
{
    psm_assert(a.size() == k * k && b.size() == k);
    // In-place Cholesky: A = L L^T.
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a[i * k + j];
            for (std::size_t p = 0; p < j; ++p)
                sum -= a[i * k + p] * a[j * k + p];
            if (i == j) {
                psm_assert(sum > 0.0);
                a[i * k + j] = std::sqrt(sum);
            } else {
                a[i * k + j] = sum / a[j * k + j];
            }
        }
    }
    // Forward substitution: L y = b.
    for (std::size_t i = 0; i < k; ++i) {
        double sum = b[i];
        for (std::size_t p = 0; p < i; ++p)
            sum -= a[i * k + p] * b[p];
        b[i] = sum / a[i * k + i];
    }
    // Back substitution: L^T x = y.
    for (std::size_t ii = k; ii-- > 0;) {
        double sum = b[ii];
        for (std::size_t p = ii + 1; p < k; ++p)
            sum -= a[p * k + ii] * b[p];
        b[ii] = sum / a[ii * k + ii];
    }
    return b;
}

/** The joint ALS fit, one solve per row and per column. */
class JointAlsOracle
{
  public:
    JointAlsOracle(const MaskedMatrix &data, AlsConfig config)
        : cfg(config), n_rows(data.rows()), n_cols(data.cols())
    {
        cfg.validate();
        fit(data);
    }

    std::size_t sweepsRun() const { return sweeps_run; }

    double
    predict(std::size_t r, std::size_t c) const
    {
        double dot = 0.0;
        for (std::size_t p = 0; p < cfg.rank; ++p)
            dot += u[r * cfg.rank + p] * v[c * cfg.rank + p];
        return std::clamp(mu + row_bias[r] + col_bias[c] + dot,
                          clamp_lo, clamp_hi);
    }

    double
    trainRmse(const MaskedMatrix &data) const
    {
        if (data.observedCount() == 0)
            return 0.0;
        double sum = 0.0;
        for (std::size_t r = 0; r < n_rows; ++r) {
            for (std::size_t c = 0; c < n_cols; ++c) {
                if (data.observed(r, c)) {
                    double d = data.at(r, c) - predict(r, c);
                    sum += d * d;
                }
            }
        }
        return std::sqrt(sum /
                         static_cast<double>(data.observedCount()));
    }

  private:
    AlsConfig cfg;
    std::size_t n_rows;
    std::size_t n_cols;
    double mu = 0.0;
    double clamp_lo = 0.0;
    double clamp_hi = 0.0;
    std::vector<double> row_bias;
    std::vector<double> col_bias;
    std::vector<double> u;
    std::vector<double> v;
    std::size_t sweeps_run = 0;

    void
    fit(const MaskedMatrix &data)
    {
        std::size_t k = cfg.rank;
        mu = data.observedMean();
        auto [lo, hi] = data.observedRange();
        clamp_lo = lo;
        clamp_hi = hi;

        row_bias.assign(n_rows, 0.0);
        col_bias.assign(n_cols, 0.0);
        u.assign(n_rows * k, 0.0);
        v.assign(n_cols * k, 0.0);

        std::mt19937 rng(cfg.seed);
        std::normal_distribution<double> init(0.0, 0.1);
        for (double &x : u)
            x = init(rng);
        for (double &x : v)
            x = init(rng);

        if (data.observedCount() == 0)
            return;

        // Precompute observation lists per row and per column.
        std::vector<std::vector<std::size_t>> row_obs(n_rows);
        std::vector<std::vector<std::size_t>> col_obs(n_cols);
        for (std::size_t r = 0; r < n_rows; ++r)
            for (std::size_t c = 0; c < n_cols; ++c)
                if (data.observed(r, c)) {
                    row_obs[r].push_back(c);
                    col_obs[c].push_back(r);
                }

        auto residual = [&](std::size_t r, std::size_t c) {
            double dot = 0.0;
            for (std::size_t p = 0; p < k; ++p)
                dot += u[r * k + p] * v[c * k + p];
            return data.at(r, c) -
                   (mu + row_bias[r] + col_bias[c] + dot);
        };

        sweeps_run = cfg.iterations;
        for (std::size_t iter = 0; iter < sweeps_run; ++iter) {
            // Bias updates (closed form ridge estimates).
            for (std::size_t r = 0; r < n_rows; ++r) {
                if (row_obs[r].empty())
                    continue;
                double sum = 0.0;
                for (std::size_t c : row_obs[r])
                    sum += residual(r, c) + row_bias[r];
                row_bias[r] =
                    sum / (static_cast<double>(row_obs[r].size()) +
                           cfg.lambda);
            }
            for (std::size_t c = 0; c < n_cols; ++c) {
                if (col_obs[c].empty())
                    continue;
                double sum = 0.0;
                for (std::size_t r : col_obs[c])
                    sum += residual(r, c) + col_bias[c];
                col_bias[c] =
                    sum / (static_cast<double>(col_obs[c].size()) +
                           cfg.lambda);
            }

            // Row factors: ridge regression against fixed column
            // factors.
            for (std::size_t r = 0; r < n_rows; ++r) {
                if (row_obs[r].empty())
                    continue;
                std::vector<double> a(k * k, 0.0);
                std::vector<double> b(k, 0.0);
                for (std::size_t c : row_obs[r]) {
                    double target = data.at(r, c) - mu - row_bias[r] -
                                    col_bias[c];
                    for (std::size_t p = 0; p < k; ++p) {
                        b[p] += target * v[c * k + p];
                        for (std::size_t q = 0; q <= p; ++q)
                            a[p * k + q] += v[c * k + p] * v[c * k + q];
                    }
                }
                for (std::size_t p = 0; p < k; ++p) {
                    for (std::size_t q = p + 1; q < k; ++q)
                        a[p * k + q] = a[q * k + p];
                    a[p * k + p] += cfg.lambda;
                }
                auto x = oracleSolveSpd(std::move(a), std::move(b), k);
                std::copy(x.begin(), x.end(),
                          u.begin() + static_cast<long>(r * k));
            }

            // Column factors symmetrically.
            for (std::size_t c = 0; c < n_cols; ++c) {
                if (col_obs[c].empty())
                    continue;
                std::vector<double> a(k * k, 0.0);
                std::vector<double> b(k, 0.0);
                for (std::size_t r : col_obs[c]) {
                    double target = data.at(r, c) - mu - row_bias[r] -
                                    col_bias[c];
                    for (std::size_t p = 0; p < k; ++p) {
                        b[p] += target * u[r * k + p];
                        for (std::size_t q = 0; q <= p; ++q)
                            a[p * k + q] += u[r * k + p] * u[r * k + q];
                    }
                }
                for (std::size_t p = 0; p < k; ++p) {
                    for (std::size_t q = p + 1; q < k; ++q)
                        a[p * k + q] = a[q * k + p];
                    a[p * k + p] += cfg.lambda;
                }
                auto x = oracleSolveSpd(std::move(a), std::move(b), k);
                std::copy(x.begin(), x.end(),
                          v.begin() + static_cast<long>(c * k));
            }
        }
    }
};

/**
 * UtilityEstimator::estimate with both fits by the oracle: the same
 * fit matrices (every corpus row but @p exclude, in corpus order,
 * heartbeat rates in log space, then the sparse row) and the same
 * surface assembly.  @p names are the corpus applications' names in
 * the order they were added to @p est.
 */
inline UtilitySurface
oracleEstimate(const UtilityEstimator &est,
               const std::vector<std::string> &names,
               const std::vector<Measurement> &samples,
               const std::string &exclude, AlsConfig als = {})
{
    constexpr double hbFloor = 1e-6;
    const std::vector<UtilitySurface> &corpus = est.corpusSurfaces();
    psm_assert(names.size() == corpus.size());
    std::size_t n_cols = est.columnCount();
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
        power_m.observe(new_row, s.column, s.power);
        hb_m.observe(new_row, s.column,
                     std::log(std::max(s.hbRate, hbFloor)));
    }

    JointAlsOracle power_model(power_m, als);
    JointAlsOracle hb_model(hb_m, als);
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
            surface.hbRate[c] = std::exp(hb_model.predict(new_row, c));
        }
    }
    return surface;
}

} // namespace psm::cf

#endif // PSM_TESTS_ALS_ORACLE_HH
