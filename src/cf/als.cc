#include "als.hh"

#include <algorithm>
#include <cmath>
#include <random>

#include "util/logging.hh"

namespace psm::cf
{

void
AlsConfig::validate() const
{
    if (rank == 0)
        fatal("ALS rank must be positive");
    if (lambda < 0.0)
        fatal("ALS lambda must be non-negative");
    if (iterations == 0)
        fatal("ALS needs at least one iteration");
    if (warmIterations == 0)
        fatal("ALS needs at least one warm iteration");
}

std::vector<double>
solveSpd(std::vector<double> a, std::vector<double> b, std::size_t k)
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

AlsModel::AlsModel(const MaskedMatrix &data, AlsConfig config,
                   const AlsWarmStart *warm)
    : cfg(config)
{
    cfg.validate();
    n_rows = data.rows();
    n_cols = data.cols();
    psm_assert(n_rows > 0 && n_cols > 0);
    fit(data, warm);
}

AlsWarmStart
AlsModel::warmStart() const
{
    AlsWarmStart w;
    w.rowBias = row_bias;
    w.colBias = col_bias;
    w.u = u;
    w.v = v;
    return w;
}

void
AlsModel::fit(const MaskedMatrix &data, const AlsWarmStart *warm)
{
    std::size_t k = cfg.rank;
    mu = data.observedMean();
    auto [lo, hi] = data.observedRange();
    clamp_lo = lo;
    clamp_hi = hi;

    bool warmed = warm && warm->matches(n_rows, n_cols, k);
    if (warmed) {
        row_bias = warm->rowBias;
        col_bias = warm->colBias;
        u = warm->u;
        v = warm->v;
    } else {
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
    }

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
        return data.at(r, c) - (mu + row_bias[r] + col_bias[c] + dot);
    };

    sweeps_run = warmed ? cfg.warmIterations : cfg.iterations;
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

        // Row factors: ridge regression against fixed column factors.
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
            auto x = solveSpd(std::move(a), std::move(b), k);
            std::copy(x.begin(), x.end(), u.begin() +
                      static_cast<long>(r * k));
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
            auto x = solveSpd(std::move(a), std::move(b), k);
            std::copy(x.begin(), x.end(), v.begin() +
                      static_cast<long>(c * k));
        }
    }
}

double
AlsModel::rawPredict(std::size_t r, std::size_t c) const
{
    psm_assert(r < n_rows && c < n_cols);
    double dot = 0.0;
    for (std::size_t p = 0; p < cfg.rank; ++p)
        dot += u[r * cfg.rank + p] * v[c * cfg.rank + p];
    return mu + row_bias[r] + col_bias[c] + dot;
}

double
AlsModel::predict(std::size_t r, std::size_t c) const
{
    return std::clamp(rawPredict(r, c), clamp_lo, clamp_hi);
}

Matrix
AlsModel::complete(const MaskedMatrix &data) const
{
    psm_assert(data.rows() == n_rows && data.cols() == n_cols);
    Matrix out(n_rows, n_cols);
    for (std::size_t r = 0; r < n_rows; ++r)
        for (std::size_t c = 0; c < n_cols; ++c)
            out.at(r, c) = data.observed(r, c) ? data.at(r, c)
                                               : predict(r, c);
    return out;
}

double
AlsModel::trainRmse(const MaskedMatrix &data) const
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
    return std::sqrt(sum / static_cast<double>(data.observedCount()));
}

} // namespace psm::cf
