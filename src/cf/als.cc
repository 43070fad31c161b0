#include "als.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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
}

namespace
{

constexpr std::size_t noPattern = std::numeric_limits<std::size_t>::max();

/**
 * Factor the symmetric positive definite k x k matrix held in the
 * lower triangle of @p a (row-major) in place, A = L L^T.  The upper
 * triangle is neither read nor written.
 */
void
choleskyInPlace(double *a, std::size_t k)
{
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
}

/** Overwrite @p b with the x solving L L^T x = b, for the factor L
 * that choleskyInPlace left in @p l. */
void
substituteInPlace(const double *l, double *b, std::size_t k)
{
    // Forward substitution: L y = b.
    for (std::size_t i = 0; i < k; ++i) {
        double sum = b[i];
        for (std::size_t p = 0; p < i; ++p)
            sum -= l[i * k + p] * b[p];
        b[i] = sum / l[i * k + i];
    }
    // Back substitution: L^T x = y.
    for (std::size_t ii = k; ii-- > 0;) {
        double sum = b[ii];
        for (std::size_t p = ii + 1; p < k; ++p)
            sum -= l[p * k + ii] * b[p];
        b[ii] = sum / l[ii * k + ii];
    }
}

/**
 * The observed cells of every row (or every column) in CSR form, and
 * the grouping of identical lists into observation patterns.
 */
struct ObsLists
{
    /** List i is entries [start[i], start[i + 1]). */
    std::vector<std::size_t> start;
    /** Each entry's other coordinate, ascending within a list. */
    std::vector<std::size_t> other;
    /** Pattern of each list; noPattern for an empty list. */
    std::vector<std::size_t> pattern;
    /** One list holding each pattern. */
    std::vector<std::size_t> holder;

    std::size_t
    size(std::size_t i) const
    {
        return start[i + 1] - start[i];
    }

    bool
    sameEntries(std::size_t a, std::size_t b) const
    {
        return std::equal(other.begin() + start[a],
                          other.begin() + start[a + 1],
                          other.begin() + start[b],
                          other.begin() + start[b + 1]);
    }

    /**
     * Fill pattern and holder by comparing each non-empty list with
     * the holder of every pattern found so far: O(cells x patterns).
     * The estimator's fits have at most two row and two column
     * patterns; only tests build matrices where every list differs.
     */
    void
    groupPatterns()
    {
        std::size_t n = start.size() - 1;
        pattern.assign(n, noPattern);
        holder.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (size(i) == 0)
                continue;
            std::size_t g = 0;
            while (g < holder.size() && !sameEntries(holder[g], i))
                ++g;
            if (g == holder.size())
                holder.push_back(i);
            pattern[i] = g;
        }
    }
};

/**
 * One ridge half-sweep: for every non-empty list i, solve
 * (F_i^T F_i + lambda I) x_i = F_i^T t_i into out's row i, where F_i
 * stacks the fixed factor rows of the list's entries and t_i their
 * targets.  The left-hand side depends only on the list's pattern, so
 * it is accumulated and factored once per pattern.  Every sum runs
 * over the list in ascending order from 0.0, as a per-list solve
 * would, so the result is bit-identical to one.
 */
template <class Target>
void
ridgeHalfSweep(const ObsLists &lists, const std::vector<double> &fixed,
               std::vector<double> &out, std::size_t k, double lambda,
               std::vector<double> &factors, Target target)
{
    std::size_t kk = k * k;
    factors.assign(lists.holder.size() * kk, 0.0);
    for (std::size_t g = 0; g < lists.holder.size(); ++g) {
        double *a = &factors[g * kk];
        std::size_t i = lists.holder[g];
        for (std::size_t e = lists.start[i]; e < lists.start[i + 1];
             ++e) {
            const double *f = &fixed[lists.other[e] * k];
            for (std::size_t p = 0; p < k; ++p)
                for (std::size_t q = 0; q <= p; ++q)
                    a[p * k + q] += f[p] * f[q];
        }
        for (std::size_t p = 0; p < k; ++p)
            a[p * k + p] += lambda;
        choleskyInPlace(a, k);
    }
    for (std::size_t i = 0; i < lists.pattern.size(); ++i) {
        if (lists.pattern[i] == noPattern)
            continue;
        double *x = &out[i * k];
        std::fill(x, x + k, 0.0);
        for (std::size_t e = lists.start[i]; e < lists.start[i + 1];
             ++e) {
            double t = target(i, e);
            const double *f = &fixed[lists.other[e] * k];
            for (std::size_t p = 0; p < k; ++p)
                x[p] += t * f[p];
        }
        substituteInPlace(&factors[lists.pattern[i] * kk], x, k);
    }
}

} // namespace

std::vector<double>
solveSpd(std::vector<double> a, std::vector<double> b, std::size_t k)
{
    psm_assert(a.size() == k * k && b.size() == k);
    choleskyInPlace(a.data(), k);
    substituteInPlace(a.data(), b.data(), k);
    return b;
}

AlsModel::AlsModel(const MaskedMatrix &data, AlsConfig config)
    : cfg(config)
{
    cfg.validate();
    n_rows = data.rows();
    n_cols = data.cols();
    psm_assert(n_rows > 0 && n_cols > 0);
    fit(data);
}

void
AlsModel::fit(const MaskedMatrix &data)
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

    // The observed cells, numbered in row-major order: their values,
    // the row lists (an entry's number is its cell number) and the
    // column lists (col_cell maps an entry to its cell number).
    std::size_t cells = data.observedCount();
    std::vector<double> value;
    value.reserve(cells);
    ObsLists rows, cols;
    rows.start.reserve(n_rows + 1);
    rows.start.push_back(0);
    rows.other.reserve(cells);
    cols.start.assign(n_cols + 1, 0);
    for (std::size_t r = 0; r < n_rows; ++r) {
        for (std::size_t c = 0; c < n_cols; ++c) {
            if (data.observed(r, c)) {
                value.push_back(data.at(r, c));
                rows.other.push_back(c);
                ++cols.start[c + 1];
            }
        }
        rows.start.push_back(rows.other.size());
    }
    std::partial_sum(cols.start.begin(), cols.start.end(),
                     cols.start.begin());
    cols.other.resize(cells);
    std::vector<std::size_t> col_cell(cells);
    std::vector<std::size_t> next(cols.start.begin(),
                                  cols.start.end() - 1);
    for (std::size_t r = 0; r < n_rows; ++r) {
        for (std::size_t e = rows.start[r]; e < rows.start[r + 1]; ++e) {
            std::size_t slot = next[rows.other[e]]++;
            cols.other[slot] = r;
            col_cell[slot] = e;
        }
    }
    rows.groupPatterns();
    cols.groupPatterns();

    // u_r . v_c of every observed cell, from the row-bias pass; the
    // column-bias pass reads it back (the factors do not move between
    // the two).
    std::vector<double> dot(cells);
    std::vector<double> factors;

    sweeps_run = cfg.iterations;
    for (std::size_t iter = 0; iter < sweeps_run; ++iter) {
        // Bias updates (closed form ridge estimates).
        for (std::size_t r = 0; r < n_rows; ++r) {
            if (rows.size(r) == 0)
                continue;
            double own = row_bias[r];
            double sum = 0.0;
            for (std::size_t e = rows.start[r]; e < rows.start[r + 1];
                 ++e) {
                std::size_t c = rows.other[e];
                double d = 0.0;
                for (std::size_t p = 0; p < k; ++p)
                    d += u[r * k + p] * v[c * k + p];
                dot[e] = d;
                sum += value[e] - (mu + own + col_bias[c] + d) + own;
            }
            row_bias[r] =
                sum / (static_cast<double>(rows.size(r)) + cfg.lambda);
        }
        for (std::size_t c = 0; c < n_cols; ++c) {
            if (cols.size(c) == 0)
                continue;
            double own = col_bias[c];
            double sum = 0.0;
            for (std::size_t e = cols.start[c]; e < cols.start[c + 1];
                 ++e) {
                std::size_t cell = col_cell[e];
                sum += value[cell] -
                       (mu + row_bias[cols.other[e]] + own + dot[cell]) +
                       own;
            }
            col_bias[c] =
                sum / (static_cast<double>(cols.size(c)) + cfg.lambda);
        }

        // Row factors: ridge regression against fixed column factors.
        ridgeHalfSweep(rows, v, u, k, cfg.lambda, factors,
                       [&](std::size_t r, std::size_t e) {
                           return value[e] - mu - row_bias[r] -
                                  col_bias[rows.other[e]];
                       });
        // Column factors symmetrically.
        ridgeHalfSweep(cols, u, v, k, cfg.lambda, factors,
                       [&](std::size_t c, std::size_t e) {
                           return value[col_cell[e]] - mu -
                                  row_bias[cols.other[e]] - col_bias[c];
                       });
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
