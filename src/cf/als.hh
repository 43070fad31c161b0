/**
 * @file
 * Low-rank matrix completion by alternating least squares (ALS) —
 * the collaborative filtering engine the paper implements in R.
 *
 * The model is the classic biased factorization used in recommender
 * systems:
 *
 *     x_rc ~ mu + b_r + d_c + u_r . v_c
 *
 * with global mean mu, per-application bias b, per-knob-setting bias
 * d, and rank-k latent factors u, v.  Training minimizes squared
 * error over the *observed* cells plus L2 regularization; prediction
 * fills every cell.  This works here for the same reason it works for
 * movie ratings: applications' responses to knob settings are highly
 * correlated (a few latent "resource sensitivity" dimensions explain
 * most of the variance), so a new application's full utility surface
 * can be recovered from a sparse sample plus the corpus of previously
 * profiled applications.
 */

#ifndef PSM_CF_ALS_HH
#define PSM_CF_ALS_HH

#include <cstddef>
#include <vector>

#include "matrix.hh"

namespace psm::cf
{

/** Hyper-parameters for the ALS solver. */
struct AlsConfig
{
    std::size_t rank = 3;      ///< latent dimensionality k
    double lambda = 0.10;      ///< L2 regularization strength
    std::size_t iterations = 25; ///< alternating sweeps
    unsigned seed = 1234;      ///< factor initialization seed
    /**
     * Sweeps when refitting from a warm start (previous factors of
     * the same app/corpus with a grown sample set): the factors begin
     * near the optimum, so far fewer alternations reach it.
     */
    std::size_t warmIterations = 8;

    /** Validate ranges; calls fatal() on nonsense. */
    void validate() const;
};

/**
 * Converged factors exported from a previous fit, used to initialize
 * a refit of the same (corpus + app) matrix when only the observation
 * mask grew.  Dimensions must match the new matrix exactly.
 */
struct AlsWarmStart
{
    std::vector<double> rowBias;
    std::vector<double> colBias;
    std::vector<double> u; ///< rows x rank, row-major
    std::vector<double> v; ///< cols x rank, row-major

    bool
    matches(std::size_t rows, std::size_t cols, std::size_t rank) const
    {
        return rowBias.size() == rows && colBias.size() == cols &&
               u.size() == rows * rank && v.size() == cols * rank;
    }
};

/**
 * Solve a symmetric positive definite k x k system A x = b in place
 * via Cholesky decomposition.  Exposed for testing.
 *
 * @return The solution vector.
 */
std::vector<double> solveSpd(std::vector<double> a,
                             std::vector<double> b, std::size_t k);

/**
 * Trained factorization model; predicts any cell.
 */
class AlsModel
{
  public:
    /**
     * Fit the model to the observed cells of @p data.
     *
     * @param warm Optional factors from a previous fit of the same
     *        matrix shape; when they match, initialization is taken
     *        from them (instead of the seeded random draw) and only
     *        config.warmIterations sweeps run.
     */
    AlsModel(const MaskedMatrix &data, AlsConfig config = {},
             const AlsWarmStart *warm = nullptr);

    /** Export the fitted factors for warm-starting a later refit. */
    AlsWarmStart warmStart() const;

    /** Sweeps actually run by the fit (warm fits run fewer). */
    std::size_t sweepsRun() const { return sweeps_run; }

    /** Predicted value of cell (r, c), clamped to the observed range. */
    double predict(std::size_t r, std::size_t c) const;

    /**
     * Complete matrix: observed cells keep their measured values,
     * unobserved cells are predictions.
     */
    Matrix complete(const MaskedMatrix &data) const;

    /** RMSE over the observed (training) cells. */
    double trainRmse(const MaskedMatrix &data) const;

    std::size_t rank() const { return cfg.rank; }

  private:
    AlsConfig cfg;
    std::size_t n_rows = 0;
    std::size_t n_cols = 0;
    double mu = 0.0;
    double clamp_lo = 0.0;
    double clamp_hi = 0.0;
    std::vector<double> row_bias;
    std::vector<double> col_bias;
    std::vector<double> u; ///< n_rows x rank, row-major
    std::vector<double> v; ///< n_cols x rank, row-major
    std::size_t sweeps_run = 0;

    double rawPredict(std::size_t r, std::size_t c) const;
    void fit(const MaskedMatrix &data, const AlsWarmStart *warm);
};

} // namespace psm::cf

#endif // PSM_CF_ALS_HH
