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

    /** Validate ranges; calls fatal() on nonsense. */
    void validate() const;
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
    /** Fit the model to the observed cells of @p data. */
    AlsModel(const MaskedMatrix &data, AlsConfig config = {});

    /** Sweeps the fit ran (0 when @p data had no observed cell). */
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
    void fit(const MaskedMatrix &data);
};

} // namespace psm::cf

#endif // PSM_CF_ALS_HH
