/**
 * @file
 * Latency extension: response-time estimates for latency-critical
 * applications under power capping.
 *
 * The paper's evaluation uses throughput workloads, but its footnote
 * notes that all four requirements also apply to latency-critical
 * applications.  This module adds the missing observable: treat a
 * latency-critical application as a single-queue server whose service
 * rate is its (power-dependent) heartbeat rate, and derive mean and
 * tail response times under an offered request load — an M/M/1
 * approximation, which is the standard first-order model for
 * capacity-vs-latency trade-offs in capped servers.
 *
 * With it, a power allocation maps directly to a p99, so SLO
 * compliance under each policy can be evaluated (see bench_slo,
 * bench_arena and the SLO utility transform in core/utility_curve).
 */

#ifndef PSM_PERF_LATENCY_HH
#define PSM_PERF_LATENCY_HH

#include <limits>

#include "util/units.hh"

namespace psm::perf
{

/**
 * Queueing estimates for a service with rate @p mu (requests/s)
 * under offered load @p lambda (requests/s).
 *
 * The sentinel contract is uniform: every query returns `unstable`
 * (infinity) for any input outside the model's domain — an unstable
 * queue (lambda >= mu, mu == 0), negative rates, NaNs, or a
 * non-positive SLO — never an assertion.  Callers feeding measured
 * (possibly faulted) telemetry through the model can thus rank
 * allocations without pre-screening their inputs; infinity loses
 * every comparison, which is exactly the ranking an infeasible
 * operating point deserves.
 */
class LatencyModel
{
  public:
    /** Utilization rho = lambda / mu (`unstable` when mu == 0 or
     * either rate is negative/NaN). */
    static double utilization(double mu, double lambda);

    /**
     * Mean sojourn (queue + service) time in seconds: 1/(mu-lambda).
     * `unstable` when the queue is unstable (lambda >= mu) or either
     * rate is negative/NaN.
     */
    static double meanSojourn(double mu, double lambda);

    /**
     * Approximate 99th percentile sojourn time: the sojourn
     * distribution of M/M/1 is exponential with mean 1/(mu-lambda),
     * so p99 = ln(100) * mean.  `unstable` whenever meanSojourn is.
     */
    static double p99(double mu, double lambda);

    /**
     * Smallest service rate meeting a p99 SLO at load @p lambda:
     * mu = lambda + ln(100)/slo.  `unstable` when lambda is
     * negative/NaN or the SLO is not a positive time — no finite
     * rate meets a 0-second tail bound.
     */
    static double requiredRateForSlo(double lambda, double slo_p99);

    /** Sentinel for queries outside the model's domain. */
    static constexpr double unstable =
        std::numeric_limits<double>::infinity();
};

} // namespace psm::perf

#endif // PSM_PERF_LATENCY_HH
