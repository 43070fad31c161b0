/**
 * @file
 * Open-loop request queue for interactive (latency-critical)
 * applications.
 *
 * The paper's evaluation covers throughput batch apps; CuttleSys's
 * regime — request servers whose p99 must survive a shared power cap —
 * needs an arrival process the allocator cannot slow down.  This
 * module simulates exactly that: a seeded Poisson arrival stream, a
 * FIFO single-server queue whose service rate is the application's
 * (power-dependent, warmup-scaled) heartbeat rate divided by the mean
 * request cost, and exponential per-request work draws — so at a fixed
 * knob setting the queue is M/M/1 and perf::LatencyModel is its
 * closed-form cross-check (bench_slo --check enforces the agreement at
 * low utilization).
 *
 * Memory: the queue holds O(1) state whatever its backlog.  Every
 * queued request except the head is an untouched draw from one seeded
 * stream (gap 0, work 0, gap 1, work 1, ...), so two cursors over that
 * stream stand in for a stored FIFO: the arrival cursor fires arrivals
 * (and discards each work draw to keep its gaps aligned), and the head
 * cursor, seeded identically, replays the stream at the head of the
 * line, loading request k once — when request k-1 completes, or when k
 * arrives to an empty queue.  Both cursors sum the same gaps in the
 * same order, so the head's arrival time is bit-identical to the
 * arrival cursor's.
 *
 * Determinism: draws are consumed in stream order, arrivals are
 * tick-quantized, and service is integrated in continuous time between
 * arrival ticks.  Identical step sequences (which NodePool guarantees
 * at any PSM_THREADS width) therefore reproduce response times
 * bit-for-bit.
 */

#ifndef PSM_SIM_REQUEST_QUEUE_HH
#define PSM_SIM_REQUEST_QUEUE_HH

#include <cstdint>

#include "perf/app_profile.hh"
#include "util/stats.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace psm::sim
{

/**
 * Per-application open-loop queue: Poisson arrivals at the profile's
 * offered load, exponential service demands with mean hbPerRequest
 * heartbeats, FIFO service at whatever heartbeat rate each simulation
 * step delivers.
 */
class RequestQueue
{
  public:
    /**
     * @param profile An interactive profile (fatal()s otherwise).
     * @param seed Seed for the arrival/service draw stream.
     */
    RequestQueue(const perf::AppProfile &profile, std::uint64_t seed);

    /**
     * Advance the queue over [from, to) while the server earns
     * heartbeats at @p hb_rate (the step's operating-point rate times
     * any warmup factor).  Fires the arrivals falling inside the
     * window and serves the queue FIFO between them; a non-positive
     * rate stalls service but not arrivals.
     */
    void advance(Tick from, Tick to, double hb_rate);

    // --- Statistics -------------------------------------------------

    std::uint64_t arrivals() const { return arrived; }
    std::uint64_t completed() const { return done; }
    std::uint64_t sloViolations() const { return violations; }

    /** Observed 99th-percentile response time in seconds (0 until a
     * request completes). */
    double p99() const { return response_hist.percentile(99.0); }

    /** Mean response time over completed requests in seconds. */
    double meanResponse() const
    {
        return done > 0 ? response_sum / static_cast<double>(done) : 0.0;
    }

    /** Requests currently queued or in service. */
    std::size_t depth() const
    {
        return static_cast<std::size_t>(arrived - done);
    }

    /** The profile's p99 SLO in seconds. */
    double slo() const { return slo_p99; }

    /** The response-time histogram (seconds). */
    const Histogram &responseTimes() const { return response_hist; }

  private:
    /** Serve the FIFO over [t0, t1) at a constant heartbeat rate. */
    void serve(Tick t0, Tick t1, double hb_rate);

    /** Record the arrival at next_arrival_s and draw the next gap. */
    void onArrival();

    /** Replay the next request's gap and work draws into the head. */
    void loadHead();

    double offered_load;  ///< lambda, requests per second
    double hb_per_request;
    double slo_p99;

    Rng arrival_rng;      ///< arrival cursor over the draw stream
    Rng head_rng;         ///< head cursor: the same stream, replayed
    double next_arrival_s = 0.0;
    double head_arrival_s = 0.0; ///< continuous arrival of the head
    double head_work_hb = 0.0;   ///< the head's remaining service demand
    double served_until_s = 0.0;

    std::uint64_t arrived = 0;
    std::uint64_t done = 0;
    std::uint64_t violations = 0;
    double response_sum = 0.0;
    Histogram response_hist;
};

} // namespace psm::sim

#endif // PSM_SIM_REQUEST_QUEUE_HH
