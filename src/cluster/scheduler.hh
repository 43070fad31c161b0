/**
 * @file
 * Cluster job scheduling integrated with per-server power management
 * — the paper's first "further research" direction (Section VI):
 * "integration with cluster/datacenter level scheduling and job
 * allocation mechanisms to individual servers".
 *
 * A stream of finite jobs is placed onto a cluster of power-capped,
 * framework-managed servers as sockets free up.  Two placement
 * policies are provided:
 *
 *  - FirstFit: the classic power-oblivious scheduler — lowest-index
 *    server with a free socket.
 *  - PowerHeadroom: power-struggle-aware — place where the gap
 *    between the server's cap and its observed draw is largest, so a
 *    new arrival causes the smallest struggle with the incumbent.
 *
 * The interesting metric is job completion time: a job placed onto a
 * server with no headroom must split a tight budget with its
 * neighbour, while the same job elsewhere runs unthrottled.
 */

#ifndef PSM_CLUSTER_SCHEDULER_HH
#define PSM_CLUSTER_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "core/manager.hh"
#include "core/telemetry.hh"
#include "node_pool.hh"
#include "perf/app_profile.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace psm::cluster
{

/** Placement policies for arriving jobs. */
enum class PlacementPolicy
{
    FirstFit,      ///< first server with a free socket
    PowerHeadroom, ///< most cap-minus-draw headroom
};

/** Printable placement policy name. */
std::string placementPolicyName(PlacementPolicy policy);

/** One finite job submitted to the cluster. */
struct Job
{
    perf::AppProfile profile;
    Tick arrival = 0;

    // Filled in by the scheduler.
    Tick started = maxTick;
    Tick finished = maxTick;
    int server = -1;

    bool done() const { return finished != maxTick; }

    /** Queueing + execution time; maxTick while unfinished. */
    Tick completionTime() const
    {
        return done() ? finished - arrival : maxTick;
    }
};

/** Scheduler configuration. */
struct SchedulerConfig
{
    int servers = 4;
    /** Per-server power cap (the cluster cap split equally). */
    Watts serverCap = 95.0;
    PlacementPolicy placement = PlacementPolicy::PowerHeadroom;
    core::ManagerConfig manager;
    std::uint64_t seed = 31;
};

/**
 * The job-level cluster scheduler over framework-managed servers.
 */
class ClusterScheduler
{
  public:
    explicit ClusterScheduler(SchedulerConfig config = {});

    /** Submit a job (arrival must be >= any previous arrival). */
    void submit(Job job);

    /**
     * Generate a reproducible synthetic job stream: @p count jobs
     * drawn from the workload library, exponential inter-arrivals
     * with the given mean, each sized to roughly @p mean_seconds of
     * uncapped runtime.
     *
     * @param interactive_fraction Probability that a job is drawn
     *        from the interactive library instead.  Interactive jobs
     *        are open-ended services — they hold their socket for the
     *        rest of the run and never appear in completion-time
     *        statistics; what they add is the power struggle batch
     *        jobs must complete under.  0 (the default) reproduces
     *        the historical all-batch stream bit-for-bit.
     */
    void generateWorkload(std::size_t count,
                          double mean_interarrival_s,
                          double mean_seconds,
                          double interactive_fraction = 0.0);

    /**
     * Run until every submitted job finishes or @p horizon elapses.
     */
    void run(Tick horizon);

    const std::vector<Job> &jobs() const { return job_list; }
    std::size_t unfinished() const;

    /** Mean completion (queue + run) time of finished jobs. */
    double meanCompletionSeconds() const;
    /** 95th percentile completion time of finished jobs. */
    double p95CompletionSeconds() const;
    /** Time-averaged total cluster draw. */
    Watts averageClusterPower() const;
    Tick now() const { return clock; }

    /**
     * Cluster-scope telemetry: every node's control-plane counters
     * and timers plus the scheduler's own placement counters, folded
     * into one.  Decision records stay on each node's bus; the
     * rollup holds none.
     */
    core::Telemetry aggregateTelemetry() const;

  private:
    SchedulerConfig cfg;
    Rng rng;
    Tick clock = 0;

    /** The shared server substrate (one manager per node). */
    NodePool pool;
    /** Scheduler-level counters (placements, retargets, queueing). */
    core::Telemetry tel;
    /** Per node: jobs it is hosting, as (job index, app id). */
    std::vector<std::vector<std::pair<std::size_t, int>>> placed;
    std::vector<Job> job_list;
    std::vector<std::size_t> queue; ///< waiting job indices, FIFO

    int pickServer() const;
    void placeWaitingJobs();
    void harvestFinished();
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_SCHEDULER_HH
