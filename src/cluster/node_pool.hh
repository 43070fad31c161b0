/**
 * @file
 * The NodePool: the shared server substrate of the cluster layer.
 *
 * Both cluster drivers — the cap-trace replayer (ClusterManager) and
 * the job scheduler (ClusterScheduler) — need the same thing: N
 * identical simulated servers, each optionally wrapped in the
 * per-server control plane (ServerManager) with a deterministic
 * per-node seed.  The managed nodes share one CF corpus, profiled
 * from the workload library once per pool.  The pool builds them
 * once, uniformly, and offers cluster-scope rollups (total energy,
 * merged telemetry) over whatever the drivers did.
 */

#ifndef PSM_CLUSTER_NODE_POOL_HH
#define PSM_CLUSTER_NODE_POOL_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/manager.hh"
#include "core/telemetry.hh"
#include "esd/battery.hh"
#include "sim/server.hh"
#include "util/fault.hh"
#include "util/units.hh"

namespace psm::cluster
{

/** How to build each node of the pool. */
struct NodePoolConfig
{
    int servers = 1;
    /**
     * Wrap each server in a ServerManager (the per-server control
     * plane).  Raw pools (no manager) serve the consolidation
     * baseline, which never caps a powered server.
     */
    bool managed = true;
    /** Per-server manager template; node s runs with
     * seed = seedBase + s. */
    core::ManagerConfig manager;
    std::uint64_t seedBase = 0;
    /** Battery attached to every server when set. */
    std::optional<esd::BatteryConfig> esd;
    /** Initial per-server cap (<= 0 leaves the server uncapped). */
    Watts serverCap = 0.0;
    /** Profile one CF corpus from the workload library and share it
     * with every manager. */
    bool seedWorkloadCorpus = true;
    /**
     * Workload names to seed the corpus with instead of the full
     * batch library (only consulted when seedWorkloadCorpus is set;
     * empty keeps the historical full-library corpus bit-for-bit).
     * Names may come from either class — listing interactive services
     * lets CF estimate a newly arrived service from previously seen
     * ones.  Callers should pre-validate with perf::hasWorkload (see
     * ClusterConfig::validate); an unknown name here is programmer
     * error and fatal()s with the valid-name list.
     */
    std::vector<std::string> corpusWorkloads;
    /**
     * Pool-level fault plan: only the node-crash rate and NodeCrash
     * schedule entries (target = node index) are consulted here;
     * per-server faults belong in `manager.faults`.  `faults.seed ==
     * 0` derives the roll seed from `seedBase`.  NodeCrash rolls are
     * keyed on the node's 1-based runAll() attempt counter (a crashed
     * node's sim clock freezes), so schedule windows for NodeCrash are
     * expressed in attempt numbers, not sim ticks.
     */
    util::FaultPlanConfig faults;

    /**
     * Nodes per telemetry shard on the step path.  runAll() walks the
     * pool in contiguous per-shard batches, each publishing into its
     * own private sink, merged in shard order after the join.  The
     * partition depends only on this value (never on PSM_THREADS), and
     * shard-local publishes are commutative counter/timer aggregates,
     * so any shard size is bit-identical to `shardSize = 1` (the
     * historical one-shard-per-node layout) at any thread count.
     * Batching matters at scale: 10k nodes at the default shard size
     * build ~160 shard sinks per interval instead of 10k.
     */
    int shardSize = 64;
};

/**
 * N uniformly built servers (optionally managed).
 */
class NodePool
{
  public:
    /** One server and (when managed) its control plane. */
    struct Node
    {
        std::unique_ptr<sim::Server> server;
        std::unique_ptr<core::ServerManager> manager; ///< null if raw

        // Crash-isolation bookkeeping (driver-side state, not
        // simulated hardware): a crashed node sits out intervals
        // with exponential backoff, then rejoins.
        int crashStreak = 0;        ///< consecutive faulted runs
        int cooldown = 0;           ///< intervals left to sit out
        std::uint64_t attempts = 0; ///< runAll() attempts (roll salt)
    };

    explicit NodePool(const NodePoolConfig &config);

    std::size_t size() const { return node_list.size(); }
    Node &operator[](std::size_t ix) { return node_list[ix]; }
    const Node &operator[](std::size_t ix) const
    {
        return node_list[ix];
    }

    std::vector<Node>::iterator begin() { return node_list.begin(); }
    std::vector<Node>::iterator end() { return node_list.end(); }
    std::vector<Node>::const_iterator begin() const
    {
        return node_list.begin();
    }
    std::vector<Node>::const_iterator end() const
    {
        return node_list.end();
    }

    /**
     * Step every managed node forward by @p duration, in parallel on
     * the global thread pool in contiguous per-shard batches (see
     * NodePoolConfig::shardSize).  Nodes are fully independent within
     * an interval (own server, manager, rng and telemetry bus) and no
     * lock is taken on the step path, so the result is bit-identical
     * to stepping them serially regardless of PSM_THREADS.
     *
     * @param driver_tel Optional driver bus: receives one
     *        "cluster.node_step" wall-clock observation per node
     *        (published race-free via per-shard telemetry sinks and
     *        merged in shard order — node order — via the dense
     *        O(#events) trace fold) plus one "cluster.step"
     *        observation for the whole interval.
     */
    void runAll(Tick duration, core::Telemetry *driver_tel = nullptr);

    /** Sum of every node's metered energy. */
    Joules totalEnergy() const;

    /**
     * Cluster-scope telemetry: every managed node's bus folded into
     * one (counters and timers add up, decision records append),
     * plus the pool's own isolation counters when no driver bus
     * collected them.
     */
    core::Telemetry aggregateTelemetry() const;

    /** Cluster-wide fold of one timer across the pool bus and every
     * managed node — cheaper than folding whole buses when a driver
     * only wants a single rollup: O(nodes) dense array reads. */
    core::TimerStat aggregateTimer(trace::EventId id) const;

    /**
     * Fold the pool bus plus every managed node's registered
     * aggregates into one dense trace sink — O(nodes × #events).
     * The serving layer builds its STATS snapshot from this.
     */
    void foldTrace(trace::TraceSink &out) const;

    /** Read-only per-node view for external observers (the serving
     * layer's telemetry path reads this instead of walking live
     * control-plane objects). */
    struct NodeSnapshot
    {
        Tick now = 0;
        Watts cap = 0.0;
        int activeApps = 0;
        int freeSockets = 0;
        std::uint64_t reallocations = 0; ///< allocator passes so far
        std::uint64_t events = 0;        ///< E1-E4 seen by the loop
        Joules energy = 0.0;             ///< metered total energy
    };

    /** Snapshot every node (managed or raw) in index order. */
    std::vector<NodeSnapshot> snapshot() const;

    /** The pool's fault oracle (node-crash rolls). */
    const util::FaultInjector &faultInjector() const
    {
        return fault_injector;
    }

  private:
    std::vector<Node> node_list;
    util::FaultInjector fault_injector;
    std::size_t shard_size;
    /** Shard sink when runAll is called without a driver bus. */
    core::Telemetry pool_tel;

    void isolate(Node &node, core::Telemetry &shard,
                 trace::EventId fault_counter);
    void stepNode(std::size_t ix, Tick duration,
                  core::Telemetry &shard);
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_NODE_POOL_HH
