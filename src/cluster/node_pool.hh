/**
 * @file
 * The NodePool: the shared server substrate of the cluster layer.
 *
 * Both cluster drivers — the cap-trace replayer (ClusterManager) and
 * the job scheduler (ClusterScheduler) — need the same thing: N
 * identical simulated servers, each optionally wrapped in the
 * per-server control plane (ServerManager) with a deterministic
 * per-node seed.  The managed nodes share one CF corpus, profiled
 * from the workload library once per pool, and the server-average
 * curve built from it; each node holds only the state it owns.  The
 * pool builds them once, uniformly, and offers cluster-scope rollups
 * (total energy, merged telemetry) over whatever the drivers did.
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
     * plane), seeded with one CF corpus profiled from the workload
     * library and shared by every manager.  Raw pools (no manager)
     * serve the consolidation baseline, which never caps a powered
     * server.
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
     * the global thread pool.  Nodes are fully independent within an
     * interval (own server, manager, rng and telemetry bus): each
     * node publishes its "cluster.node_step" observation and its
     * crash-isolation counters into its own manager's bus, and the
     * pool's bus takes one "cluster.step" observation per call.  No
     * bus is shared across threads and no lock is taken on the step
     * path, so the result is bit-identical to stepping the nodes
     * serially regardless of PSM_THREADS.
     */
    void runAll(Tick duration);

    /** Sum of every node's metered energy. */
    Joules totalEnergy() const;

    /**
     * Cluster-scope telemetry: the pool's bus and every managed
     * node's bus folded into one in node order (counters and timers
     * add up) — O(nodes × #events).  Decision records stay on each
     * node's bus (`pool[i].manager->telemetry().decisions()`); the
     * rollup holds none.  The serving layer's STATS snapshot reads
     * this fold.
     */
    core::Telemetry aggregateTelemetry() const;

    /** The pool's fault oracle (node-crash rolls). */
    const util::FaultInjector &faultInjector() const
    {
        return fault_injector;
    }

  private:
    std::vector<Node> node_list;
    util::FaultInjector fault_injector;
    /** "cluster.step": one observation per runAll() call. */
    core::Telemetry pool_tel;

    void stepNode(std::size_t ix, Tick duration);
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_NODE_POOL_HH
