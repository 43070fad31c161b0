/**
 * @file
 * Cluster-scale power management (Section IV-D, Fig. 12).
 *
 * A small private cloud of identical servers replays a dynamic
 * cluster-level power cap (peak shaving) under one of three
 * strategies:
 *
 *  - Equal(RAPL): the cluster manager splits the cap equally across
 *    servers; each server enforces its share with the Util-Unaware
 *    RAPL policy.  The paper's stand-in for today's state of the art
 *    (Dynamo-style).
 *  - Equal(Ours): equal split, but each server runs the full
 *    App+Res+ESD-Aware policy, using its battery only under very
 *    stringent caps.
 *  - Consolidation+Migration(no cap): the cluster manager powers only
 *    as many servers as the budget allows, packs applications onto
 *    them (two per server — one per socket) and leaves the powered
 *    servers uncapped.  More energy-proportional (fewer P_idle+P_cm
 *    lumps) but pays migration downtime and parks applications when
 *    slots run out.
 *
 * The default population is fully packed: mixes 1-10 of Table II,
 * one pair per server (one application per socket).  Consolidation
 * can then only shed a server by parking its pair — the
 * capacity-versus-power trade the paper's discussion turns on.
 */

#ifndef PSM_CLUSTER_CLUSTER_MANAGER_HH
#define PSM_CLUSTER_CLUSTER_MANAGER_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/manager.hh"
#include "core/telemetry.hh"
#include "esd/battery.hh"
#include "node_pool.hh"
#include "perf/workloads.hh"
#include "power_trace.hh"
#include "power_tree.hh"
#include "sim/server.hh"
#include "util/units.hh"

namespace psm::cluster
{

/** The three cluster strategies of Fig. 12b. */
enum class ClusterPolicy
{
    EqualRapl,
    EqualOurs,
    ConsolidationMigration,
};

/** Printable policy name matching the paper's legend. */
std::string clusterPolicyName(ClusterPolicy policy);

/**
 * How the cluster cap reaches the servers.
 *
 * Flat is the paper's private cloud: one global equal split per cap
 * value (the seed behaviour, byte-for-byte).  Tree routes every cap
 * through a PowerTree hierarchy — per-level capacities and
 * oversubscription, epoch-cached subtree summaries, and grants
 * pushed only to servers whose share actually changed.  A depth-1
 * tree over uniform demands computes the identical cap/N share, so
 * Flat is the degenerate case Tree generalizes.
 */
enum class Topology
{
    Flat,
    Tree,
};

/** Printable topology name. */
std::string topologyName(Topology topology);

/** Cluster configuration. */
struct ClusterConfig
{
    ClusterPolicy policy = ClusterPolicy::EqualOurs;
    int servers = 10;
    /** Per-server management template (policy field is overridden). */
    core::ManagerConfig manager;
    /**
     * CLI name (PolicyRegistry) of the per-server policy the managed
     * strategies run.  Equal(RAPL) always pins util-unaware — that IS
     * the strategy; Equal(Ours) and Consolidation+Migration resolve
     * this name, so the arena can race rival per-server allocators
     * under the same cluster-level cap replay.
     */
    std::string managedPolicy = "app-res-esd-aware";
    /** Battery attached per server for Equal(Ours). */
    esd::BatteryConfig esd;
    /**
     * Downtime an application pays when migrated: checkpointing and
     * shipping multi-gigabyte state across the rack network, then
     * re-warming (the feasibility cost the paper flags for
     * consolidation).
     */
    Tick migrationDowntime = toTicks(60.0);
    /** Latency from powering a server until it can run work. */
    Tick serverBootDelay = toTicks(60.0);
    /** Draw of a powered-down server (PSU trickle / BMC). */
    Watts offServerPower = 2.0;
    std::uint64_t seed = 11;

    /** Pool-level fault plan (node crashes); per-server faults go in
     * `manager.faults`. */
    util::FaultPlanConfig faults;

    /** Nodes per telemetry shard on the pool step path. */
    int shardSize = 64;

    /**
     * Seed the nodes' shared CF corpus from the workload library.
     * Turn off (with `manager.oracleUtilities`) for scale benches
     * that build thousands of managed nodes: an oracle control plane
     * needs no corpus, and skipping it also skips the server-average
     * curve each seeded node builds, without changing the cap-split
     * mechanics under test.
     */
    bool seedWorkloadCorpus = true;

    /**
     * Workload names to seed the shared CF corpus with instead of
     * the full batch library (empty keeps the historical default).
     * Typos used to abort deep inside the node build with a bare
     * "unknown workload" fatal; validate() now rejects them up front
     * with the valid-name list.
     */
    std::vector<std::string> corpusWorkloads;

    /**
     * Replace this many of each server's two default batch slots
     * (0, 1 or 2) with latency-critical services from the interactive
     * library in populateDefault(), rotating the library across
     * servers.  The services are open-ended (they hold their socket
     * for the whole replay) and their normalized performance is the
     * SLO-relative p99 attainment, so the cluster strategies trade
     * batch throughput against tail latency under the same cap trace.
     */
    int interactivePerServer = 0;

    ClusterConfig();

    /**
     * Check the configuration without aborting: servers >= 1,
     * managedPolicy resolves in the PolicyRegistry, every
     * corpusWorkloads name exists (perf::hasWorkload) and
     * interactivePerServer is in [0, 2].  On failure returns false
     * and, when @p error is non-null, fills it with a diagnostic that
     * lists the valid names — callers with user-supplied
     * configuration (CLI front ends, the serving layer) should call
     * this and surface the message instead of letting the constructor
     * fatal().
     */
    bool validate(std::string *error) const;

    // --- hierarchical topology (Topology::Tree only) -------------

    Topology topology = Topology::Flat;
    /** Tree levels below the root (1 = flat-equivalent). */
    int treeDepth = 1;
    /** Interior fanout; 0 derives ceil(servers^(1/depth)). */
    int treeFanout = 0;
    /** Interior oversubscription factor (>= 1; nvPAX's regime). */
    double oversubscription = 1.0;
    /** Per-server circuit capacity (<= 0: uncapped). */
    Watts leafCapacity = 0.0;
    /**
     * Water-fill each level on measured per-server demand (last
     * interval's average draw) instead of uniform weights.  Uniform
     * weights reproduce the flat equal split exactly; demand-aware
     * splitting is the FastCap-style fairness objective — servers
     * drawing more get proportionally more of the cap.
     */
    bool demandAwareSplit = false;
};

/** Outcome of one cap-trace replay. */
struct ClusterResult
{
    double aggregatePerf = 0.0;   ///< mean normalized app throughput
    Watts avgClusterPower = 0.0;  ///< time-averaged total draw
    Joules totalEnergy = 0.0;
    /** Normalized performance per average kilowatt — the paper's
     * "cluster power efficiency". */
    double perfPerKw = 0.0;
    /** Fraction of time the cluster exceeded its cap. */
    double capViolationFraction = 0.0;
    Tick duration = 0;
    std::size_t migrations = 0;   ///< consolidation only
    std::size_t parkedAppSteps = 0; ///< app-steps spent unplaced
    /** Spatial allocator invocations across every node's control
     * plane (managed replays only). */
    std::size_t allocatorCalls = 0;
    /** Wall-clock seconds those invocations cost, cluster-wide. */
    double allocatorSeconds = 0.0;

    // --- hierarchical replays (Topology::Tree only) --------------

    int treeDepth = 0;                 ///< 0 on flat replays
    std::size_t treeNodes = 0;         ///< tree nodes incl. interior
    std::uint64_t treeResolveVisits = 0; ///< splits recomputed
    std::uint64_t treeResolvePrunes = 0; ///< subtrees skipped
    /** E1 cap changes actually pushed to servers (grant changes). */
    std::uint64_t capPushes = 0;
    /** Per-interval conservation-check failures (must stay 0). */
    std::uint64_t conservationViolations = 0;
};

/**
 * The cluster: servers plus the logical application population.
 */
class ClusterManager
{
  public:
    explicit ClusterManager(ClusterConfig config = {});

    /**
     * Install the default population (mixes 1-5 paired plus five
     * singletons), with effectively infinite work per application so
     * throughput is steady-state.
     */
    void populateDefault();

    /** Number of logical applications installed. */
    std::size_t appCount() const { return ledger.size(); }

    /**
     * Replay a cluster cap trace and account performance and power.
     */
    ClusterResult replay(const PowerTrace &caps);

    /**
     * Estimated uncapped draw of the whole populated cluster, used
     * to size cap traces.
     */
    Watts uncappedDemandEstimate() const;

    /**
     * Cluster-scope telemetry: every node's control-plane bus folded
     * into one, plus the cluster driver's own counters (migrations,
     * parked app-steps).  Empty before replay().
     */
    core::Telemetry aggregateTelemetry() const;

  private:
    ClusterConfig cfg;

    /** One logical application whose beats survive migrations. */
    struct LogicalApp
    {
        perf::AppProfile profile;
        double uncappedRate = 0.0;
        double beats = 0.0;       ///< harvested from past placements
        int server = -1;          ///< current placement, -1 = parked
        int simAppId = -1;        ///< id inside the hosting server
        int homeServer = -1;      ///< placement under equal policies
        Tick resumeAt = 0;        ///< migration/boot downtime deadline
    };
    std::vector<LogicalApp> ledger;

    /** Server substrate: managed under the equal policies, raw under
     * consolidation (which never caps a powered server). */
    std::optional<NodePool> pool;

    /** Cluster-driver-level counters (migrations, parked steps). */
    core::Telemetry tel;

    // Consolidation: powered set, placement bookkeeping.
    std::vector<char> powered;
    std::size_t migration_count = 0;
    std::size_t parked_steps = 0;

    void buildNodes();
    ClusterResult replayEqual(const PowerTrace &caps);
    ClusterResult replayTree(const PowerTrace &caps);
    ClusterResult replayConsolidation(const PowerTrace &caps);

    /** Fold perf/power/violation accounting common to the managed
     * (equal and tree) replays into @p result. */
    void accountManagedReplay(ClusterResult &result) const;

    /** Estimated uncapped draw of a server hosting the given apps. */
    Watts serverDemand(const std::vector<std::size_t> &apps) const;

    /** Harvest beats from an app's current placement and remove it. */
    void unplace(std::size_t app_ix);

    /** Place an app on a powered server with a free socket. */
    void place(std::size_t app_ix, int server_ix, Tick now_downtime);
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_CLUSTER_MANAGER_HH
