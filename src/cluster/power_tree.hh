/**
 * @file
 * The PowerTree: a cluster -> rack/PDU -> server power hierarchy with
 * per-level capacities, oversubscription and O(depth * fanout)
 * incremental re-resolution.
 *
 * The paper's cluster layer is a flat private cloud: one cap, split
 * across N servers in a single global pass.  Datacenters are not
 * flat — power flows through a tree of feeds, PDUs and rack
 * circuits, each level provisioned for less than the sum of its
 * children (oversubscription), and a cap or demand change in one
 * rack must not force a full re-plan of ten thousand servers.  The
 * nvPAX direction (PAPERS.md) is exactly this constrained
 * hierarchical allocation; FastCap's fairness objective gives the
 * per-level split rule.
 *
 * The tree here keeps, per node, a cached subtree demand summary and
 * an epoch that bumps whenever anything below it changes.  resolve()
 * walks top-down and prunes every subtree whose (budget, epoch) pair
 * matches its cache.  Locality comes from binding capacities: a
 * node pinned at its capacity hands its children the same budgets no
 * matter how the outside wobbles, so in the oversubscribed regime —
 * levels provisioned below peak, exactly when a hierarchy matters —
 * a leaf event re-resolves only the path from that leaf to the root
 * plus the pruned sibling checks along it: O(depth * fanout) node
 * visits instead of a global O(N) pass.  (An unconstrained
 * demand-proportional split renormalizes every share by
 * construction; nothing prunes, and the full walk is the correct
 * cost.)  Grants are deterministic pure functions of (caps,
 * demands) — path updates resum, never delta-adjust, ancestor
 * summaries — so incremental resolution is bit-identical to
 * rebuilding the tree from scratch.
 *
 * Split rule per interior node: water-filling proportional to child
 * subtree demand, clamped by child capacity, residual redistributed
 * over the unclamped children.  Uniform demands with no binding
 * child capacity split as one exact division (budget / fanout), so a
 * depth-1 tree over N uniform leaves reproduces the paper's flat
 * "Equal" share cap/N bit-for-bit.
 */

#ifndef PSM_CLUSTER_POWER_TREE_HH
#define PSM_CLUSTER_POWER_TREE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hh"

namespace psm::cluster
{

/** Shape and provisioning of the hierarchy. */
struct PowerTreeConfig
{
    /** Leaf count: one leaf per server. */
    int leaves = 10;
    /**
     * Levels of splitting below the root: 1 reproduces the paper's
     * flat cluster (root -> N servers), 3 models cluster -> PDU ->
     * rack -> server.
     */
    int depth = 1;
    /**
     * Interior fanout; 0 derives the smallest uniform fanout whose
     * depth-fold power covers the leaves.  Ranges that run out of
     * leaves produce thinner (or pass-through) interior nodes, so any
     * (leaves, depth, fanout) combination builds.
     */
    int fanout = 0;
    /** Per-leaf circuit capacity (<= 0: uncapped). */
    Watts leafCap = 0.0;
    /**
     * Oversubscription factor F >= 1: an interior node's capacity is
     * (sum of child capacities) / F, i.e. F = 1.2 provisions every
     * PDU for ~83% of the worst case its children could draw — the
     * industry practice nvPAX targets.  Uncapped children make the
     * parent uncapped.
     */
    double oversubscription = 1.0;
};

/** Monotonic work counters (the O(depth) evidence; replays publish
 * them as the `tree.*` telemetry counters). */
struct PowerTreeStats
{
    std::uint64_t resolves = 0;      ///< resolve() calls
    std::uint64_t nodeVisits = 0;    ///< splits actually recomputed
    std::uint64_t nodePrunes = 0;    ///< subtrees skipped via cache
    std::uint64_t grantChanges = 0;  ///< leaf grants that changed
};

/**
 * The hierarchy itself.  Leaves are indexed [0, leaves) in the same
 * order as the NodePool they feed; interior structure is contiguous
 * ranges of leaves (rack locality).
 */
class PowerTree
{
  public:
    explicit PowerTree(const PowerTreeConfig &config);

    std::size_t leafCount() const { return leaf_node.size(); }
    std::size_t nodeCount() const { return node_list.size(); }
    int depth() const { return cfg.depth; }
    int fanout() const { return cfg.fanout; }

    /** The dynamic cluster cap the root divides (peak shaving). */
    void setRootCap(Watts cap);

    /**
     * Update one leaf's demand weight.  O(depth * fanout): resums
     * the cached subtree summaries and bumps epochs along the
     * leaf -> root path only.
     */
    void setLeafDemand(std::size_t leaf, double demand);
    double leafDemand(std::size_t leaf) const;

    /**
     * Re-provision one leaf's circuit capacity (<= 0: uncapped).
     * O(depth * fanout): ancestor capacities are resummed along the
     * leaf -> root path only.
     */
    void setLeafCap(std::size_t leaf, Watts cap);

    /**
     * Re-resolve grants top-down, pruning every subtree whose
     * (budget, epoch) matches the cached resolution.
     * @return Number of leaf grants that changed value (their
     *         indices are in changedLeaves()).
     */
    std::size_t resolve();

    /** Leaves whose grant changed in the last resolve(), ascending. */
    const std::vector<std::size_t> &changedLeaves() const
    {
        return changed_leaves;
    }

    /** Current grant of one leaf (valid after resolve()). */
    Watts leafGrant(std::size_t leaf) const;

    /**
     * Validate the conservation invariant: at every node, the grants
     * handed to children sum to no more than the node's own grant,
     * and no grant exceeds its node's capacity.
     * @return true when the invariant holds within @p eps watts.
     */
    bool checkConservation(double eps = 1e-6,
                           std::string *why = nullptr) const;

    const PowerTreeStats &stats() const { return tree_stats; }

    /** Per-level rollup for benches and logs. */
    struct LevelSummary
    {
        int level = 0;          ///< 0 = root
        std::size_t nodes = 0;
        Watts capacity = 0.0;   ///< summed capacity (0 if any uncapped)
        Watts granted = 0.0;    ///< summed grants after last resolve
        double demand = 0.0;    ///< summed subtree demand
    };
    std::vector<LevelSummary> levelSummaries() const;

  private:
    struct Node
    {
        int parent = -1;
        int level = 0;
        int leafIx = -1;             ///< >= 0 for leaves
        std::vector<int> children;   ///< empty for leaves
        Watts cap = 0.0;             ///< capacity; <= 0 = uncapped
        Watts capSum = 0.0;          ///< sum of child caps (interior)
        int uncappedChildren = 0;    ///< children with cap <= 0
        double demand = 0.0;         ///< cached subtree demand
        std::uint64_t epoch = 0;     ///< bumped on any change below
        // Resolution cache: the (budget, epoch) the grants below
        // were last computed for.
        Watts lastBudget = -1.0;
        std::uint64_t lastEpoch = ~0ULL;
        Watts grant = 0.0;           ///< effective budget received
    };

    PowerTreeConfig cfg;
    std::vector<Node> node_list;
    std::vector<int> leaf_node;      ///< leaf index -> node index
    Watts root_cap = 0.0;
    std::vector<std::size_t> changed_leaves;
    PowerTreeStats tree_stats;

    // Per-level scratch for splitBudget: resolveNode only descends,
    // so a node iterating its level's scratch never races a child
    // using the next level's.  Avoids per-visit allocation.
    std::vector<std::vector<Watts>> level_grants;
    std::vector<std::vector<char>> level_active;

    int build(int level, std::size_t lo, std::size_t hi, int parent);
    void resolveNode(int ix, Watts budget);
    void splitBudget(const Node &n, Watts budget,
                     std::vector<Watts> &out);
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_POWER_TREE_HH
