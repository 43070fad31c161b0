/**
 * @file
 * The PowerTree: a cluster -> rack/PDU -> server power hierarchy with
 * per-level capacities and oversubscription, resolved from scratch
 * on every call.
 *
 * The paper's cluster layer is a flat private cloud: one cap, split
 * across N servers in a single global pass.  Datacenters are not
 * flat — power flows through a tree of feeds, PDUs and rack
 * circuits, each level provisioned for less than the sum of its
 * children (oversubscription).  The nvPAX direction (PAPERS.md) is
 * exactly this constrained hierarchical allocation; FastCap's
 * fairness objective gives the per-level split rule.
 *
 * resolve() recomputes the whole tree in two passes: one bottom-up
 * fold of capacities and demands, then one top-down split that
 * settles every child and records the leaves whose grant changed.
 * Every cap-trace interval moves the root cap and demand-aware
 * splitting moves every leaf's demand, so a full pass is what each
 * interval costs anyway; no resolution is cached.  Grants are pure
 * functions of (caps, demands, root cap), and the fold order is fixed
 * (children in child order), so a long-lived tree and one rebuilt
 * from the same inputs hand out bit-identical grants.
 *
 * Split rule per interior node: water-filling proportional to child
 * subtree demand, clamped by child capacity, residual redistributed
 * over the unclamped children.  Uniform demands with no binding
 * child capacity split as one exact division (budget / children), so
 * a depth-1 tree over N uniform leaves reproduces the paper's flat
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
     * rack -> server.  The interior fanout is the smallest f with
     * f^depth >= leaves; ranges that run out of leaves produce
     * thinner (or pass-through) interior nodes.
     */
    int depth = 1;
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

/** Monotonic work counters (replays publish them as the `tree.*`
 * telemetry counters). */
struct PowerTreeStats
{
    std::uint64_t resolves = 0;      ///< resolve() calls
    std::uint64_t nodeVisits = 0;    ///< node grants computed
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
    /** Interior fanout derived from (leaves, depth). */
    int fanout() const { return derived_fanout; }

    /** The dynamic cluster cap the root divides (peak shaving). */
    void setRootCap(Watts cap);

    /** Set one leaf's demand weight (takes effect at resolve()). */
    void setLeafDemand(std::size_t leaf, double demand);

    /** Re-provision one leaf's circuit capacity (<= 0: uncapped;
     * takes effect at resolve()). */
    void setLeafCap(std::size_t leaf, Watts cap);

    /**
     * Recompute every grant: fold capacities and demands bottom-up,
     * then split budgets top-down.
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

  private:
    struct Node
    {
        int leafIx = -1;             ///< >= 0 for leaves
        std::vector<int> children;   ///< empty for leaves
        /** Capacity (<= 0: uncapped); interior nodes refold it in
         * every resolve(). */
        Watts cap = 0.0;
        double demand = 0.0;         ///< subtree demand
        Watts grant = 0.0;           ///< effective budget received
    };

    PowerTreeConfig cfg;
    int derived_fanout = 1;
    /** Pre-order: every parent precedes its children. */
    std::vector<Node> node_list;
    std::vector<int> leaf_node;      ///< leaf index -> node index
    Watts root_cap = 0.0;
    std::vector<std::size_t> changed_leaves;
    PowerTreeStats tree_stats;

    // splitBudget scratch, reused across calls.
    std::vector<Watts> split_grants;
    std::vector<char> split_active;

    int build(int level, std::size_t lo, std::size_t hi);
    void splitBudget(const Node &n, Watts budget,
                     std::vector<Watts> &out);
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_POWER_TREE_HH
