#include "power_tree.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace psm::cluster
{

namespace
{

/** Smallest fanout f >= 1 with f^depth >= leaves. */
int
deriveFanout(int leaves, int depth)
{
    if (leaves <= 1)
        return 1;
    for (int f = 2;; ++f) {
        long long cover = 1;
        for (int d = 0; d < depth; ++d) {
            cover *= f;
            if (cover >= leaves)
                return f;
        }
    }
}

/** f^depth, saturating well past any sane leaf count. */
long long
coverage(int fanout, int depth)
{
    long long cover = 1;
    for (int d = 0; d < depth; ++d) {
        cover *= fanout;
        if (cover > (1LL << 40))
            return 1LL << 40;
    }
    return cover;
}

} // namespace

PowerTree::PowerTree(const PowerTreeConfig &config) : cfg(config)
{
    psm_assert(cfg.leaves >= 1);
    psm_assert(cfg.depth >= 1);
    psm_assert(cfg.oversubscription >= 1.0);
    if (cfg.fanout <= 0)
        cfg.fanout = deriveFanout(cfg.leaves, cfg.depth);
    psm_assert(coverage(cfg.fanout, cfg.depth) >= cfg.leaves);

    leaf_node.resize(static_cast<std::size_t>(cfg.leaves), -1);
    // Worst case one pass-through chain per leaf per level.
    node_list.reserve(static_cast<std::size_t>(cfg.leaves) *
                          static_cast<std::size_t>(cfg.depth) +
                      1);
    build(0, 0, static_cast<std::size_t>(cfg.leaves), -1);

    // Bottom-up capacity and demand summaries.  Children always have
    // higher indices than their parent (build() appends the parent
    // first), so a reverse index walk folds children before parents.
    for (std::size_t i = node_list.size(); i-- > 0;) {
        Node &n = node_list[i];
        if (n.leafIx >= 0)
            continue;
        n.capSum = 0.0;
        n.uncappedChildren = 0;
        n.demand = 0.0;
        for (int c : n.children) {
            const Node &child = node_list[static_cast<std::size_t>(c)];
            if (child.cap > 0.0)
                n.capSum += child.cap;
            else
                ++n.uncappedChildren;
            n.demand += child.demand;
        }
        n.cap = n.uncappedChildren > 0
                    ? 0.0
                    : n.capSum / cfg.oversubscription;
    }

    level_grants.resize(static_cast<std::size_t>(cfg.depth));
    level_active.resize(static_cast<std::size_t>(cfg.depth));
}

int
PowerTree::build(int level, std::size_t lo, std::size_t hi, int parent)
{
    auto ix = static_cast<int>(node_list.size());
    node_list.emplace_back();
    Node &n = node_list.back();
    n.parent = parent;
    n.level = level;
    if (level == cfg.depth) {
        psm_assert(hi - lo == 1);
        n.leafIx = static_cast<int>(lo);
        n.cap = cfg.leafCap;
        n.demand = 1.0; // uniform until setLeafDemand
        leaf_node[lo] = ix;
        return ix;
    }
    // Split [lo, hi) into up to `fanout` near-equal contiguous
    // chunks.  A chunk that is already a single leaf still descends
    // (as a pass-through chain) so every leaf sits at the same level.
    std::size_t span = hi - lo;
    auto chunks = std::min<std::size_t>(
        static_cast<std::size_t>(cfg.fanout), span);
    std::vector<int> children;
    children.reserve(chunks);
    std::size_t base = span / chunks;
    std::size_t extra = span % chunks;
    std::size_t at = lo;
    for (std::size_t c = 0; c < chunks; ++c) {
        std::size_t len = base + (c < extra ? 1 : 0);
        children.push_back(build(level + 1, at, at + len, ix));
        at += len;
    }
    psm_assert(at == hi);
    // `n` may be a dangling reference after the recursive appends.
    node_list[static_cast<std::size_t>(ix)].children =
        std::move(children);
    return ix;
}

void
PowerTree::setRootCap(Watts cap)
{
    root_cap = cap;
}

double
PowerTree::leafDemand(std::size_t leaf) const
{
    return node_list[static_cast<std::size_t>(leaf_node.at(leaf))]
        .demand;
}

void
PowerTree::setLeafDemand(std::size_t leaf, double demand)
{
    int ix = leaf_node.at(leaf);
    node_list[static_cast<std::size_t>(ix)].demand = demand;
    ++node_list[static_cast<std::size_t>(ix)].epoch;
    // Resum each ancestor over its children in child order — the same
    // fold the constructor runs — rather than delta-adjusting.  Float
    // addition is not associative, so `sum += new - old` drifts by
    // ulps from a fresh bottom-up fold and incremental resolution
    // would stop being bit-identical to a rebuilt tree.  Still
    // O(depth * fanout).  Epochs bump along the whole path even on a
    // no-op update: a re-asserted demand is cheap to revisit and
    // keeps "epoch changed iff anything below might have"
    // conservative.
    for (int i = node_list[static_cast<std::size_t>(ix)].parent;
         i >= 0; i = node_list[static_cast<std::size_t>(i)].parent) {
        Node &n = node_list[static_cast<std::size_t>(i)];
        n.demand = 0.0;
        for (int c : n.children)
            n.demand += node_list[static_cast<std::size_t>(c)].demand;
        ++n.epoch;
    }
}

void
PowerTree::setLeafCap(std::size_t leaf, Watts cap)
{
    int ix = leaf_node.at(leaf);
    node_list[static_cast<std::size_t>(ix)].cap = cap;
    ++node_list[static_cast<std::size_t>(ix)].epoch;
    // Resum, as in setLeafDemand(): delta-adjusted capacity sums
    // would drift by ulps from the constructor's fold.
    for (int i = node_list[static_cast<std::size_t>(ix)].parent;
         i >= 0; i = node_list[static_cast<std::size_t>(i)].parent) {
        Node &n = node_list[static_cast<std::size_t>(i)];
        n.capSum = 0.0;
        n.uncappedChildren = 0;
        for (int c : n.children) {
            const Node &child = node_list[static_cast<std::size_t>(c)];
            if (child.cap > 0.0)
                n.capSum += child.cap;
            else
                ++n.uncappedChildren;
        }
        n.cap = n.uncappedChildren > 0
                    ? 0.0
                    : n.capSum / cfg.oversubscription;
        ++n.epoch;
    }
}

Watts
PowerTree::leafGrant(std::size_t leaf) const
{
    return node_list[static_cast<std::size_t>(leaf_node.at(leaf))]
        .grant;
}

std::size_t
PowerTree::resolve()
{
    ++tree_stats.resolves;
    changed_leaves.clear();
    resolveNode(0, root_cap);
    return changed_leaves.size();
}

void
PowerTree::resolveNode(int ix, Watts budget)
{
    Node &n = node_list[static_cast<std::size_t>(ix)];
    Watts effective = (n.cap > 0.0 && n.cap < budget) ? n.cap : budget;
    if (effective < 0.0)
        effective = 0.0;
    if (effective == n.lastBudget && n.epoch == n.lastEpoch) {
        ++tree_stats.nodePrunes;
        return;
    }
    ++tree_stats.nodeVisits;
    n.lastBudget = effective;
    n.lastEpoch = n.epoch;
    if (n.leafIx >= 0) {
        if (n.grant != effective) {
            n.grant = effective;
            ++tree_stats.grantChanges;
            changed_leaves.push_back(
                static_cast<std::size_t>(n.leafIx));
        }
        return;
    }
    n.grant = effective;
    std::vector<Watts> &grants =
        level_grants[static_cast<std::size_t>(n.level)];
    splitBudget(n, effective, grants);
    for (std::size_t c = 0; c < n.children.size(); ++c)
        resolveNode(n.children[c], grants[c]);
}

void
PowerTree::splitBudget(const Node &n, Watts budget,
                       std::vector<Watts> &out)
{
    std::size_t nc = n.children.size();
    out.assign(nc, 0.0);
    if (budget <= 0.0)
        return;

    const auto child = [&](std::size_t c) -> const Node & {
        return node_list[static_cast<std::size_t>(n.children[c])];
    };

    // Fast path: uniform demand, no binding child capacity — one
    // exact division, so a balanced uniform tree reproduces the flat
    // Equal split (cap / N at depth 1) bit-for-bit.
    bool uniform = true;
    double d0 = child(0).demand;
    for (std::size_t c = 1; c < nc && uniform; ++c)
        uniform = child(c).demand == d0;
    if (uniform) {
        Watts share = budget / static_cast<double>(nc);
        bool cap_binds = false;
        for (std::size_t c = 0; c < nc && !cap_binds; ++c)
            cap_binds = child(c).cap > 0.0 && child(c).cap < share;
        if (!cap_binds) {
            out.assign(nc, share);
            return;
        }
    }

    // Water-fill: proposals proportional to subtree demand; children
    // whose capacity binds are granted their capacity and removed,
    // the residual re-filled over the rest.  At most nc rounds.
    std::vector<char> &active =
        level_active[static_cast<std::size_t>(n.level)];
    active.assign(nc, 1);
    std::size_t active_count = nc;
    Watts remaining = budget;
    while (active_count > 0 && remaining > 0.0) {
        double dsum = 0.0;
        for (std::size_t c = 0; c < nc; ++c) {
            if (active[c])
                dsum += std::max(0.0, child(c).demand);
        }
        bool clamped = false;
        for (std::size_t c = 0; c < nc; ++c) {
            if (!active[c])
                continue;
            Watts share =
                dsum > 0.0
                    ? remaining * (std::max(0.0, child(c).demand) /
                                   dsum)
                    : remaining / static_cast<double>(active_count);
            Watts cap = child(c).cap;
            if (cap > 0.0 && share > cap) {
                out[c] = cap;
                active[c] = 0;
                clamped = true;
            } else {
                out[c] = share;
            }
        }
        if (!clamped)
            return;
        // Recount and deduct the clamped grants against the budget.
        active_count = 0;
        remaining = budget;
        for (std::size_t c = 0; c < nc; ++c) {
            if (active[c])
                ++active_count;
            else
                remaining -= out[c];
        }
        if (remaining < 0.0)
            remaining = 0.0;
        // Unclamped proposals from this round are stale; zero them so
        // an early exit (remaining == 0) grants nothing extra.
        for (std::size_t c = 0; c < nc; ++c) {
            if (active[c])
                out[c] = 0.0;
        }
    }
}

bool
PowerTree::checkConservation(double eps, std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    for (std::size_t i = 0; i < node_list.size(); ++i) {
        const Node &n = node_list[i];
        if (n.cap > 0.0 && n.grant > n.cap + eps) {
            std::ostringstream os;
            os << "node " << i << " grant " << n.grant
               << " exceeds capacity " << n.cap;
            return fail(os.str());
        }
        if (n.children.empty())
            continue;
        Watts granted = 0.0;
        for (int c : n.children)
            granted += node_list[static_cast<std::size_t>(c)].grant;
        if (granted > n.grant + eps) {
            std::ostringstream os;
            os << "node " << i << " children granted " << granted
               << " over its own grant " << n.grant;
            return fail(os.str());
        }
    }
    if (!node_list.empty() &&
        node_list[0].grant > std::max(root_cap, 0.0) + eps) {
        std::ostringstream os;
        os << "root grant " << node_list[0].grant
           << " exceeds root cap " << root_cap;
        return fail(os.str());
    }
    return true;
}

std::vector<PowerTree::LevelSummary>
PowerTree::levelSummaries() const
{
    std::vector<LevelSummary> levels(
        static_cast<std::size_t>(cfg.depth) + 1);
    for (std::size_t l = 0; l < levels.size(); ++l)
        levels[l].level = static_cast<int>(l);
    for (const Node &n : node_list) {
        LevelSummary &s = levels[static_cast<std::size_t>(n.level)];
        ++s.nodes;
        if (n.cap > 0.0)
            s.capacity += n.cap;
        s.granted += n.grant;
        s.demand += n.demand;
    }
    return levels;
}

} // namespace psm::cluster
