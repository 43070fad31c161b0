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

/** @p budget clamped by capacity @p cap (<= 0: uncapped), never
 * negative. */
Watts
effectiveBudget(Watts cap, Watts budget)
{
    Watts effective = (cap > 0.0 && cap < budget) ? cap : budget;
    return effective < 0.0 ? 0.0 : effective;
}

} // namespace

PowerTree::PowerTree(const PowerTreeConfig &config) : cfg(config)
{
    psm_assert(cfg.leaves >= 1);
    psm_assert(cfg.depth >= 1);
    psm_assert(cfg.oversubscription >= 1.0);
    derived_fanout = deriveFanout(cfg.leaves, cfg.depth);

    leaf_node.resize(static_cast<std::size_t>(cfg.leaves), -1);
    // Worst case one pass-through chain per leaf per level.
    node_list.reserve(static_cast<std::size_t>(cfg.leaves) *
                          static_cast<std::size_t>(cfg.depth) +
                      1);
    build(0, 0, static_cast<std::size_t>(cfg.leaves));
}

int
PowerTree::build(int level, std::size_t lo, std::size_t hi)
{
    auto ix = static_cast<int>(node_list.size());
    node_list.emplace_back();
    Node &n = node_list.back();
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
        static_cast<std::size_t>(derived_fanout), span);
    std::vector<int> children;
    children.reserve(chunks);
    std::size_t base = span / chunks;
    std::size_t extra = span % chunks;
    std::size_t at = lo;
    for (std::size_t c = 0; c < chunks; ++c) {
        std::size_t len = base + (c < extra ? 1 : 0);
        children.push_back(build(level + 1, at, at + len));
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

void
PowerTree::setLeafDemand(std::size_t leaf, double demand)
{
    node_list[static_cast<std::size_t>(leaf_node.at(leaf))].demand =
        demand;
}

void
PowerTree::setLeafCap(std::size_t leaf, Watts cap)
{
    node_list[static_cast<std::size_t>(leaf_node.at(leaf))].cap = cap;
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
    tree_stats.nodeVisits += node_list.size();
    changed_leaves.clear();

    // Bottom-up capacity and demand fold.  Children always have
    // higher indices than their parent, so a reverse index walk folds
    // children before parents, each in child order.
    for (std::size_t i = node_list.size(); i-- > 0;) {
        Node &n = node_list[i];
        if (n.leafIx >= 0)
            continue;
        Watts cap_sum = 0.0;
        bool uncapped = false;
        n.demand = 0.0;
        for (int c : n.children) {
            const Node &child = node_list[static_cast<std::size_t>(c)];
            if (child.cap > 0.0)
                cap_sum += child.cap;
            else
                uncapped = true;
            n.demand += child.demand;
        }
        n.cap = uncapped ? 0.0 : cap_sum / cfg.oversubscription;
    }

    // Top-down split in index order: every parent's grant is settled
    // before its children's, and leaves come up in ascending order.
    node_list[0].grant = effectiveBudget(node_list[0].cap, root_cap);
    for (const Node &n : node_list) {
        if (n.leafIx >= 0)
            continue;
        splitBudget(n, n.grant, split_grants);
        for (std::size_t c = 0; c < n.children.size(); ++c) {
            Node &child =
                node_list[static_cast<std::size_t>(n.children[c])];
            Watts grant = effectiveBudget(child.cap, split_grants[c]);
            if (child.leafIx >= 0 && child.grant != grant) {
                ++tree_stats.grantChanges;
                changed_leaves.push_back(
                    static_cast<std::size_t>(child.leafIx));
            }
            child.grant = grant;
        }
    }
    return changed_leaves.size();
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
    std::vector<char> &active = split_active;
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

} // namespace psm::cluster
