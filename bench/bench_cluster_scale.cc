/**
 * @file
 * Cluster-scale bench: the hierarchical power tree and the parallel
 * NodePool step at 10k-node scale, emitting one JSON document on
 * stdout:
 *
 *   tree:    nodes x depth sweep of pure PowerTree event storms —
 *            ns/event and node visits/event for localized rack
 *            events (absorbed by saturated levels) vs. global
 *            root-cap wobbles (full renormalization)
 *   replay:  2k+ managed nodes (oracle control planes) replaying a
 *            cap trace through a depth-3 tree at pool widths 1 and
 *            hw — per-interval step wall-clock and speedup
 *
 * `--check` turns the bench into a regression tripwire:
 *   1. a depth-1 tree replay must be bit-identical to the flat
 *      equal-split replay of the same trace (energy, perf,
 *      violation, allocator passes);
 *   2. cap conservation must hold at every level of every tree
 *      resolve (zero violations), and a localized event at 2048+
 *      leaves / depth >= 3 must visit O(depth) nodes, not O(N);
 *   3. the parallel step path must be bit-identical to the serial
 *      one: width 1 vs. width max(hw, 4) replays of the same managed
 *      cluster must agree on energy and perf;
 *   4. on a multi-core host the parallel pool step must not be
 *      slower than the serial one (vacuous on one core).
 */

#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "cluster/power_tree.hh"
#include "cluster/power_trace.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// --- tree event-storm microbench -----------------------------------

struct TreePoint
{
    int leaves = 0;
    int depth = 0;
    int fanout = 0;
    std::size_t nodes = 0;
    double localNsPerEvent = 0.0;
    double localVisitsPerEvent = 0.0;
    double globalNsPerEvent = 0.0;
    double globalVisitsPerEvent = 0.0;
    std::uint64_t conservationViolations = 0;
};

/**
 * Storm two trees of the same shape.  The saturated tree (F = 1.0,
 * budget above capacity) pins every level at its cap, so localized
 * rack re-provisions are absorbed along the leaf -> root path —
 * O(depth) visits.  The oversubscribed tree (F = 1.1) always has
 * slack below each level, so a root-cap wobble renormalizes every
 * proportional share — the honest O(N) contrast, with capacity
 * clamps continually engaging.  Conservation is checked after every
 * resolve on both.
 */
TreePoint
stormTree(int leaves, int depth, std::size_t events)
{
    cluster::PowerTreeConfig cfg;
    cfg.leaves = leaves;
    cfg.depth = depth;
    cfg.leafCap = 100.0;

    TreePoint p;
    p.leaves = leaves;
    p.depth = depth;

    {
        // Saturated regime: localized events stay on the path.
        cluster::PowerTree tree(cfg);
        p.fanout = tree.fanout();
        p.nodes = tree.nodeCount();
        // Non-uniform demands so splits take the water-fill path.
        for (std::size_t s = 0; s < tree.leafCount(); ++s)
            tree.setLeafDemand(s, 1.0 + static_cast<double>(s % 7));
        tree.setRootCap(1.0e9);
        tree.resolve();

        tree.resetStats();
        double local_s = wallSeconds([&] {
            for (std::size_t e = 0; e < events; ++e) {
                std::size_t leaf = (e * 7919) % tree.leafCount();
                tree.setLeafCap(leaf, e % 2 == 0 ? 80.0 : 100.0);
                tree.resolve();
                if (!tree.checkConservation())
                    ++p.conservationViolations;
            }
        });
        p.localNsPerEvent =
            local_s * 1e9 / static_cast<double>(events);
        p.localVisitsPerEvent = static_cast<double>(
                                    tree.stats().nodeVisits) /
                                static_cast<double>(events);
    }

    {
        // Oversubscribed regime: every level keeps slack, so global
        // wobbles renormalize the whole tree and high-demand leaves
        // keep hitting their clamps.
        cfg.oversubscription = 1.1;
        cluster::PowerTree tree(cfg);
        for (std::size_t s = 0; s < tree.leafCount(); ++s)
            tree.setLeafDemand(s, 1.0 + static_cast<double>(s % 7));
        tree.setRootCap(60.0 * static_cast<double>(leaves));
        tree.resolve();

        tree.resetStats();
        double global_s = wallSeconds([&] {
            for (std::size_t e = 0; e < events; ++e) {
                tree.setRootCap(60.0 * static_cast<double>(leaves) +
                                static_cast<double>(e % 97));
                tree.resolve();
                if (!tree.checkConservation())
                    ++p.conservationViolations;
            }
        });
        p.globalNsPerEvent =
            global_s * 1e9 / static_cast<double>(events);
        p.globalVisitsPerEvent = static_cast<double>(
                                     tree.stats().nodeVisits) /
                                 static_cast<double>(events);
    }
    return p;
}

// --- managed replays -----------------------------------------------

/** A short cap trace without consecutive duplicates, sized for
 * `servers` nodes at ~100 W each. */
cluster::PowerTrace
scaleCaps(int servers, std::size_t points)
{
    cluster::PowerTrace caps;
    caps.interval = toTicks(2.0);
    for (std::size_t i = 0; i < points; ++i) {
        double swing = (i % 2 == 0 ? 0.75 : 0.55) +
                       0.02 * static_cast<double>(i % 5);
        caps.values.push_back(100.0 * swing *
                              static_cast<double>(servers));
    }
    return caps;
}

/** Cheap managed cluster: oracle control planes, no corpus. */
cluster::ClusterConfig
scaleConfig(int servers)
{
    cluster::ClusterConfig cfg;
    cfg.servers = servers;
    cfg.manager.oracleUtilities = true;
    cfg.seedWorkloadCorpus = false;
    return cfg;
}

struct ReplayPoint
{
    unsigned threads = 0;
    double buildSeconds = 0.0;
    double stepSeconds = 0.0; ///< replay wall-clock (all intervals)
    double nodeStepsPerSec = 0.0;
    cluster::ClusterResult result;
};

ReplayPoint
treeReplayAt(unsigned width, int servers,
             const cluster::PowerTrace &caps)
{
    util::ThreadPool::configureGlobal(width);
    ReplayPoint p;
    p.threads = width;

    cluster::ClusterConfig cfg = scaleConfig(servers);
    cfg.topology = cluster::Topology::Tree;
    cfg.treeDepth = 3;
    cfg.demandAwareSplit = true;

    std::optional<cluster::ClusterManager> cm;
    p.buildSeconds = wallSeconds([&] {
        cm.emplace(cfg);
        cm->populateDefault();
    });
    p.stepSeconds = wallSeconds([&] { p.result = cm->replay(caps); });
    p.nodeStepsPerSec = static_cast<double>(servers) *
                        static_cast<double>(caps.values.size()) /
                        p.stepSeconds;
    return p;
}

/** The bit-comparable face of a replay. */
std::tuple<double, double, double, std::size_t>
fingerprint(const cluster::ClusterResult &r)
{
    return {r.totalEnergy, r.aggregatePerf, r.capViolationFraction,
            r.allocatorCalls};
}

void
printTreePoint(const TreePoint &p, bool first)
{
    std::cout << (first ? "" : ",") << "{\"leaves\":" << p.leaves
              << ",\"depth\":" << p.depth << ",\"fanout\":" << p.fanout
              << ",\"nodes\":" << p.nodes << ",\"local_ns_per_event\":"
              << p.localNsPerEvent << ",\"local_visits_per_event\":"
              << p.localVisitsPerEvent << ",\"global_ns_per_event\":"
              << p.globalNsPerEvent << ",\"global_visits_per_event\":"
              << p.globalVisitsPerEvent << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::cerr << "usage: " << argv[0]
                      << " [--check] [--quick]\n";
            return 2;
        }
    }

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    bool ok = true;

    // --- tree storm sweep ------------------------------------------
    std::vector<int> leaf_counts =
        quick ? std::vector<int>{256, 2048}
              : std::vector<int>{256, 2048, 10240};
    std::vector<int> depths{1, 3, 4};
    std::size_t events = quick ? 2000 : 20000;

    std::vector<TreePoint> tree_pts;
    for (int leaves : leaf_counts) {
        for (int depth : depths)
            tree_pts.push_back(stormTree(leaves, depth, events));
    }

    for (const TreePoint &p : tree_pts) {
        if (p.conservationViolations > 0) {
            std::cerr << "FAIL: " << p.conservationViolations
                      << " conservation violations at " << p.leaves
                      << " leaves depth " << p.depth << "\n";
            ok = false;
        }
        // The O(depth) claim: a localized event in the saturated
        // regime revisits the leaf->root path, not the tree.  Allow
        // 2x slack over depth+1 for the occasional un-absorbed
        // wobble; the honest contrast is the global storm, which
        // visits every node.
        if (p.leaves >= 2048 && p.depth >= 3 &&
            p.localVisitsPerEvent >
                2.0 * static_cast<double>(p.depth + 1)) {
            std::cerr << "FAIL: localized event visited "
                      << p.localVisitsPerEvent << " nodes/event at "
                      << p.leaves << " leaves depth " << p.depth
                      << " (expected ~" << p.depth + 1 << ")\n";
            ok = false;
        }
    }

    // --- flat vs depth-1 tree equivalence --------------------------
    int eq_servers = quick ? 16 : 64;
    cluster::PowerTrace eq_caps = scaleCaps(eq_servers, 4);
    cluster::ClusterResult flat_res, tree1_res;
    {
        util::ThreadPool::configureGlobal(0);
        cluster::ClusterManager flat(scaleConfig(eq_servers));
        flat.populateDefault();
        flat_res = flat.replay(eq_caps);

        cluster::ClusterConfig tcfg = scaleConfig(eq_servers);
        tcfg.topology = cluster::Topology::Tree;
        tcfg.treeDepth = 1;
        cluster::ClusterManager tree1(tcfg);
        tree1.populateDefault();
        tree1_res = tree1.replay(eq_caps);
    }
    bool flat_equiv = fingerprint(flat_res) == fingerprint(tree1_res);
    if (!flat_equiv) {
        std::cerr << "FAIL: depth-1 tree replay diverged from flat "
                     "equal split (energy "
                  << tree1_res.totalEnergy << " vs "
                  << flat_res.totalEnergy << ")\n";
        ok = false;
    }

    // --- parallel 2k-node replay -----------------------------------
    int servers = quick ? 2048 : 4096;
    std::size_t points = quick ? 3 : 6;
    cluster::PowerTrace caps = scaleCaps(servers, points);

    // Width max(hw, 4): even a single-core host must prove the
    // parallel step deterministic under real multi-threading; the
    // speedup clause below stays vacuous there.
    ReplayPoint serial = treeReplayAt(1, servers, caps);
    ReplayPoint parallel =
        treeReplayAt(std::max(hw, 4u), servers, caps);
    util::ThreadPool::configureGlobal(0);

    bool width_equiv = fingerprint(serial.result) ==
                       fingerprint(parallel.result);
    if (!width_equiv) {
        std::cerr << "FAIL: parallel replay diverged from serial "
                     "(energy "
                  << parallel.result.totalEnergy << " vs "
                  << serial.result.totalEnergy << ")\n";
        ok = false;
    }
    if (serial.result.conservationViolations +
            parallel.result.conservationViolations >
        0) {
        std::cerr << "FAIL: managed tree replay violated per-level "
                     "conservation\n";
        ok = false;
    }
    double speedup = serial.stepSeconds / parallel.stepSeconds;
    if (hw > 1 && speedup < 1.0) {
        std::cerr << "FAIL: parallel step slower than serial "
                     "(speedup "
                  << speedup << " at " << hw << " threads)\n";
        ok = false;
    }

    // --- JSON ------------------------------------------------------
    std::cout << "{\"bench\":\"cluster_scale\","
              << "\"hardware_concurrency\":" << hw
              << ",\"events_per_storm\":" << events << ",\"tree\":[";
    for (std::size_t i = 0; i < tree_pts.size(); ++i)
        printTreePoint(tree_pts[i], i == 0);
    std::cout << "],\"flat_tree_equivalence\":{\"servers\":"
              << eq_servers << ",\"flat_energy_j\":"
              << flat_res.totalEnergy << ",\"tree_energy_j\":"
              << tree1_res.totalEnergy << ",\"bit_identical\":"
              << (flat_equiv ? "true" : "false") << "},";
    std::cout << "\"replay\":{\"servers\":" << servers
              << ",\"intervals\":" << points << ",\"tree_depth\":3,"
              << "\"tree_nodes\":" << serial.result.treeNodes
              << ",\"cap_pushes\":" << serial.result.capPushes
              << ",\"resolve_visits\":"
              << serial.result.treeResolveVisits
              << ",\"resolve_prunes\":"
              << serial.result.treeResolvePrunes << ",\"sweep\":[";
    for (const ReplayPoint *p : {&serial, &parallel}) {
        std::cout << (p == &serial ? "" : ",")
                  << "{\"threads\":" << p->threads
                  << ",\"build_s\":" << p->buildSeconds
                  << ",\"step_s\":" << p->stepSeconds
                  << ",\"node_steps_per_sec\":" << p->nodeStepsPerSec
                  << "}";
    }
    std::cout << "],\"speedup\":" << speedup
              << ",\"bit_identical\":"
              << (width_equiv ? "true" : "false") << "}}" << std::endl;

    return check ? (ok ? 0 : 1) : 0;
}
