/**
 * @file
 * Tests for the hierarchical power tree and the tree-topology cluster
 * replay: split exactness, per-level cap conservation (including
 * under oversubscription and E1-E4 storms), long-lived-vs-fresh tree
 * equivalence, changed-grant reporting, cap-push deduplication, and
 * flat-vs-tree / serial-vs-parallel bit-identity.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster_manager.hh"
#include "cluster/power_tree.hh"
#include "cluster/power_trace.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace psm::cluster
{
namespace
{

/** Restore the global pool width on scope exit. */
struct ScopedPoolWidth
{
    explicit ScopedPoolWidth(unsigned width)
    {
        util::ThreadPool::configureGlobal(width);
    }
    ~ScopedPoolWidth() { util::ThreadPool::configureGlobal(0); }
};

TEST(PowerTree, StructureAndDerivedFanout)
{
    PowerTreeConfig cfg;
    cfg.leaves = 10;
    cfg.depth = 3;
    PowerTree tree(cfg);
    EXPECT_EQ(tree.leafCount(), 10u);
    EXPECT_EQ(tree.depth(), 3);
    // Smallest f with f^3 >= 10 is 3.
    EXPECT_EQ(tree.fanout(), 3);
    // The root, 3 PDUs over (4, 3, 3) leaves, 9 racks over
    // (2, 1, 1, 1, 1, 1, 1, 1, 1) leaves and the 10 leaves.
    EXPECT_EQ(tree.nodeCount(), 23u);
}

TEST(PowerTree, Depth1UniformSplitMatchesFlatShareExactly)
{
    PowerTreeConfig cfg;
    cfg.leaves = 10;
    cfg.depth = 1;
    PowerTree tree(cfg);
    tree.setRootCap(777.7);
    EXPECT_EQ(tree.resolve(), 10u);
    // Bit-identical to the flat Equal split, not just close: the
    // uniform fast path is one division by the child count.
    Watts flat = 777.7 / static_cast<double>(10);
    for (std::size_t s = 0; s < tree.leafCount(); ++s)
        EXPECT_EQ(tree.leafGrant(s), flat);
    EXPECT_TRUE(tree.checkConservation());
}

TEST(PowerTree, DeepUniformSplitEqualizesAndConserves)
{
    PowerTreeConfig cfg;
    cfg.leaves = 16;
    cfg.depth = 2;
    PowerTree tree(cfg);
    tree.setRootCap(1600.0);
    tree.resolve();
    for (std::size_t s = 0; s < tree.leafCount(); ++s)
        EXPECT_DOUBLE_EQ(tree.leafGrant(s), 100.0);
    std::string why;
    EXPECT_TRUE(tree.checkConservation(1e-9, &why)) << why;
}

TEST(PowerTree, DemandProportionalSplit)
{
    PowerTreeConfig cfg;
    cfg.leaves = 4;
    cfg.depth = 1;
    PowerTree tree(cfg);
    tree.setLeafDemand(0, 1.0);
    tree.setLeafDemand(1, 1.0);
    tree.setLeafDemand(2, 2.0);
    tree.setLeafDemand(3, 4.0);
    tree.setRootCap(800.0);
    tree.resolve();
    EXPECT_DOUBLE_EQ(tree.leafGrant(0), 100.0);
    EXPECT_DOUBLE_EQ(tree.leafGrant(1), 100.0);
    EXPECT_DOUBLE_EQ(tree.leafGrant(2), 200.0);
    EXPECT_DOUBLE_EQ(tree.leafGrant(3), 400.0);
    EXPECT_TRUE(tree.checkConservation());
}

TEST(PowerTree, CapClampWaterFillsResidualToSiblings)
{
    PowerTreeConfig cfg;
    cfg.leaves = 3;
    cfg.depth = 1;
    PowerTree tree(cfg);
    // Equal demand, but leaf 0's circuit only carries 50 W.
    tree.setLeafCap(0, 50.0);
    tree.setRootCap(600.0);
    tree.resolve();
    EXPECT_DOUBLE_EQ(tree.leafGrant(0), 50.0);
    // The residual 550 W water-fills equally over the other two.
    EXPECT_DOUBLE_EQ(tree.leafGrant(1), 275.0);
    EXPECT_DOUBLE_EQ(tree.leafGrant(2), 275.0);
    EXPECT_TRUE(tree.checkConservation());
}

TEST(PowerTree, OversubscriptionLimitsInteriorCapacity)
{
    PowerTreeConfig cfg;
    cfg.leaves = 16;
    cfg.depth = 2;
    cfg.leafCap = 100.0;
    cfg.oversubscription = 1.25;
    PowerTree tree(cfg);
    ASSERT_EQ(tree.fanout(), 4);
    // Root capacity: four PDUs of (4 * 100) / 1.25 = 320 W each,
    // themselves oversubscribed at the root: 1280 / 1.25 = 1024 W.
    tree.setRootCap(10000.0);
    tree.resolve();
    Watts total = 0.0;
    for (std::size_t s = 0; s < tree.leafCount(); ++s) {
        EXPECT_LE(tree.leafGrant(s), 100.0 + 1e-9);
        total += tree.leafGrant(s);
    }
    EXPECT_NEAR(total, 1024.0, 1e-6);
    std::string why;
    EXPECT_TRUE(tree.checkConservation(1e-6, &why)) << why;

    // A storm of root-cap wobbles on 2,048 leaves, depth 3, F = 1.1
    // at every level.  The cap stays below the root's capacity, so
    // every wobble renormalizes the whole tree while the high-demand
    // leaves keep hitting their 100 W clamps; every resolve must
    // conserve at every level and hand out the whole cap.
    cfg.leaves = 2048;
    cfg.depth = 3;
    cfg.oversubscription = 1.1;
    PowerTree storm(cfg);
    for (std::size_t s = 0; s < storm.leafCount(); ++s)
        storm.setLeafDemand(s, 1.0 + static_cast<double>(s % 7));
    for (std::size_t e = 0; e < 2000; ++e) {
        Watts cap = 60.0 * 2048 + static_cast<double>(e % 97);
        storm.setRootCap(cap);
        storm.resolve();
        ASSERT_TRUE(storm.checkConservation(1e-6, &why))
            << "event " << e << ": " << why;
        total = 0.0;
        for (std::size_t s = 0; s < storm.leafCount(); ++s)
            total += storm.leafGrant(s);
        ASSERT_NEAR(total, cap, 1e-6 * cap) << "event " << e;
    }
}

/** Apply the same (demand, cap) state to a fresh tree and compare
 * every grant bit-for-bit against the long-lived one. */
void
expectMatchesFresh(const PowerTree &inc, const PowerTreeConfig &cfg,
                   const std::vector<double> &demands, Watts root_cap)
{
    PowerTree fresh(cfg);
    for (std::size_t s = 0; s < demands.size(); ++s)
        fresh.setLeafDemand(s, demands[s]);
    fresh.setRootCap(root_cap);
    fresh.resolve();
    for (std::size_t s = 0; s < demands.size(); ++s)
        ASSERT_EQ(inc.leafGrant(s), fresh.leafGrant(s))
            << "leaf " << s << " diverged from fresh resolution";
}

TEST(PowerTree, IncrementalResolveMatchesFreshTree)
{
    PowerTreeConfig cfg;
    cfg.leaves = 27;
    cfg.depth = 3;
    PowerTree tree(cfg);
    std::vector<double> demands(27, 1.0);
    Watts cap = 1000.0;
    tree.setRootCap(cap);
    tree.resolve();

    Rng rng(17);
    for (int ev = 0; ev < 60; ++ev) {
        if (ev % 3 == 0) {
            cap = 400.0 + 1200.0 * rng.uniform();
            tree.setRootCap(cap);
        } else {
            auto leaf = static_cast<std::size_t>(
                rng.uniformInt(0, 26));
            demands[leaf] = 0.5 + 4.0 * rng.uniform();
            tree.setLeafDemand(leaf, demands[leaf]);
        }
        tree.resolve();
        expectMatchesFresh(tree, cfg, demands, cap);
        std::string why;
        ASSERT_TRUE(tree.checkConservation(1e-6, &why)) << why;
    }
}

TEST(PowerTree, SaturatedCapsAbsorbLeafEvents)
{
    // A level pinned at its capacity hands out the same child budgets
    // no matter how the rest of the tree wobbles.  Build the
    // oversubscribed regime a hierarchy exists for — every level
    // saturated — and check that a leaf event moves at most that
    // leaf's grant.
    PowerTreeConfig cfg;
    cfg.leaves = 256;
    cfg.depth = 4;
    cfg.leafCap = 100.0;
    PowerTree tree(cfg);
    ASSERT_EQ(tree.fanout(), 4);
    for (std::size_t s = 0; s < 256; ++s)
        tree.setLeafDemand(s, 1.0 + static_cast<double>(s % 7));
    tree.setRootCap(1.0e9); // far above capacity: every level pins
    tree.resolve();

    // A demand change under saturated caps is fully absorbed: every
    // budget stays pinned, so no grant moves.
    tree.setLeafDemand(100, 25.0);
    EXPECT_EQ(tree.resolve(), 0u);

    // Re-provisioning one rack circuit changes exactly that grant.
    tree.setLeafCap(100, 80.0);
    EXPECT_EQ(tree.resolve(), 1u);
    EXPECT_EQ(tree.changedLeaves().front(), 100u);
    EXPECT_DOUBLE_EQ(tree.leafGrant(100), 80.0);
    std::string why;
    EXPECT_TRUE(tree.checkConservation(1e-6, &why)) << why;

    // The same at 2,048 leaves and depth 3 (fanout 13): a storm of
    // rack circuits stepping between 80 and 100 W, scattered over the
    // tree, changes at most the stepped leaf's grant per event and
    // conserves after every resolve.
    cfg.leaves = 2048;
    cfg.depth = 3;
    PowerTree storm(cfg);
    for (std::size_t s = 0; s < storm.leafCount(); ++s)
        storm.setLeafDemand(s, 1.0 + static_cast<double>(s % 7));
    storm.setRootCap(1.0e9);
    storm.resolve();
    for (std::size_t e = 0; e < 2000; ++e) {
        std::size_t leaf = (e * 7919) % storm.leafCount();
        storm.setLeafCap(leaf, e % 2 == 0 ? 80.0 : 100.0);
        ASSERT_LE(storm.resolve(), 1u) << "event " << e;
        if (!storm.changedLeaves().empty()) {
            ASSERT_EQ(storm.changedLeaves().front(), leaf)
                << "event " << e;
        }
        ASSERT_TRUE(storm.checkConservation(1e-6, &why))
            << "event " << e << ": " << why;
    }
}

TEST(PowerTree, UnchangedResolveChangesNoGrant)
{
    PowerTreeConfig cfg;
    cfg.leaves = 64;
    cfg.depth = 3;
    PowerTree tree(cfg);
    tree.setRootCap(1000.0);
    EXPECT_EQ(tree.resolve(), 64u);
    EXPECT_EQ(tree.resolve(), 0u); // nothing changed
    EXPECT_TRUE(tree.changedLeaves().empty());
}

TEST(PowerTree, ChangedLeavesReportsExactlyTheChangedGrants)
{
    PowerTreeConfig cfg;
    cfg.leaves = 9;
    cfg.depth = 2;
    PowerTree tree(cfg);
    tree.setRootCap(900.0);
    EXPECT_EQ(tree.resolve(), 9u); // first resolve changes all
    // Doubling one leaf's demand re-splits its PDU (3 leaves) and
    // the root (changing the other PDUs' budgets and so possibly
    // their leaves); all reported leaves must actually differ.
    std::vector<Watts> before(9);
    for (std::size_t s = 0; s < 9; ++s)
        before[s] = tree.leafGrant(s);
    tree.setLeafDemand(4, 2.0);
    tree.resolve();
    for (std::size_t s = 0; s < 9; ++s) {
        bool reported =
            std::find(tree.changedLeaves().begin(),
                      tree.changedLeaves().end(),
                      s) != tree.changedLeaves().end();
        EXPECT_EQ(reported, tree.leafGrant(s) != before[s])
            << "leaf " << s;
    }
}

// --- cluster replays over the tree ---------------------------------

/** A short cap trace with no consecutive duplicates. */
PowerTrace
shortCaps()
{
    PowerTrace caps;
    caps.interval = toTicks(5.0);
    caps.values = {400.0, 360.0, 430.0, 390.0};
    return caps;
}

TEST(ClusterTree, FlatReplayIgnoresTreeFields)
{
    auto replayWith = [](Topology topology, bool tree_fields) {
        ClusterConfig cfg;
        cfg.servers = 4;
        cfg.topology = topology;
        if (tree_fields) {
            cfg.treeDepth = 2;
            cfg.oversubscription = 1.25;
            cfg.leafCapacity = 90.0;
            cfg.demandAwareSplit = true;
        }
        ClusterManager cm(cfg);
        cm.populateDefault();
        return cm.replay(shortCaps());
    };
    // A Flat replay is the default depth-1 tree (uniform demand, no
    // capacities, F = 1) whatever the tree fields say: bit-equal
    // energy and throughput, not merely close.
    ClusterResult plain = replayWith(Topology::Flat, false);
    ClusterResult flat = replayWith(Topology::Flat, true);
    EXPECT_EQ(flat.totalEnergy, plain.totalEnergy);
    EXPECT_EQ(flat.aggregatePerf, plain.aggregatePerf);
    EXPECT_EQ(flat.capViolationFraction, plain.capViolationFraction);
    EXPECT_EQ(flat.allocatorCalls, plain.allocatorCalls);
    EXPECT_EQ(flat.capPushes, plain.capPushes);
    EXPECT_EQ(flat.conservationViolations, 0u);
    EXPECT_EQ(flat.treeDepth, 1);
    EXPECT_EQ(flat.treeNodes, 5u); // the root and four servers
    // The same fields do shape a Tree replay.
    ClusterResult tree = replayWith(Topology::Tree, true);
    EXPECT_EQ(tree.treeDepth, 2);
    EXPECT_NE(tree.totalEnergy, flat.totalEnergy);
}

TEST(ClusterTree, RepeatedCapSendsNoE1)
{
    // The tree is the one place a cap push is deduplicated: a server
    // whose grant did not change gets no setCap(), so no E1.  Four
    // servers at 400, 400 and 360 W: 4 pushes of 100 W, none, then 4
    // of 90 W.
    ClusterConfig cfg;
    cfg.servers = 4;
    ClusterManager cm(cfg);
    cm.populateDefault();
    PowerTrace caps;
    caps.interval = toTicks(5.0);
    caps.values = {400.0, 400.0, 360.0};
    ClusterResult res = cm.replay(caps);
    EXPECT_EQ(res.capPushes, 8u);
    EXPECT_EQ(cm.aggregateTelemetry().counter("event.E1-cap-change"),
              8u);
}

TEST(ClusterTree, DeepReplayConservesCapsAtEveryLevel)
{
    ClusterConfig cfg;
    cfg.servers = 8;
    cfg.topology = Topology::Tree;
    cfg.treeDepth = 3;
    cfg.oversubscription = 1.1;
    cfg.leafCapacity = 150.0;
    cfg.demandAwareSplit = true;
    ClusterManager cm(cfg);
    cm.populateDefault();
    ClusterResult res = cm.replay(shortCaps());
    EXPECT_EQ(res.conservationViolations, 0u);
    EXPECT_EQ(res.treeDepth, 3);
    EXPECT_GT(res.treeNodes, 8u); // interior PDU/rack nodes exist
    EXPECT_GT(res.capPushes, 0u);
    EXPECT_GT(res.aggregatePerf, 0.0);
}

TEST(ClusterTree, EventStormKeepsConservationAndCompletes)
{
    // E1 storms come from the cap trace; E2/E3/E4 churn comes from
    // ambient faults (app kills force departures and replans, node
    // crashes freeze leaves).  The tree must hold its per-level
    // invariant through all of it.
    ClusterConfig cfg;
    cfg.servers = 8;
    cfg.topology = Topology::Tree;
    cfg.treeDepth = 2;
    cfg.demandAwareSplit = true;
    cfg.oversubscription = 1.05;
    cfg.leafCapacity = 140.0;
    cfg.manager.faults.setAmbientRate(0.05);
    cfg.faults.setAmbientRate(0.05);
    ClusterManager cm(cfg);
    cm.populateDefault();

    PowerTrace caps;
    caps.interval = toTicks(2.0);
    Rng rng(5);
    for (int i = 0; i < 12; ++i)
        caps.values.push_back(300.0 + 400.0 * rng.uniform());
    ClusterResult res = cm.replay(caps);
    EXPECT_EQ(res.conservationViolations, 0u);
    EXPECT_GT(res.totalEnergy, 0.0);
}

TEST(ClusterTree, StepIsBitIdenticalAcrossWidths)
{
    auto replayAt = [](unsigned width) {
        ScopedPoolWidth pool(width);
        ClusterConfig cfg;
        cfg.servers = 6;
        cfg.topology = Topology::Tree;
        cfg.treeDepth = 2;
        cfg.faults.setAmbientRate(0.05); // crashes must replay too
        ClusterManager cm(cfg);
        cm.populateDefault();
        ClusterResult res = cm.replay(shortCaps());
        core::Telemetry tel = cm.aggregateTelemetry();
        return std::tuple(res.totalEnergy, res.aggregatePerf,
                          tel.counter("fault.node_crash"),
                          tel.counter("degraded.node_isolated"));
    };
    auto base = replayAt(1);
    EXPECT_EQ(base, replayAt(2));
    EXPECT_EQ(base, replayAt(4));
}

} // namespace
} // namespace psm::cluster
