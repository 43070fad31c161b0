#include "node_pool.hh"

#include <algorithm>
#include <chrono>
#include <exception>

#include "perf/workloads.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace psm::cluster
{

namespace
{

/** Resolve the pool's fault plan: ambient env fallback + seed. */
util::FaultPlanConfig
poolFaultPlan(const NodePoolConfig &config)
{
    util::FaultPlanConfig fc = config.faults;
    if (!fc.enabled()) {
        double ambient = util::FaultPlanConfig::ambientRateFromEnv();
        if (ambient > 0.0)
            fc.setAmbientRate(ambient);
    }
    if (fc.seed == 0)
        fc.seed = config.seedBase;
    return fc;
}

/** Take a crashed node out for a backoff window; the counts land on
 * the node's own bus. */
void
isolate(NodePool::Node &node, trace::EventId fault_counter)
{
    // Saturate the streak: its only uses are the <= 1 retry test and
    // the clamped shift below, and an unbounded int would overflow
    // (UB) on a node that crashes for years.
    if (node.crashStreak < 1 << 20)
        ++node.crashStreak;
    // First crash retries next interval; consecutive crashes back
    // off exponentially (1, 2, 4, capped at 8 intervals out).  The
    // shift amount itself is clamped — `1 << (streak - 2)` alone is
    // undefined once the streak passes the width of int.
    node.cooldown = node.crashStreak <= 1
                        ? 0
                        : 1 << std::min(node.crashStreak - 2, 3);
    core::Telemetry &tel = node.manager->telemetry();
    tel.count(fault_counter);
    tel.count(trace::EventId::DegradedNodeIsolated);
}

} // namespace

NodePool::NodePool(const NodePoolConfig &config)
    // Stream 1 keeps pool-level rolls independent of the managers'
    // (stream 0) even when they share a seed base.
    : fault_injector(poolFaultPlan(config), 1)
{
    psm_assert(config.servers >= 1);
    auto n = static_cast<std::size_t>(config.servers);
    node_list.resize(n);
    // Profile the corpus once, outside the parallel build, and share
    // it and its server-average curve read-only with every node:
    // noiseless profiling makes the rows depend only on the platform
    // every node runs and the profiles.  Doing it here also keeps a
    // workload() typo's fatal() (with the valid-name list) out of a
    // pool task.
    std::shared_ptr<const cf::UtilityEstimator> corpus;
    std::shared_ptr<const core::UtilityCurve> server_average;
    if (config.managed && config.seedWorkloadCorpus) {
        std::vector<perf::AppProfile> profiles;
        for (const std::string &name : config.corpusWorkloads)
            profiles.push_back(perf::workload(name));
        corpus = cf::profileCorpus(
            power::defaultPlatform(),
            profiles.empty() ? perf::workloadLibrary() : profiles,
            config.manager.als);
        server_average = core::makeServerAverageCurve(*corpus);
    }
    // Nodes share only the corpus, its server-average curve and
    // immutable platform/workload tables (the knob space among them),
    // so build them in parallel.
    util::ThreadPool::global().parallelFor(n, [&](std::size_t s) {
        Node &node = node_list[s];
        node.server = std::make_unique<sim::Server>();
        if (config.esd)
            node.server->attachEsd(*config.esd);
        if (config.serverCap > 0.0)
            node.server->setCap(config.serverCap);
        if (config.managed) {
            core::ManagerConfig mc = config.manager;
            mc.seed =
                config.seedBase + static_cast<std::uint64_t>(s);
            node.manager = std::make_unique<core::ServerManager>(
                *node.server, mc);
            if (corpus)
                node.manager->seedCorpus(corpus, server_average);
        }
    });
}

void
NodePool::stepNode(std::size_t ix, Tick duration)
{
    Node &node = node_list[ix];
    if (!node.manager)
        return;
    core::Telemetry &tel = node.manager->telemetry();
    ++node.attempts;
    if (node.cooldown > 0) {
        // Still backing off after a crash: sit this interval out.
        // The node's simulated clock simply does not advance —
        // availability loss, not time travel.
        --node.cooldown;
        tel.count(trace::EventId::DegradedNodeSkipped);
        return;
    }
    // The crash roll is keyed on per-node state only (the 1-based
    // attempt counter; a crashed node's sim clock freezes, so
    // clock-keyed rolls would repeat forever), so the schedule is
    // identical at any thread count.  NodeCrash schedule windows are
    // therefore expressed in attempt numbers, not sim ticks.
    bool crash = fault_injector.inject(
        util::FaultKind::NodeCrash, static_cast<Tick>(node.attempts),
        (static_cast<std::uint64_t>(ix) << 32) ^ node.server->now(),
        static_cast<std::int64_t>(ix));
    if (crash) {
        isolate(node, trace::EventId::FaultNodeCrash);
        return;
    }
    auto t0 = std::chrono::steady_clock::now();
    try {
        node.manager->run(duration);
    } catch (const std::exception &e) {
        // A node whose control plane throws must not take the whole
        // cluster step down: isolate it like a crash.
        warn("node %zu faulted (%s); isolating", ix, e.what());
        isolate(node, trace::EventId::FaultNodeException);
        return;
    }
    if (node.crashStreak > 0) {
        node.crashStreak = 0;
        tel.count(trace::EventId::DegradedNodeRestarted);
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    tel.observe(trace::EventId::ClusterNodeStep, toTicks(secs));
}

void
NodePool::runAll(Tick duration)
{
    auto interval_start = std::chrono::steady_clock::now();
    // Each node writes only its own server, manager and bus, so any
    // partition the thread pool picks is bit-identical to the serial
    // loop, and no bus needs merging after the join.
    util::ThreadPool::global().parallelFor(
        node_list.size(),
        [&](std::size_t s) { stepNode(s, duration); });
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - interval_start)
                      .count();
    pool_tel.observe(trace::EventId::ClusterStep, toTicks(secs));
}

Joules
NodePool::totalEnergy() const
{
    Joules total = 0.0;
    for (const Node &node : node_list)
        total += node.server->meter().totalEnergy();
    return total;
}

core::Telemetry
NodePool::aggregateTelemetry() const
{
    core::Telemetry cluster;
    cluster.merge(pool_tel);
    for (const Node &node : node_list) {
        if (node.manager)
            cluster.merge(node.manager->telemetry());
    }
    return cluster;
}

std::vector<NodePool::NodeSnapshot>
NodePool::snapshot() const
{
    std::vector<NodeSnapshot> out;
    out.reserve(node_list.size());
    for (const Node &node : node_list) {
        NodeSnapshot s;
        const sim::Server &srv = *node.server;
        s.now = srv.now();
        s.cap = srv.cap();
        for (const sim::Application *app : srv.apps()) {
            if (!app->finished())
                ++s.activeApps;
        }
        s.freeSockets = srv.freeSockets();
        s.energy = srv.meter().totalEnergy();
        if (node.manager) {
            s.reallocations = node.manager->reallocationCount();
            s.events = node.manager->eventCount();
        }
        out.push_back(s);
    }
    return out;
}

} // namespace psm::cluster
