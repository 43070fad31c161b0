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

} // namespace

NodePool::NodePool(const NodePoolConfig &config)
    // Stream 1 keeps pool-level rolls independent of the managers'
    // (stream 0) even when they share a seed base.
    : fault_injector(poolFaultPlan(config), 1),
      shard_size(config.shardSize >= 1
                     ? static_cast<std::size_t>(config.shardSize)
                     : 1)
{
    psm_assert(config.servers >= 1);
    auto n = static_cast<std::size_t>(config.servers);
    node_list.resize(n);
    // Profile the corpus once, outside the parallel build, and share
    // it read-only with every node: noiseless profiling makes the
    // rows depend only on the platform every node runs and the
    // profiles.  Doing it here also keeps a workload() typo's fatal()
    // (with the valid-name list) out of a pool task.
    std::shared_ptr<const cf::UtilityEstimator> corpus;
    if (config.managed && config.seedWorkloadCorpus) {
        std::vector<perf::AppProfile> profiles;
        for (const std::string &name : config.corpusWorkloads)
            profiles.push_back(perf::workload(name));
        corpus = cf::profileCorpus(
            power::defaultPlatform(),
            profiles.empty() ? perf::workloadLibrary() : profiles,
            config.manager.als);
    }
    // Nodes share only the corpus and immutable platform/workload
    // tables, so build them in parallel.
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
                node.manager->seedCorpus(corpus);
        }
    });
}

void
NodePool::isolate(Node &node, core::Telemetry &shard,
                  trace::EventId fault_counter)
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
    shard.count(fault_counter);
    shard.count(trace::EventId::DegradedNodeIsolated);
}

void
NodePool::stepNode(std::size_t ix, Tick duration,
                   core::Telemetry &shard)
{
    Node &node = node_list[ix];
    if (!node.manager)
        return;
    ++node.attempts;
    if (node.cooldown > 0) {
        // Still backing off after a crash: sit this interval out.
        // The node's simulated clock simply does not advance —
        // availability loss, not time travel.
        --node.cooldown;
        shard.count(trace::EventId::DegradedNodeSkipped);
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
        isolate(node, shard, trace::EventId::FaultNodeCrash);
        return;
    }
    auto t0 = std::chrono::steady_clock::now();
    try {
        node.manager->run(duration);
    } catch (const std::exception &e) {
        // A node whose control plane throws must not take the whole
        // cluster step down: isolate it like a crash.
        warn("node %zu faulted (%s); isolating", ix, e.what());
        isolate(node, shard, trace::EventId::FaultNodeException);
        return;
    }
    if (node.crashStreak > 0) {
        node.crashStreak = 0;
        shard.count(trace::EventId::DegradedNodeRestarted);
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    shard.observe(trace::EventId::ClusterNodeStep, toTicks(secs));
}

void
NodePool::runAll(Tick duration, core::Telemetry *driver_tel)
{
    auto interval_start = std::chrono::steady_clock::now();
    // Contiguous per-shard batches.  The partition depends only on
    // shard_size — never on the thread count — and every publish on
    // the step path is a commutative counter/timer aggregate, so the
    // shard-order merge below is bit-identical to the serial loop at
    // any PSM_THREADS and any shard size.  No lock is taken anywhere
    // on the step path: a shard's nodes and its sink belong to
    // exactly one worker for the duration of the interval.
    std::size_t n = node_list.size();
    std::size_t n_shards = (n + shard_size - 1) / shard_size;
    core::TelemetryShards shards(n_shards);
    util::ThreadPool::global().parallelFor(
        n_shards, [&](std::size_t sh) {
            core::Telemetry &shard = shards.shard(sh);
            std::size_t lo = sh * shard_size;
            std::size_t hi = std::min(n, lo + shard_size);
            for (std::size_t s = lo; s < hi; ++s)
                stepNode(s, duration, shard);
        });
    // Isolation/fault counters must survive even when the driver does
    // not collect telemetry: fall back to the pool's own bus (merged
    // into aggregateTelemetry()).  Shard merges are dense O(#events)
    // array folds.
    core::Telemetry &sink = driver_tel ? *driver_tel : pool_tel;
    shards.mergeInto(sink);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - interval_start)
                      .count();
    sink.observe(trace::EventId::ClusterStep, toTicks(secs));
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

core::TimerStat
NodePool::aggregateTimer(trace::EventId id) const
{
    core::TimerStat agg = pool_tel.timer(id);
    for (const Node &node : node_list) {
        if (!node.manager)
            continue;
        core::TimerStat t = node.manager->telemetry().timer(id);
        agg.count += t.count;
        agg.total += t.total;
        agg.max = std::max(agg.max, t.max);
    }
    return agg;
}

void
NodePool::foldTrace(trace::TraceSink &out) const
{
    pool_tel.foldInto(out);
    for (const Node &node : node_list) {
        if (node.manager)
            node.manager->telemetry().foldInto(out);
    }
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
            s.events = node.manager->eventLog().size();
        }
        out.push_back(s);
    }
    return out;
}

} // namespace psm::cluster
