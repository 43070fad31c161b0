#include "cluster_manager.hh"

#include <algorithm>
#include <cmath>

#include "perf/perf_model.hh"
#include "util/logging.hh"

namespace psm::cluster
{


std::string
clusterPolicyName(ClusterPolicy policy)
{
    switch (policy) {
      case ClusterPolicy::EqualRapl:
        return "Equal(RAPL)";
      case ClusterPolicy::EqualOurs:
        return "Equal(Ours)";
      case ClusterPolicy::ConsolidationMigration:
        return "Consolidation+Migration(no cap)";
      default:
        panic("invalid ClusterPolicy %d", static_cast<int>(policy));
    }
}

ClusterConfig::ClusterConfig() : esd(esd::leadAcidUps())
{
}

bool
ClusterConfig::validate(std::string *error) const
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };
    if (servers < 1)
        return fail("cluster needs at least one server (servers = " +
                    std::to_string(servers) + ")");
    if (interactivePerServer < 0 || interactivePerServer > 2) {
        return fail("interactivePerServer must be 0, 1 or 2 (got " +
                    std::to_string(interactivePerServer) + ")");
    }
    if (topology == Topology::Tree) {
        if (treeDepth < 1)
            return fail("treeDepth must be at least 1 (got " +
                        std::to_string(treeDepth) + ")");
        // Written so that NaN fails too.
        if (!(oversubscription >= 1.0))
            return fail("oversubscription must be at least 1 (got " +
                        std::to_string(oversubscription) + ")");
    }
    return true;
}

ClusterManager::ClusterManager(ClusterConfig config)
    : cfg(std::move(config))
{
    // Programmatic callers that skipped validate() still get the
    // full diagnostic, just as an abort instead of a checked error.
    std::string err;
    if (!cfg.validate(&err))
        fatal("%s", err.c_str());
}

void
ClusterManager::populateDefault()
{
    psm_assert(ledger.empty());
    const auto &plat = power::defaultPlatform();

    auto add = [&](const std::string &name, int home) {
        LogicalApp app;
        app.profile = perf::workload(name);
        // Effectively endless so cluster throughput is steady-state.
        app.profile.totalHeartbeats *= 1000.0;
        perf::PerfModel model(plat, app.profile);
        app.uncappedRate = model.maxHbRate();
        app.homeServer = home;
        ledger.push_back(std::move(app));
    };

    // Interactive services keep their calibrated open-ended profile:
    // no runtime sizing, and their "throughput" is SLO attainment.
    auto addInteractive = [&](std::size_t slot, int home) {
        const auto &ilib = perf::interactiveLibrary();
        LogicalApp app;
        app.profile = ilib[slot % ilib.size()];
        perf::PerfModel model(plat, app.profile);
        app.uncappedRate = model.maxHbRate();
        app.homeServer = home;
        ledger.push_back(std::move(app));
    };

    // Mixes 1..servers of Table II, co-located pairwise: the cluster
    // is fully packed (two applications per server, one per socket),
    // so consolidation can only shed a server by parking its pair.
    // interactivePerServer swaps that many of each pair's slots for
    // latency-critical services, rotated so neighbouring servers host
    // different services (names must be unique per server, and the
    // rotation keeps consolidation able to co-locate pairs).
    int n_mixes = static_cast<int>(perf::tableTwoMixes().size());
    for (int s = 0; s < cfg.servers; ++s) {
        const perf::Mix &mx = perf::mix(s % n_mixes + 1);
        auto su = static_cast<std::size_t>(s);
        if (cfg.interactivePerServer >= 1)
            addInteractive(su, s);
        else
            add(mx.app1, s);
        if (cfg.interactivePerServer >= 2)
            addInteractive(su + 1, s);
        else
            add(mx.app2, s);
    }
}

Watts
ClusterManager::serverDemand(const std::vector<std::size_t> &apps) const
{
    const auto &plat = power::defaultPlatform();
    Watts demand = plat.idlePower + plat.cmPower;
    for (std::size_t ix : apps) {
        perf::PerfModel model(plat, ledger[ix].profile);
        demand += model.maxPower();
    }
    return demand;
}

Watts
ClusterManager::uncappedDemandEstimate() const
{
    psm_assert(!ledger.empty());
    const auto &plat = power::defaultPlatform();
    std::vector<Watts> per_server(static_cast<std::size_t>(cfg.servers),
                                  plat.idlePower);
    for (const auto &app : ledger) {
        auto s = static_cast<std::size_t>(app.homeServer);
        if (per_server[s] == plat.idlePower)
            per_server[s] += plat.cmPower;
        perf::PerfModel model(plat, app.profile);
        per_server[s] += model.maxPower();
    }
    Watts total = 0.0;
    for (Watts w : per_server)
        total += w;
    return total;
}

void
ClusterManager::buildNodes()
{
    psm_assert(!pool.has_value());
    NodePoolConfig pc;
    pc.servers = cfg.servers;
    pc.manager = cfg.manager;
    pc.manager.policy = cfg.policy == ClusterPolicy::EqualRapl
                            ? core::PolicyKind::UtilUnaware
                            : core::PolicyKind::AppResEsdAware;
    pc.seedBase = cfg.seed;
    pc.faults = cfg.faults;
    if (cfg.policy == ClusterPolicy::EqualOurs)
        pc.esd = cfg.esd;
    pool.emplace(pc);
    for (auto &app : ledger) {
        auto &node = (*pool)[static_cast<std::size_t>(app.homeServer)];
        app.simAppId = node.manager->addApp(app.profile);
        app.server = app.homeServer;
    }
}

ClusterResult
ClusterManager::replayTree(const PowerTrace &caps)
{
    buildNodes();

    // A Flat replay is the default tree: depth 1, no capacities,
    // F = 1 and uniform demand, whose split is the paper's cap/N.
    const bool tree_fields = cfg.topology == Topology::Tree;
    const bool demand_aware = tree_fields && cfg.demandAwareSplit;
    PowerTreeConfig tc;
    tc.leaves = cfg.servers;
    if (tree_fields) {
        tc.depth = cfg.treeDepth;
        tc.leafCap = cfg.leafCapacity;
        tc.oversubscription = cfg.oversubscription;
    }
    PowerTree tree(tc);

    std::vector<Joules> last_energy(pool->size(), 0.0);
    std::uint64_t violations = 0;

    for (Watts cap : caps.values) {
        tel.count(trace::EventId::ClusterCapUpdates);
        if (demand_aware) {
            // Leaf demand := last interval's average draw.  Metered
            // energy is simulated (deterministic), so the resulting
            // splits replay identically at any thread count.
            for (std::size_t s = 0; s < pool->size(); ++s) {
                Joules e = (*pool)[s].server->meter().totalEnergy();
                double draw =
                    (e - last_energy[s]) / toSeconds(caps.interval);
                last_energy[s] = e;
                if (draw > 0.0)
                    tree.setLeafDemand(s, draw);
            }
        }
        tree.setRootCap(cap);
        tree.resolve();
        // Only leaves whose grant changed pay an E1: an unchanged
        // server keeps its cap, its manager sees no event, and its
        // next interval runs allocator-free.
        for (std::size_t leaf : tree.changedLeaves())
            (*pool)[leaf].manager->setCap(tree.leafGrant(leaf));
        if (!tree.checkConservation()) {
            ++violations;
            tel.count(trace::EventId::TreeConservationViolations);
        }
        // Nodes are independent within an interval: step them in
        // parallel (bit-identical to the serial loop).
        pool->runAll(caps.interval);
    }

    ClusterResult result;
    result.duration = caps.duration();
    double viol = 0.0;
    double perf = 0.0;
    for (const auto &node : *pool) {
        result.totalEnergy += node.server->meter().totalEnergy();
        viol += node.server->meter().violationFraction();
        for (const auto &rec : node.manager->records())
            perf += rec.normalizedPerf(node.server->now());
    }
    result.capViolationFraction =
        viol / static_cast<double>(pool->size());
    result.avgClusterPower =
        result.totalEnergy / toSeconds(result.duration);
    result.aggregatePerf = perf / static_cast<double>(ledger.size());
    result.perfPerKw =
        result.aggregatePerf / (result.avgClusterPower / 1000.0);
    result.allocatorCalls =
        aggregateTelemetry().timer(trace::EventId::AllocatorSpatial).count;

    const PowerTreeStats &ts = tree.stats();
    tel.count(trace::EventId::TreeResolves, ts.resolves);
    tel.count(trace::EventId::TreeNodeVisits, ts.nodeVisits);
    tel.count(trace::EventId::TreeGrantChanges, ts.grantChanges);
    result.treeDepth = tree.depth();
    result.treeNodes = tree.nodeCount();
    result.treeResolveVisits = ts.nodeVisits;
    result.capPushes = ts.grantChanges;
    result.conservationViolations = violations;
    return result;
}

void
ClusterManager::unplace(std::size_t app_ix)
{
    LogicalApp &app = ledger[app_ix];
    if (app.server < 0)
        return;
    auto &node = (*pool)[static_cast<std::size_t>(app.server)];
    app.beats +=
        node.server->app(app.simAppId).heartbeats().total();
    node.server->remove(app.simAppId);
    app.server = -1;
    app.simAppId = -1;
}

void
ClusterManager::place(std::size_t app_ix, int server_ix,
                      Tick downtime)
{
    LogicalApp &app = ledger[app_ix];
    psm_assert(app.server < 0);
    auto &node = (*pool)[static_cast<std::size_t>(server_ix)];
    app.simAppId = node.server->admit(app.profile);
    app.server = server_ix;
    sim::Application &sim_app =
        node.server->app(app.simAppId);
    sim_app.setKnobs(power::defaultPlatform().maxSetting());
    app.resumeAt = node.server->now() + downtime;
    if (downtime > 0)
        sim_app.suspend(node.server->now());
}

ClusterResult
ClusterManager::replayConsolidation(const PowerTrace &caps)
{
    // Raw servers, no managers: consolidation never caps a powered
    // server.
    psm_assert(!pool.has_value());
    NodePoolConfig pc;
    pc.servers = cfg.servers;
    pc.managed = false;
    pool.emplace(pc);
    powered.assign(static_cast<std::size_t>(cfg.servers), 0);

    ClusterResult result;
    result.duration = caps.duration();
    std::vector<Joules> last_energy(pool->size(), 0.0);
    Tick viol_time = 0;
    int current_on = -1; // force an initial plan

    for (Watts cap : caps.values) {
        // Plan: pack applications pairwise onto the fewest servers
        // that fit under the cap.
        std::size_t max_pairs = (ledger.size() + 1) / 2;
        Watts base = cfg.offServerPower *
                     static_cast<double>(cfg.servers);
        Watts budget = cap - base;
        int want_on = 0;
        std::size_t placed = 0;
        while (want_on < cfg.servers &&
               static_cast<std::size_t>(want_on) < max_pairs) {
            std::vector<std::size_t> pair;
            for (std::size_t a = placed;
                 a < std::min(placed + 2, ledger.size()); ++a) {
                pair.push_back(a);
            }
            Watts cost = serverDemand(pair) - cfg.offServerPower;
            if (cost > budget)
                break;
            budget -= cost;
            placed += pair.size();
            ++want_on;
        }

        if (want_on != current_on) {
            // Re-place: apps [0, 2*want_on) run, the rest park.
            // An app landing on a freshly powered server waits for
            // the boot on top of its own migration downtime.
            for (std::size_t a = 0; a < ledger.size(); ++a) {
                std::size_t target_server = a / 2;
                bool should_run =
                    target_server < static_cast<std::size_t>(want_on);
                int target =
                    should_run ? static_cast<int>(target_server) : -1;
                if (ledger[a].server != target) {
                    unplace(a);
                    if (target >= 0) {
                        Tick downtime = cfg.migrationDowntime;
                        if (!powered[target_server])
                            downtime += cfg.serverBootDelay;
                        place(a, target, downtime);
                        ++migration_count;
                        tel.count(trace::EventId::ClusterMigrations);
                    }
                }
            }
            for (int s = 0; s < cfg.servers; ++s)
                powered[static_cast<std::size_t>(s)] = s < want_on;
            current_on = want_on;
        }

        // Step powered servers in sub-chunks, resuming applications
        // as their migration/boot downtime deadlines pass.
        const Tick chunk = toTicks(2.0);
        for (int s = 0; s < cfg.servers; ++s) {
            auto &node = (*pool)[static_cast<std::size_t>(s)];
            if (!powered[static_cast<std::size_t>(s)])
                continue;
            Tick end = node.server->now() + caps.interval;
            while (node.server->now() < end) {
                for (auto &app : ledger) {
                    if (app.server == s && app.simAppId >= 0 &&
                        node.server->now() >= app.resumeAt) {
                        node.server->app(app.simAppId)
                            .resume(node.server->now());
                    }
                }
                node.server->run(
                    std::min(chunk, end - node.server->now()));
            }
        }

        // Account power for this interval.
        Watts draw = cfg.offServerPower *
                     static_cast<double>(cfg.servers - current_on);
        for (int s = 0; s < cfg.servers; ++s) {
            auto &node = (*pool)[static_cast<std::size_t>(s)];
            if (!powered[static_cast<std::size_t>(s)])
                continue;
            Joules e = node.server->meter().totalEnergy();
            draw += (e - last_energy[static_cast<std::size_t>(s)]) /
                    toSeconds(caps.interval);
            last_energy[static_cast<std::size_t>(s)] = e;
        }
        result.totalEnergy += draw * toSeconds(caps.interval);
        if (draw > cap + 1e-6)
            viol_time += caps.interval;

        for (const auto &app : ledger) {
            if (app.server < 0) {
                ++parked_steps;
                tel.count(trace::EventId::ClusterParkedAppSteps);
            }
        }
    }

    result.migrations = migration_count;
    result.parkedAppSteps = parked_steps;
    result.capViolationFraction =
        static_cast<double>(viol_time) /
        static_cast<double>(result.duration);
    result.avgClusterPower =
        result.totalEnergy / toSeconds(result.duration);

    // Harvest the final placements.
    double perf = 0.0;
    double horizon = toSeconds(result.duration);
    for (std::size_t a = 0; a < ledger.size(); ++a) {
        unplace(a);
        perf += ledger[a].beats / horizon / ledger[a].uncappedRate;
    }
    result.aggregatePerf = perf / static_cast<double>(ledger.size());
    result.perfPerKw =
        result.aggregatePerf / (result.avgClusterPower / 1000.0);
    return result;
}

core::Telemetry
ClusterManager::aggregateTelemetry() const
{
    core::Telemetry cluster;
    cluster.merge(tel);
    if (pool)
        cluster.merge(pool->aggregateTelemetry());
    return cluster;
}

ClusterResult
ClusterManager::replay(const PowerTrace &caps)
{
    psm_assert(!ledger.empty());
    psm_assert(!pool.has_value()); // one replay per ClusterManager
    psm_assert(!caps.values.empty());
    if (cfg.policy == ClusterPolicy::ConsolidationMigration)
        return replayConsolidation(caps);
    return replayTree(caps);
}

} // namespace psm::cluster
