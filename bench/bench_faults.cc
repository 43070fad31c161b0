/**
 * @file
 * Fault-injection bench: replays a load-following cap trace on a
 * 32-node Equal(Ours) cluster while the seeded fault injector kills
 * apps, fails meter reads, pulls the ESD and crashes nodes, and
 * reports how gracefully the control plane degrades.  Emits one JSON
 * document on stdout, one sweep row per line: aggregate perf, energy
 * and every fault.* / degraded.* counter per ambient fault rate
 * (rate 0 is the clean baseline).
 *
 * The robustness clauses (completion, every fault paired with its
 * degradation action, bounded utility loss, width-invariant fault
 * schedules) are gtests in tests/test_faults.cc.
 */

#include <iostream>
#include <string>

#include "cluster/cluster_manager.hh"
#include "cluster/power_trace.hh"

namespace
{

using namespace psm;

/**
 * Replay a load-following cap trace on an N-node Equal(Ours) cluster
 * with the ambient fault rate applied to both the per-server fault
 * plans (meter/ESD/kill/actuation) and the pool plan (node crashes),
 * and print the run as one sweep row.
 */
void
printReplay(double rate, int servers, std::size_t intervals,
            double interval_s, bool first)
{
    cluster::ClusterConfig cfg;
    cfg.policy = cluster::ClusterPolicy::EqualOurs;
    cfg.servers = servers;
    if (rate > 0.0) {
        cfg.manager.faults.setAmbientRate(rate);
        cfg.faults.setAmbientRate(rate);
    }
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();

    cluster::TraceConfig tc;
    tc.points = intervals;
    tc.interval = toTicks(interval_s);
    cluster::PowerTrace demand = cluster::generateDiurnalDemand(tc);
    cluster::PowerTrace caps = cluster::loadFollowingCaps(
        demand, cm.uncappedDemandEstimate(), 0.25);
    cluster::ClusterResult res = cm.replay(caps);

    std::cout << (first ? "" : ",\n") << "{\"rate\":" << rate
              << ",\"aggregate_perf\":" << res.aggregatePerf
              << ",\"total_energy_j\":" << res.totalEnergy
              << ",\"counters\":{";
    bool first_counter = true;
    for (const auto &[name, value] : cm.aggregateTelemetry().counters()) {
        if (name.rfind("fault.", 0) != 0 &&
            name.rfind("degraded.", 0) != 0)
            continue;
        std::cout << (first_counter ? "" : ",") << "\"" << name
                  << "\":" << value;
        first_counter = false;
    }
    std::cout << "}}";
}

} // namespace

int
main()
{
    const int servers = 32;
    const std::size_t intervals = 4;
    const double interval_s = 5.0;

    std::cout << "{\"bench\":\"faults\",\"servers\":" << servers
              << ",\"intervals\":" << intervals << ",\"interval_s\":"
              << interval_s << ",\"sweep\":[\n";
    bool first = true;
    for (double rate : {0.0, 0.01, 0.02, 0.05}) {
        printReplay(rate, servers, intervals, interval_s, first);
        first = false;
    }
    std::cout << "\n]}" << std::endl;
    return 0;
}
