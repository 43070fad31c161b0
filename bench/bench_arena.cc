/**
 * @file
 * Policy arena: every registered policy races through the same
 * scenario matrix — workload mix x cap trace x fault schedule — on
 * the managed single-server platform, and each cell reports realized
 * throughput, utility, cap adherence and an M/M/1 tail-latency view
 * of the worst application.  Emits one JSON document on stdout:
 *
 *   cells:  one record per (policy, mix, trace, faults) combination,
 *           one per line
 *
 * The arena's clauses are gtests: planner-level budget conservation
 * for every registered policy and the baseline's home turf in
 * tests/test_arena_policies.cc, CLI-name, wire-id and capture-Config
 * round-trips and rejections in tests/test_policy_registry.cc.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/policy_registry.hh"
#include "perf/latency.hh"
#include "sim/server.hh"

namespace
{

using namespace psm;

/** The M/M/1 view of a cell: a full-speed app serves at this rate. */
constexpr double kServiceScale = 100.0; // requests/s at perfNorm 1
constexpr double kOfferedLoad = 30.0;   // requests/s per app
constexpr double kSloP99 = 0.5;         // seconds
constexpr double kSegmentSeconds = 5.0;

/** A named piecewise-constant cap schedule. */
struct CapSchedule
{
    std::string name;
    std::vector<Watts> caps;  ///< one cap per segment
};

/** A named fault schedule (ambient per-poll probability). */
struct FaultSchedule
{
    std::string name;
    double rate = 0.0;
};

/** Everything one (policy, mix, trace, faults) cell reports. */
struct ArenaCell
{
    std::string policy;
    int mix = 0;
    std::string trace;
    std::string faults;
    double throughput = 0.0;   ///< mean normalized throughput
    double utility = 0.0;      ///< sum of per-app normalized perf
    Watts avgPower = 0.0;
    double violationFraction = 0.0;
    Watts worstOvershoot = 0.0;
    double p99 = 0.0;          ///< worst-app M/M/1 p99 (s)
    int sloViolations = 0;     ///< apps missing the p99 SLO
};

/** Run one cell: a two-app managed server replaying the schedule. */
ArenaCell
runCell(const core::PolicyInfo &info, int mix_id,
        const CapSchedule &caps, const FaultSchedule &faults)
{
    sim::Server server;
    // Uniform hardware across the arena: every cell has the ESD;
    // whether a policy exploits it is the policy's business.
    server.attachEsd(esd::leadAcidUps());
    server.setCap(caps.caps.front());

    core::ManagerConfig cfg;
    cfg.policy = info.kind;
    cfg.oracleUtilities = true; // deterministic, calibration-free
    if (faults.rate > 0.0)
        cfg.faults.setAmbientRate(faults.rate);
    core::ServerManager manager(server, cfg);
    manager.seedCorpus(perf::workloadLibrary());

    const perf::Mix &mx = perf::mix(mix_id);
    manager.addApp(perf::workload(mx.app1));
    manager.addApp(perf::workload(mx.app2));
    for (Watts cap : caps.caps) {
        manager.setCap(cap);
        manager.run(toTicks(kSegmentSeconds));
    }

    ArenaCell cell;
    cell.policy = info.cliName;
    cell.mix = mix_id;
    cell.trace = caps.name;
    cell.faults = faults.name;
    cell.throughput = manager.serverNormalizedThroughput();
    for (const core::AppRecord &rec : manager.records()) {
        double perf = rec.normalizedPerf(server.now());
        cell.utility += perf;
        double p99 = perf::LatencyModel::p99(perf * kServiceScale,
                                             kOfferedLoad);
        cell.p99 = std::max(cell.p99, p99);
        if (!(p99 <= kSloP99))
            ++cell.sloViolations;
    }
    cell.avgPower = server.meter().averagePower();
    cell.violationFraction = server.meter().violationFraction();
    cell.worstOvershoot = server.meter().worstOvershoot();

    bench::maybeDumpTelemetry(manager.telemetry(),
                       "arena/" + cell.policy + "/mix" +
                           std::to_string(mix_id) + "/" + caps.name +
                           "/" + faults.name);
    return cell;
}

void
printCell(const ArenaCell &cell, bool first)
{
    std::cout << (first ? "" : ",\n") << "{\"policy\":\"" << cell.policy
              << "\",\"mix\":" << cell.mix << ",\"trace\":\""
              << cell.trace << "\",\"faults\":\"" << cell.faults
              << "\",\"throughput\":" << cell.throughput
              << ",\"utility\":" << cell.utility << ",\"avg_power_w\":"
              << cell.avgPower << ",\"violation_fraction\":"
              << cell.violationFraction << ",\"worst_overshoot_w\":"
              << cell.worstOvershoot << ",\"p99_s\":";
    if (cell.p99 == perf::LatencyModel::unstable)
        std::cout << "\"unstable\"";
    else
        std::cout << cell.p99;
    std::cout << ",\"slo_violations\":" << cell.sloViolations << "}";
}

} // namespace

int
main()
{
    // The scenario matrix.  "tight-80" is the paper's stringent
    // constant cap (Fig. 10's P_cap) — the baseline's home turf;
    // "step" exercises E1 cap-change replanning in both directions.
    const std::vector<CapSchedule> traces = {
        {"tight-80", {80.0, 80.0, 80.0}},
        {"step", {110.0, 70.0, 95.0}},
        {"diurnal", {120.0, 95.0, 75.0, 90.0, 110.0}},
    };
    const std::vector<FaultSchedule> faults = {{"none", 0.0},
                                               {"ambient", 0.02}};

    const auto &policies = core::PolicyRegistry::instance().all();
    std::cout << "{\"bench\":\"arena\",\"policies\":"
              << policies.size() << ",\"cells\":[\n";
    bool first = true;
    for (const core::PolicyInfo &info : policies) {
        for (int mix_id : {1, 5, 8, 12}) {
            for (const CapSchedule &trace : traces) {
                for (const FaultSchedule &fault : faults) {
                    printCell(runCell(info, mix_id, trace, fault),
                              first);
                    first = false;
                }
            }
        }
    }
    std::cout << "\n]}" << std::endl;
    return 0;
}
