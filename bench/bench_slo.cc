/**
 * @file
 * SLO bench: latency-critical (interactive) applications under a
 * shared power cap.  Sweeps a mixed interactive+batch managed server
 * across cap values for the SLO-aware allocator and the SLO-blind
 * equal split, reporting per-cell SLO-violation fraction, observed
 * p99 and batch throughput.  Emits one JSON document on stdout:
 *
 *   mm1:   simulated-queue vs closed-form M/M/1 agreement points
 *   cells: one record per (policy, cap) combination of the sweep
 *
 * Its clauses are gtests in tests/test_interactive.cc: width
 * determinism (InteractiveDeterminism), M/M/1 agreement (RequestQueue)
 * and the SLO-aware allocator's home turf on this sweep
 * (InteractiveSlo).
 */

#include <iostream>
#include <utility>
#include <vector>

#include "core/manager.hh"
#include "perf/latency.hh"
#include "perf/workloads.hh"
#include "sim/request_queue.hh"
#include "sim/server.hh"

namespace
{

using namespace psm;

/**
 * Print one simulated-vs-analytic agreement point: a standalone
 * RequestQueue driven at a constant heartbeat rate is exactly the
 * M/M/1 regime.  The SLO is pinned to the analytic p99 so the
 * response histogram's span (32 SLOs, 4096 bins) resolves the
 * percentile finely.
 */
void
printMm1Point(double rho, double seconds, bool first)
{
    perf::AppProfile p = perf::interactiveLibrary()[1]; // kvstore
    const double mu = 500.0; // requests per second
    p.offeredLoad = rho * mu;
    p.sloP99 = perf::LatencyModel::p99(mu, p.offeredLoad);
    p.validate();

    sim::RequestQueue queue(p, 12345);
    queue.advance(0, toTicks(seconds), mu * p.hbPerRequest);

    std::cout << (first ? "" : ",") << "{\"rho\":" << rho
              << ",\"sim_p99_s\":" << queue.p99()
              << ",\"mm1_p99_s\":" << p.sloP99
              << ",\"sim_mean_s\":" << queue.meanResponse()
              << ",\"mm1_mean_s\":"
              << perf::LatencyModel::meanSojourn(mu, p.offeredLoad)
              << ",\"completions\":" << queue.completed() << "}";
}

/**
 * Print one mixed cell: a managed single server hosting one
 * latency-critical service and one batch application under a
 * constant cap.  Oracle utilities keep the cell deterministic and
 * calibration-free, so any violation-fraction gap between policies
 * is allocation, not estimation.
 */
void
printCell(core::PolicyKind kind, const char *policy_name, Watts cap,
          double seconds, bool first)
{
    sim::Server server;
    server.setCap(cap);
    core::ManagerConfig cfg;
    cfg.policy = kind;
    cfg.oracleUtilities = true;
    core::ServerManager manager(server, cfg);

    int iid = manager.addApp(perf::interactiveLibrary()[1]); // kvstore
    manager.addApp(perf::workload("stream"));
    manager.run(toTicks(seconds));

    const std::vector<core::AppRecord> records = manager.records();
    const core::AppRecord *service = nullptr;
    double batch_perf = 0.0;
    for (const core::AppRecord &rec : records) {
        if (rec.id == iid)
            service = &rec;
        else
            batch_perf = rec.normalizedPerf(server.now());
    }
    std::cout << (first ? "" : ",") << "{\"policy\":\"" << policy_name
              << "\",\"cap_w\":" << cap
              << ",\"violation_fraction\":"
              << service->violationFraction()
              << ",\"p99_s\":" << service->requestP99
              << ",\"slo_s\":" << service->sloP99
              << ",\"completions\":" << service->requestCompletions
              << ",\"batch_perf\":" << batch_perf << "}";
}

} // namespace

int
main()
{
    std::cout << "{\"bench\":\"slo\",\"mm1\":[";
    printMm1Point(0.3, 1200.0, true);
    printMm1Point(0.5, 1200.0, false);
    std::cout << "],\"cells\":[";

    // The mixed sweep: caps from starvation to headroom.  The blind
    // split halves the cap regardless of where the service's SLO knee
    // sits; the SLO-aware allocator places the knee first and hands
    // the remainder to the batch app.
    bool first = true;
    for (Watts cap : {75.0, 80.0, 85.0, 90.0, 95.0, 100.0, 105.0, 110.0}) {
        for (auto [kind, name] :
             {std::pair{core::PolicyKind::AppResAware,
                        "app-res-aware"},
              std::pair{core::PolicyKind::UtilUnaware,
                        "util-unaware"}}) {
            printCell(kind, name, cap, 90.0, first);
            first = false;
        }
    }
    std::cout << "]}" << std::endl;
    return 0;
}
