/**
 * @file
 * Energy-storage example: survive a demand-response event that drops
 * the server cap below what the applications need, by consolidated
 * ESD duty cycling (Requirement R4).
 *
 * The cap falls from 100 W to 75 W mid-run — too tight to run even one
 * application continuously — and the framework switches to charging
 * the Lead-Acid battery with everything asleep, then running both
 * applications together above the cap on stored energy (amortizing
 * P_cm), with the OFF:ON ratio from the paper's Eq. 5.
 */

#include <cstdio>

#include "core/manager.hh"
#include "perf/workloads.hh"

using namespace psm;

int
main()
{
    sim::Server server;
    server.attachEsd(esd::leadAcidUps());
    server.setCap(100.0);

    core::ManagerConfig config;
    config.policy = core::PolicyKind::AppResEsdAware;
    core::ServerManager manager(server, config);
    manager.seedCorpus(perf::workloadLibrary());

    manager.addApp(perf::workload("x264"));
    manager.addApp(perf::workload("sssp"));

    std::printf("phase 1: P_cap = 100 W (normal operation)\n");
    manager.run(toTicks(30.0));
    std::printf("  mode %s, throughput %.3f, avg power %.1f W\n",
                core::coordinationModeName(manager.mode()).c_str(),
                manager.serverNormalizedThroughput(),
                server.meter().averagePower());

    std::printf("phase 2: demand response drops the cap to 75 W\n");
    manager.setCap(75.0);
    manager.run(toTicks(60.0));
    std::printf("  mode %s, throughput %.3f, avg power %.1f W\n",
                core::coordinationModeName(manager.mode()).c_str(),
                manager.serverNormalizedThroughput(),
                server.meter().averagePower());

    const esd::Battery *bat = server.battery();
    std::printf("battery: SoC %.0f%%, delivered %.0f J over %.2f "
                "equivalent cycles\n",
                100.0 * bat->soc(), bat->totalDelivered(),
                bat->equivalentCycles());
    std::printf("events handled: %zu (E1 cap change, E2 arrivals, "
                "...)\n", manager.eventCount());
    return 0;
}
