/**
 * @file
 * Interactive explorer: run any Table II mix (or any pair of library
 * workloads) under any policy and cap from the command line.
 *
 *   explore [--mix N | --apps A B] [--policy P] [--cap W]
 *           [--esd] [--seconds S] [--oracle]
 *
 *   P in {uu, sra, aa, ara, are}
 *
 * Examples:
 *   explore --mix 10 --policy ara --cap 100
 *   explore --apps stream bfs --policy are --cap 75 --esd
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/manager.hh"
#include "perf/workloads.hh"
#include "util/logging.hh"

using namespace psm;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--mix N | --apps A B] [--policy "
                 "uu|sra|aa|ara|are] [--cap W] [--esd] "
                 "[--seconds S] [--oracle]\n",
                 argv0);
    std::exit(2);
}

core::PolicyKind
parsePolicy(const std::string &p)
{
    if (p == "uu")
        return core::PolicyKind::UtilUnaware;
    if (p == "sra")
        return core::PolicyKind::ServerResAware;
    if (p == "aa")
        return core::PolicyKind::AppAware;
    if (p == "ara")
        return core::PolicyKind::AppResAware;
    if (p == "are")
        return core::PolicyKind::AppResEsdAware;
    psm::fatal("unknown policy '%s' (use uu|sra|aa|ara|are)",
               p.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app1 = "stream";
    std::string app2 = "kmeans";
    core::PolicyKind policy = core::PolicyKind::AppResAware;
    double cap = 100.0;
    double seconds = 60.0;
    bool with_esd = false;
    bool oracle = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--mix") {
            const perf::Mix &mx = perf::mix(std::atoi(next()));
            app1 = mx.app1;
            app2 = mx.app2;
        } else if (arg == "--apps") {
            app1 = next();
            app2 = next();
        } else if (arg == "--policy") {
            policy = parsePolicy(next());
        } else if (arg == "--cap") {
            cap = std::atof(next());
        } else if (arg == "--seconds") {
            seconds = std::atof(next());
        } else if (arg == "--esd") {
            with_esd = true;
        } else if (arg == "--oracle") {
            oracle = true;
        } else {
            usage(argv[0]);
        }
    }
    if (policy == core::PolicyKind::AppResEsdAware)
        with_esd = true;

    sim::Server server;
    if (with_esd)
        server.attachEsd(esd::leadAcidUps());
    server.setCap(cap);

    core::ManagerConfig config;
    config.policy = policy;
    config.oracleUtilities = oracle;
    core::ServerManager manager(server, config);
    manager.seedCorpus(perf::workloadLibrary());
    manager.addApp(perf::workload(app1));
    manager.addApp(perf::workload(app2));

    std::printf("%s + %s | %s | cap %.0f W%s | %.0f s\n",
                app1.c_str(), app2.c_str(),
                core::policyName(policy).c_str(), cap,
                with_esd ? " | lead-acid ESD" : "", seconds);
    manager.run(toTicks(seconds));

    std::printf("\nmode        %s\n",
                core::coordinationModeName(manager.mode()).c_str());
    std::printf("throughput  %.3f of uncapped\n",
                manager.serverNormalizedThroughput());
    for (const auto &rec : manager.records()) {
        std::printf("  %-12s perf %.3f\n", rec.name.c_str(),
                    rec.normalizedPerf(server.now()));
    }
    std::printf("power       avg %.1f W, peak %.1f W, %.1f%% of time "
                "above the cap (worst %+.1f W)\n",
                server.meter().averagePower(),
                server.meter().peakPower(),
                100.0 * server.meter().violationFraction(),
                server.meter().worstOvershoot());
    if (server.hasEsd()) {
        std::printf("battery     SoC %.0f%%, delivered %.0f J, %.2f "
                    "cycles\n",
                    100.0 * server.battery()->soc(),
                    server.battery()->totalDelivered(),
                    server.battery()->equivalentCycles());
    }
    std::printf("events      %zu | reallocations %zu\n",
                manager.eventCount(),
                manager.reallocationCount());
    return 0;
}
