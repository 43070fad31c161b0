/**
 * @file
 * Interactive explorer: run any Table II mix (or any pair of library
 * workloads) under any policy and cap from the command line.
 *
 *   explore [--mix N | --apps A B] [--policy P] [--cap W]
 *           [--esd] [--seconds S] [--oracle]
 *
 *   P is any registered policy's CLI name (see the usage text).
 *
 * Examples:
 *   explore --mix 10 --policy app-res-aware --cap 100
 *   explore --apps stream bfs --policy app-res-esd-aware --cap 75 --esd
 *
 * A malformed or out-of-range value prints a usage error and exits 2.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/manager.hh"
#include "core/policy_registry.hh"
#include "perf/workloads.hh"
#include "util/parse.hh"

using namespace psm;

namespace
{

/** Longest run explore accepts: one simulated day. */
constexpr double kMaxSeconds = 86400.0;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: explore [--mix 1-%zu | --apps A B]\n"
                 "               [--policy %s]\n"
                 "               [--cap W] [--esd] [--seconds S] "
                 "[--oracle]\n",
                 perf::tableTwoMixes().size(),
                 core::PolicyRegistry::instance().cliNames().c_str());
    std::exit(2);
}

/** Reject the flag's value with a diagnostic, then die with usage. */
[[noreturn]] void
badValue(const std::string &flag, const char *value)
{
    std::fprintf(stderr, "explore: invalid value '%s' for %s\n", value,
                 flag.c_str());
    usage();
}

/** A positive, finite number no larger than @p hi, or die. */
double
parsePositive(const std::string &flag, const char *value, double hi)
{
    double out = 0.0;
    if (!util::parseFiniteDouble(value, out) || !(out > 0.0) || out > hi)
        badValue(flag, value);
    return out;
}

/** A library workload name, or die. */
std::string
parseApp(const std::string &flag, const char *value)
{
    if (!perf::hasWorkload(value))
        badValue(flag, value);
    return value;
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
                usage();
            return argv[++i];
        };
        if (arg == "--mix") {
            const char *value = next();
            long id = 0;
            if (!util::parseLongInRange(
                    value, 1,
                    static_cast<long>(perf::tableTwoMixes().size()), id))
                badValue(arg, value);
            const perf::Mix &mx = perf::mix(static_cast<int>(id));
            app1 = mx.app1;
            app2 = mx.app2;
        } else if (arg == "--apps") {
            app1 = parseApp(arg, next());
            const char *value = next();
            app2 = parseApp(arg, value);
            if (app2 == app1) // a server hosts each name once
                badValue(arg, value);
        } else if (arg == "--policy") {
            const char *value = next();
            const core::PolicyInfo *info =
                core::PolicyRegistry::instance().findName(value);
            if (!info)
                badValue(arg, value);
            policy = info->kind;
        } else if (arg == "--cap") {
            cap = parsePositive(arg, next(),
                                std::numeric_limits<double>::max());
        } else if (arg == "--seconds") {
            seconds = parsePositive(arg, next(), kMaxSeconds);
        } else if (arg == "--esd") {
            with_esd = true;
        } else if (arg == "--oracle") {
            oracle = true;
        } else {
            usage();
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
