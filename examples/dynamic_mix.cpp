/**
 * @file
 * Dynamic arrivals and departures: a small job stream runs through a
 * capped server while the framework recalibrates and reallocates on
 * every event (Section III-C / Fig. 11).
 *
 * The scenario is scripted with the discrete-event queue: jobs with
 * finite heartbeat budgets arrive over time, finish, and depart; one
 * of them changes phase mid-run, triggering E4 drift recalibration.
 */

#include <cstdio>
#include <string_view>

#include "core/manager.hh"
#include "perf/workloads.hh"
#include "sim/event_queue.hh"

using namespace psm;

int
main()
{
    sim::Server server;
    server.setCap(100.0);
    core::ManagerConfig config;
    config.policy = core::PolicyKind::AppResAware;
    core::ServerManager manager(server, config);
    manager.seedCorpus(perf::workloadLibrary());

    // Script the job stream.
    sim::EventQueue script;
    auto job = [&](const char *name, double heartbeats) {
        perf::AppProfile p = perf::workload(name);
        p.totalHeartbeats = heartbeats;
        return p;
    };

    script.schedule(toTicks(0.0), [&](Tick) {
        manager.addApp(job("sssp", 4000.0));
        std::printf("[%6s] sssp arrives\n",
                    formatTime(server.now()).c_str());
    });
    script.schedule(toTicks(15.0), [&](Tick) {
        int id = manager.addApp(job("x264", 5000.0));
        // x264's second half is far more memory-intensive (an E4
        // phase change).
        server.app(id).setPhases({{0.5, 1.0, 1.0},
                                  {1.0, 0.6, 12.0}});
        std::printf("[%6s] x264 arrives (with a mid-run phase "
                    "change)\n", formatTime(server.now()).c_str());
    });
    script.schedule(toTicks(70.0), [&](Tick) {
        manager.addApp(job("kmeans", 3000.0));
        std::printf("[%6s] kmeans arrives\n",
                    formatTime(server.now()).c_str());
    });

    // Drive: fire due script events, advance in one-second slices.
    while (server.now() < toTicks(140.0) &&
           (!script.empty() || manager.anyAppRunning())) {
        script.runUntil(server.now());
        manager.run(toTicks(1.0));
    }

    std::printf("\nevent log (%zu events):\n",
                manager.eventCount());
    for (const auto &ev : manager.eventLog()) {
        std::string_view kind = core::eventKindName(ev.kind);
        std::printf("  [%6s] %.*s%s\n", formatTime(ev.when).c_str(),
                    static_cast<int>(kind.size()), kind.data(),
                    ev.appId >= 0 && server.hasApp(ev.appId)
                        ? (" " + server.app(ev.appId).name()).c_str()
                        : "");
    }

    std::printf("\nfinal records:\n");
    for (const auto &rec : manager.records()) {
        std::printf("  %-8s %s after %s, perf %.3f\n",
                    rec.name.c_str(),
                    rec.done ? "finished" : "running",
                    formatTime((rec.done ? rec.finishedAt
                                         : server.now()) -
                               rec.admitted)
                        .c_str(),
                    rec.normalizedPerf(server.now()));
    }
    std::printf("\nserver: avg %.1f W against the %.0f W cap, "
                "%.1f%% of time above it, %zu reallocations\n",
                server.meter().averagePower(), server.cap(),
                100.0 * server.meter().violationFraction(),
                manager.reallocationCount());
    return 0;
}
