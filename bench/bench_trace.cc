/**
 * @file
 * Telemetry publish/merge microbench and the replay tripwire.
 *
 * Reports two numbers for the trace-backed Telemetry bus:
 *
 *  - publish: ns/op for typed-id count/observe publishes;
 *  - merge: ms to fold a sweep of per-node buses (every registered
 *    event touched per bus) into one bus, as the cluster-scope
 *    aggregates do — a dense O(#events) array add per bus.
 *
 * Both are reported, not gated.  `--check` adds the replay
 * determinism clause: a scripted ServeEngine capture must replay
 * bit-exactly (digest + surface-epoch sum) at thread widths 1 and 4.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/telemetry.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/replay.hh"
#include "trace/trace.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;
using core::Telemetry;

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Best-of-3 wall time, for timing stability under CI noise. */
double
bestSeconds(const std::function<void()> &fn)
{
    double best = wallSeconds(fn);
    for (int i = 0; i < 2; ++i)
        best = std::min(best, wallSeconds(fn));
    return best;
}

// --- publish path ---------------------------------------------------

struct PublishReport
{
    double typedNs = 0.0;       ///< count/observe by EventId
    std::uint64_t checksum = 0; ///< keeps the loop observable
};

PublishReport
timePublish(std::size_t iters)
{
    PublishReport rep;
    // Two publishes per iteration: one counter bump, one timer
    // observation — the mix every control-loop poll produces.
    const double ops = static_cast<double>(iters) * 2.0;

    Telemetry bus;
    double secs = bestSeconds([&] {
        for (std::size_t i = 0; i < iters; ++i) {
            bus.count(trace::EventId::AllocatorAllocate);
            bus.observe(trace::EventId::AllocatorSpatial,
                        static_cast<Tick>(i & 0xff));
        }
    });
    rep.typedNs = secs * 1e9 / ops;
    rep.checksum = bus.counter(trace::EventId::AllocatorAllocate);
    return rep;
}

// --- merge path -----------------------------------------------------

/** Touch every registered event on @p bus (per its kind). */
void
publishFullRegistry(Telemetry &bus, std::size_t salt)
{
    for (std::size_t i = 0; i < trace::kEventCount; ++i) {
        auto id = static_cast<trace::EventId>(i);
        switch (trace::eventKind(id)) {
        case trace::EventKind::Counter:
            bus.count(id, (salt + i) % 7 + 1);
            break;
        case trace::EventKind::Timer:
            bus.observe(id, static_cast<Tick>((salt + i) % 11 + 1));
            break;
        case trace::EventKind::Gauge:
            bus.gauge(id, salt + i);
            break;
        }
    }
}

/** Milliseconds to merge a full sweep of @p buses into a fresh bus. */
double
timeMerge(std::size_t buses, std::size_t rounds)
{
    std::vector<Telemetry> sweep(buses);
    for (std::size_t b = 0; b < buses; ++b)
        publishFullRegistry(sweep[b], b);

    double total = bestSeconds([&] {
        for (std::size_t r = 0; r < rounds; ++r) {
            Telemetry target;
            for (const Telemetry &bus : sweep)
                target.merge(bus);
        }
    });
    return total * 1e3 / static_cast<double>(rounds);
}

// --- checks ---------------------------------------------------------

struct CheckReport
{
    bool replayOk = false;
    std::size_t replayCommits = 0;
    std::string firstFailure;
};

bool
checkReplay(CheckReport &rep)
{
    const std::string path = "bench_trace_capture.bin";

    serve::EngineConfig cfg;
    cfg.nodes = 2;
    cfg.serverCap = 80.0;
    cfg.seedBase = 23;
    {
        serve::ServeEngine engine(cfg);
        if (!engine.startCapture(path)) {
            rep.firstFailure = "could not open capture file";
            return false;
        }
        serve::EventRequest ev;
        ev.op = serve::EventOp::Arrival;
        for (std::uint32_t w = 0; w < 4; ++w) {
            ev.workload = w;
            ev.node = -1;
            engine.apply(ev);
        }
        engine.commit();
        ev = serve::EventRequest{};
        ev.op = serve::EventOp::CapChange;
        ev.node = -1; // broadcast
        ev.value = 55.0;
        engine.apply(ev);
        engine.commit();
        ev = serve::EventRequest{};
        ev.op = serve::EventOp::Advance;
        ev.value = 2.0;
        engine.apply(ev);
        engine.commit();
        engine.stopCapture();
    }

    serve::Capture capture;
    std::string error;
    if (!serve::readCapture(path, capture, error)) {
        rep.firstFailure = "capture unreadable: " + error;
        std::remove(path.c_str());
        return false;
    }
    rep.replayCommits = capture.commitCount();

    for (unsigned width : {1u, 4u}) {
        util::ThreadPool::configureGlobal(width);
        serve::ReplayResult result = serve::replayCapture(capture);
        if (!result.ok) {
            rep.firstFailure = "replay diverged at width " +
                               std::to_string(width) + ": " +
                               result.firstMismatch;
            std::remove(path.c_str());
            return false;
        }
    }
    std::remove(path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::cerr << "usage: " << argv[0]
                      << " [--check] [--quick]\n";
            return 2;
        }
    }

    const std::size_t iters = quick ? 400000 : 4000000;
    const std::size_t buses = quick ? 32 : 64;
    const std::size_t rounds = quick ? 50 : 200;

    PublishReport publish = timePublish(iters);
    double merge_ms = timeMerge(buses, rounds);

    CheckReport checks;
    if (check)
        checks.replayOk = checkReplay(checks);

    // --- JSON ------------------------------------------------------
    std::cout << "{\"bench\":\"trace\",\"events\":"
              << trace::kEventCount << ",";
    std::cout << "\"publish\":{\"iters\":" << iters
              << ",\"typed_ns\":" << publish.typedNs
              << ",\"checksum\":" << publish.checksum << "},";
    std::cout << "\"merge\":{\"buses\":" << buses
              << ",\"rounds\":" << rounds
              << ",\"sweep_ms\":" << merge_ms << "}";
    if (check) {
        std::cout << ",\"check\":{\"replay\":"
                  << (checks.replayOk ? "true" : "false")
                  << ",\"replay_commits\":" << checks.replayCommits
                  << "}";
    }
    std::cout << "}\n";

    if (check && !checks.replayOk) {
        std::cerr << "CHECK FAILED: " << checks.firstFailure << "\n";
        return 1;
    }
    return 0;
}
