/**
 * @file
 * Scaling bench for the performance layer: sweeps the thread-pool
 * width over a 32-node cluster cap-trace replay, emitting one JSON
 * document on stdout with node-steps/second per width (and speedup
 * vs. width 1).
 *
 * `--check` turns the bench into a regression tripwire: on a
 * multi-core host the parallel cluster replay must not be slower
 * than the serial one (speedup >= 1.0).  Exits non-zero when it is;
 * on a single-core host the clause is vacuous.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cluster/cluster_manager.hh"
#include "cluster/power_trace.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Widths to sweep: 1, 2, 4, ... capped at max(4, hardware). */
std::vector<unsigned>
sweepWidths()
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned top = std::max(4u, hw);
    std::vector<unsigned> widths;
    for (unsigned w = 1; w <= top; w *= 2)
        widths.push_back(w);
    if (widths.back() != top)
        widths.push_back(top);
    return widths;
}

struct ClusterPoint
{
    unsigned threads = 0;
    double wallSeconds = 0.0;
    double stepsPerSec = 0.0;
};

/**
 * Replay a load-following cap trace on an N-node Equal(Ours) cluster
 * at the given pool width; a "step" is one node stepped through one
 * cap interval.
 */
ClusterPoint
clusterReplayAt(unsigned width, int servers, std::size_t intervals,
                double interval_s)
{
    util::ThreadPool::configureGlobal(width);

    cluster::ClusterConfig cfg;
    cfg.policy = cluster::ClusterPolicy::EqualOurs;
    cfg.servers = servers;
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();

    cluster::TraceConfig tc;
    tc.points = intervals;
    tc.interval = toTicks(interval_s);
    cluster::PowerTrace demand = cluster::generateDiurnalDemand(tc);
    cluster::PowerTrace caps = cluster::loadFollowingCaps(
        demand, cm.uncappedDemandEstimate(), 0.25);

    ClusterPoint p;
    p.threads = width;
    p.wallSeconds = wallSeconds([&] { cm.replay(caps); });
    p.stepsPerSec = static_cast<double>(servers) *
                    static_cast<double>(intervals) / p.wallSeconds;
    return p;
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

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    int servers = quick ? 16 : 32;
    std::size_t intervals = quick ? 2 : 4;
    double interval_s = quick ? 2.0 : 5.0;

    // --- cluster stepping sweep ------------------------------------
    std::vector<ClusterPoint> cluster_pts;
    for (unsigned w : check ? std::vector<unsigned>{1, hw}
                            : sweepWidths()) {
        cluster_pts.push_back(
            clusterReplayAt(w, servers, intervals, interval_s));
        if (check && hw == 1)
            break; // speedup clause is vacuous on one core
    }

    // --- JSON ------------------------------------------------------
    std::cout << "{\"bench\":\"scaling\",\"hardware_concurrency\":"
              << hw << ",";
    std::cout << "\"cluster\":{\"servers\":" << servers
              << ",\"intervals\":" << intervals
              << ",\"interval_s\":" << interval_s << ",\"sweep\":[";
    for (std::size_t i = 0; i < cluster_pts.size(); ++i) {
        const ClusterPoint &p = cluster_pts[i];
        std::cout << (i ? "," : "") << "{\"threads\":" << p.threads
                  << ",\"wall_s\":" << p.wallSeconds
                  << ",\"steps_per_sec\":" << p.stepsPerSec
                  << ",\"speedup\":"
                  << p.stepsPerSec / cluster_pts[0].stepsPerSec
                  << "}";
    }
    std::cout << "]}}" << std::endl;

    if (check) {
        bool ok = true;
        if (hw > 1 && cluster_pts.size() == 2) {
            double speedup = cluster_pts[1].stepsPerSec /
                             cluster_pts[0].stepsPerSec;
            if (speedup < 1.0) {
                std::cerr << "FAIL: parallel cluster stepping slower "
                             "than serial (speedup "
                          << speedup << " at " << hw
                          << " threads)\n";
                ok = false;
            }
        }
        return ok ? 0 : 1;
    }
    return 0;
}
