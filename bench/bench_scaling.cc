/**
 * @file
 * Scaling bench for the performance layer: sweeps the thread-pool
 * width over a 32-node cluster cap-trace replay and measures the
 * surface cache, emitting one JSON document on stdout:
 *
 *   cluster: node-steps/second per width (and speedup vs. width 1)
 *   cache:   hit rate, cold vs. cache-hit estimate cost, warm-start
 *            sweep reduction
 *
 * `--check` turns the bench into a regression tripwire: on a
 * multi-core host the parallel cluster replay must not be slower
 * than the serial one (speedup >= 1.0), and a repeat estimate with
 * an unchanged sample mask must be a cache hit with zero ALS sweeps.
 * Exits non-zero when either property fails; on a single-core host
 * the speedup clause is vacuous and only the cache clause runs.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cf/estimator.hh"
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
    // Small shards, so that even the --quick 16-node replay spans
    // several shards: with the default 64 a cluster this size is one
    // shard, which NodePool::runAll steps inline at every width.
    cfg.shardSize = 4;
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

struct CacheReport
{
    std::size_t calls = 0;
    std::size_t hits = 0;
    double coldFitMs = 0.0;
    double hitMs = 0.0;
    double warmFitMs = 0.0;
    std::size_t coldSweeps = 0;
    std::size_t warmSweeps = 0;
    bool hitHadZeroSweeps = false;
};

CacheReport
measureCache(const cf::UtilityEstimator &est,
             const std::vector<cf::Measurement> &samples,
             const std::vector<cf::Measurement> &grown)
{
    CacheReport rep;
    cf::FitState state;
    cf::FitOutcome out;

    rep.coldFitMs =
        wallSeconds([&] { est.estimate(samples, &state, &out); }) *
        1000.0;
    rep.coldSweeps = out.sweeps;
    ++rep.calls;

    // Warm estimates with the unchanged mask: all must hit.
    rep.hitHadZeroSweeps = true;
    for (int i = 0; i < 4; ++i) {
        double s = wallSeconds(
            [&] { est.estimate(samples, &state, &out); });
        rep.hitMs += s * 1000.0 / 4.0;
        ++rep.calls;
        if (out.cacheHit)
            ++rep.hits;
        rep.hitHadZeroSweeps &= out.cacheHit && out.sweeps == 0;
    }

    // A strictly grown mask warm-starts instead of hitting.
    rep.warmFitMs =
        wallSeconds([&] { est.estimate(grown, &state, &out); }) *
        1000.0;
    rep.warmSweeps = out.sweeps;
    ++rep.calls;
    return rep;
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

    // --- corpus-sized estimator for the cache probe ----------------
    const auto &plat = power::defaultPlatform();
    cf::UtilityEstimator est(plat);
    {
        cf::Profiler prof(plat, 0.0);
        Rng rng(5);
        for (const auto &p : perf::workloadLibrary()) {
            perf::PerfModel model(plat, p);
            std::vector<double> pw, hb;
            prof.measureAll(model, pw, hb, rng);
            est.addCorpusApp(p.name, pw, hb);
        }
    }
    std::vector<std::size_t> cols;
    for (std::size_t c = 0; c < est.columnCount(); c += 10)
        cols.push_back(c); // ~10% mask
    std::vector<std::size_t> grown_cols = cols;
    for (std::size_t c = 5; c < est.columnCount(); c += 20)
        grown_cols.push_back(c);
    cf::Profiler prof(plat, 0.0);
    perf::PerfModel model(plat, perf::workload("stream"));
    Rng mrng(9);
    auto samples = prof.measure(model, cols, mrng);
    auto grown = prof.measure(model, grown_cols, mrng);

    // --- surface cache ---------------------------------------------
    util::ThreadPool::configureGlobal(0);
    CacheReport cache = measureCache(est, samples, grown);

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
    std::cout << "]},";
    std::cout << "\"cache\":{\"corpus_rows\":" << est.corpusSize()
              << ",\"columns\":" << est.columnCount()
              << ",\"sampled\":" << cols.size()
              << ",\"calls\":" << cache.calls
              << ",\"hits\":" << cache.hits << ",\"hit_rate\":"
              << static_cast<double>(cache.hits) /
                     static_cast<double>(cache.calls)
              << ",\"cold_fit_ms\":" << cache.coldFitMs
              << ",\"hit_ms\":" << cache.hitMs
              << ",\"warm_fit_ms\":" << cache.warmFitMs
              << ",\"cold_sweeps\":" << cache.coldSweeps
              << ",\"warm_sweeps\":" << cache.warmSweeps
              << ",\"hit_zero_sweeps\":"
              << (cache.hitHadZeroSweeps ? "true" : "false") << "}}"
              << std::endl;

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
        if (cache.hits != 4 || !cache.hitHadZeroSweeps) {
            std::cerr << "FAIL: unchanged-mask estimate was not a "
                         "zero-sweep cache hit ("
                      << cache.hits << "/4 hits)\n";
            ok = false;
        }
        return ok ? 0 : 1;
    }
    return 0;
}
