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
 * `--check` turns the bench into a regression tripwire:
 *
 *   1. determinism — a 4-node mixed interactive+batch pool replayed
 *                    at thread widths 1 and 4 produces bit-identical
 *                    request statistics (arrivals, completions,
 *                    violations, p99 bits);
 *   2. M/M/1       — a standalone RequestQueue run at a constant
 *                    heartbeat rate agrees with perf::LatencyModel's
 *                    closed forms at low utilization (rho <= 0.5):
 *                    p99 and mean response within 15%;
 *   3. home turf   — while the SLO is attainable the SLO-aware
 *                    allocator is never beaten on violation fraction
 *                    by the SLO-blind equal split; when both policies
 *                    lose the SLO outright it must convert the watts
 *                    into at least as much batch throughput; and it
 *                    strictly wins (fewer violations, or equal
 *                    violations and more batch throughput) on at
 *                    least one cap.
 *
 * Exits non-zero when any clause fails.
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/node_pool.hh"
#include "core/manager.hh"
#include "perf/latency.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "sim/request_queue.hh"
#include "sim/server.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;

/** One (policy, cap) cell of the mixed sweep. */
struct SloCell
{
    std::string policy;
    Watts cap = 0.0;
    double violationFraction = 0.0;
    double p99 = 0.0;            ///< observed interactive p99 (s)
    double slo = 0.0;            ///< the profile's SLO (s)
    std::uint64_t completions = 0;
    double batchPerf = 0.0;      ///< batch app normalized throughput
};

/**
 * One mixed scenario: a managed single server hosting one
 * latency-critical service and one batch application under a
 * constant cap.  Oracle utilities keep the cell deterministic and
 * calibration-free, so any violation-fraction gap between policies
 * is allocation, not estimation.
 */
SloCell
runCell(core::PolicyKind kind, const std::string &policy_name,
        Watts cap, double seconds)
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

    SloCell cell;
    cell.policy = policy_name;
    cell.cap = cap;
    for (const core::AppRecord &rec : manager.records()) {
        if (rec.id == iid) {
            cell.violationFraction = rec.violationFraction();
            cell.p99 = rec.requestP99;
            cell.slo = rec.sloP99;
            cell.completions = rec.requestCompletions;
        } else {
            cell.batchPerf = rec.normalizedPerf(server.now());
        }
    }
    return cell;
}

void
printCell(const SloCell &cell, bool first)
{
    std::cout << (first ? "" : ",") << "{\"policy\":\"" << cell.policy
              << "\",\"cap_w\":" << cell.cap
              << ",\"violation_fraction\":" << cell.violationFraction
              << ",\"p99_s\":" << cell.p99 << ",\"slo_s\":" << cell.slo
              << ",\"completions\":" << cell.completions
              << ",\"batch_perf\":" << cell.batchPerf << "}";
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

void
mixF(std::uint64_t &h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(h, bits);
}

/**
 * Clause 1 scenario: a 4-node managed pool, each node hosting one
 * interactive service (library rotated) and one batch app, replayed
 * through a cap step.  Returns a fingerprint over every record's
 * request statistics and beats — any cross-width divergence lands in
 * the hash.
 */
std::uint64_t
poolFingerprint(double seconds)
{
    cluster::NodePoolConfig pc;
    pc.servers = 4;
    pc.manager.oracleUtilities = true;
    pc.seedWorkloadCorpus = false;
    pc.seedBase = 77;
    pc.serverCap = 95.0;
    cluster::NodePool pool(pc);

    const auto &ilib = perf::interactiveLibrary();
    const char *batch[] = {"stream", "kmeans", "pagerank", "x264"};
    for (std::size_t s = 0; s < pool.size(); ++s) {
        pool[s].manager->addApp(ilib[s % ilib.size()]);
        pool[s].manager->addApp(perf::workload(batch[s]));
    }

    pool.runAll(toTicks(seconds));
    for (auto &node : pool)
        node.manager->setCap(70.0); // mid-replay cap step
    pool.runAll(toTicks(seconds));

    std::uint64_t h = kFnvOffset;
    for (auto &node : pool) {
        for (const core::AppRecord &rec : node.manager->records()) {
            mix(h, static_cast<std::uint64_t>(rec.id));
            mixF(h, rec.beats);
            mix(h, rec.requestArrivals);
            mix(h, rec.requestCompletions);
            mix(h, rec.requestSloViolations);
            mixF(h, rec.requestP99);
            mixF(h, rec.requestMeanResponse);
            mix(h, rec.queueDepth);
        }
    }
    return h;
}

bool
checkDeterminism(double seconds)
{
    util::ThreadPool::configureGlobal(1);
    std::uint64_t reference = poolFingerprint(seconds);
    util::ThreadPool::configureGlobal(4);
    bool ok = poolFingerprint(seconds) == reference;
    if (!ok)
        std::cerr << "FAIL: width 4 diverges from the width-1 replay\n";
    util::ThreadPool::configureGlobal(0); // restore the default
    return ok;
}

/** One simulated-vs-analytic agreement point. */
struct Mm1Point
{
    double rho = 0.0;
    double simP99 = 0.0;
    double mm1P99 = 0.0;
    double simMean = 0.0;
    double mm1Mean = 0.0;
    std::uint64_t completions = 0;
};

/**
 * Clause 2: drive a standalone RequestQueue at a constant heartbeat
 * rate — exactly the M/M/1 regime — and compare against the closed
 * forms.  The SLO is pinned to the analytic p99 so the response
 * histogram's span (32 SLOs, 4096 bins) resolves the percentile to
 * well under the tolerance.
 */
Mm1Point
mm1Point(double rho, double seconds)
{
    perf::AppProfile p = perf::interactiveLibrary()[1]; // kvstore
    const double mu = 500.0; // requests per second
    const double hb_rate = mu * p.hbPerRequest;
    p.offeredLoad = rho * mu;
    p.sloP99 = perf::LatencyModel::p99(mu, p.offeredLoad);
    p.validate();

    sim::RequestQueue queue(p, 12345);
    queue.advance(0, toTicks(seconds), hb_rate);

    Mm1Point pt;
    pt.rho = rho;
    pt.simP99 = queue.p99();
    pt.mm1P99 = p.sloP99;
    pt.simMean = queue.meanResponse();
    pt.mm1Mean = perf::LatencyModel::meanSojourn(mu, p.offeredLoad);
    pt.completions = queue.completed();
    return pt;
}

bool
checkMm1(const std::vector<Mm1Point> &points)
{
    bool ok = true;
    constexpr double kTolerance = 0.15;
    for (const Mm1Point &pt : points) {
        double p99_err =
            std::fabs(pt.simP99 - pt.mm1P99) / pt.mm1P99;
        double mean_err =
            std::fabs(pt.simMean - pt.mm1Mean) / pt.mm1Mean;
        if (pt.completions < 10000) {
            std::cerr << "FAIL: rho " << pt.rho << " completed only "
                      << pt.completions
                      << " requests — vacuous agreement check\n";
            ok = false;
        }
        if (!(p99_err <= kTolerance)) {
            std::cerr << "FAIL: rho " << pt.rho << " simulated p99 "
                      << pt.simP99 << " s vs M/M/1 " << pt.mm1P99
                      << " s (" << p99_err * 100.0 << "% off)\n";
            ok = false;
        }
        if (!(mean_err <= kTolerance)) {
            std::cerr << "FAIL: rho " << pt.rho
                      << " simulated mean response " << pt.simMean
                      << " s vs M/M/1 " << pt.mm1Mean << " s ("
                      << mean_err * 100.0 << "% off)\n";
            ok = false;
        }
    }
    return ok;
}

/**
 * Clause 3: across the cap sweep the SLO-aware allocator must never
 * lose to the SLO-blind equal split on violation fraction while the
 * SLO is attainable, and must strictly win somewhere — fewer
 * violations, or the same violations bought with more batch
 * throughput.  Caps where BOTH policies blow the SLO outright are
 * judged on batch throughput instead: there the aware allocator
 * abandons the hopeless knee by design (the utility surface collapses
 * toward zero once the queue is unstable), and its win is converting
 * the service's watts into batch work, not shaving a 100% violation
 * fraction to 97%.
 */
bool
checkHomeTurf(const std::vector<SloCell> &cells)
{
    bool ok = true;
    bool strict_win = false;
    for (const SloCell &aware : cells) {
        if (aware.policy != "app-res-aware")
            continue;
        for (const SloCell &blind : cells) {
            if (blind.policy != "util-unaware" ||
                blind.cap != aware.cap)
                continue;
            bool slo_lost = aware.violationFraction > 0.5 &&
                            blind.violationFraction > 0.5;
            if (slo_lost) {
                if (aware.batchPerf + 1e-9 < blind.batchPerf) {
                    std::cerr
                        << "FAIL: at " << aware.cap
                        << " W the SLO is lost under both policies "
                           "but the SLO-aware allocator also gets "
                           "less batch throughput ("
                        << aware.batchPerf << " vs "
                        << blind.batchPerf << ")\n";
                    ok = false;
                }
            } else if (aware.violationFraction >
                       blind.violationFraction + 0.02) {
                std::cerr << "FAIL: at " << aware.cap
                          << " W the SLO-aware allocator violates "
                          << aware.violationFraction
                          << " of requests vs the blind split's "
                          << blind.violationFraction << "\n";
                ok = false;
            }
            bool fewer_violations =
                aware.violationFraction + 0.02 <
                blind.violationFraction;
            bool same_violations_more_batch =
                aware.violationFraction <=
                    blind.violationFraction + 1e-9 &&
                aware.batchPerf > blind.batchPerf + 0.02;
            strict_win |= fewer_violations ||
                          same_violations_more_batch;
        }
    }
    if (!strict_win) {
        std::cerr << "FAIL: the SLO-aware allocator never strictly "
                     "beats the blind equal split on the sweep\n";
        ok = false;
    }
    return ok;
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

    const double mm1_seconds = quick ? 300.0 : 1200.0;
    const double cell_seconds = quick ? 30.0 : 90.0;

    std::cout << "{\"bench\":\"slo\",\"mm1\":[";
    std::vector<Mm1Point> points;
    for (double rho : {0.3, 0.5}) {
        points.push_back(mm1Point(rho, mm1_seconds));
        const Mm1Point &pt = points.back();
        std::cout << (points.size() == 1 ? "" : ",") << "{\"rho\":"
                  << pt.rho << ",\"sim_p99_s\":" << pt.simP99
                  << ",\"mm1_p99_s\":" << pt.mm1P99
                  << ",\"sim_mean_s\":" << pt.simMean
                  << ",\"mm1_mean_s\":" << pt.mm1Mean
                  << ",\"completions\":" << pt.completions << "}";
    }
    std::cout << "],\"cells\":[";

    // The mixed sweep: caps from starvation to headroom.  The blind
    // split halves the cap regardless of where the service's SLO knee
    // sits; the SLO-aware allocator places the knee first and hands
    // the remainder to the batch app.
    std::vector<Watts> caps = quick
                                  ? std::vector<Watts>{80.0, 90.0,
                                                       100.0, 110.0}
                                  : std::vector<Watts>{75.0, 80.0,
                                                       85.0, 90.0,
                                                       95.0, 100.0,
                                                       105.0, 110.0};
    std::vector<SloCell> cells;
    for (Watts cap : caps) {
        for (auto [kind, name] :
             {std::pair{core::PolicyKind::AppResAware,
                        "app-res-aware"},
              std::pair{core::PolicyKind::UtilUnaware,
                        "util-unaware"}}) {
            cells.push_back(runCell(kind, name, cap, cell_seconds));
            printCell(cells.back(), cells.size() == 1);
        }
    }
    std::cout << "]}" << std::endl;

    if (!check)
        return 0;

    bool ok = checkDeterminism(quick ? 5.0 : 15.0);
    ok = checkMm1(points) && ok;
    ok = checkHomeTurf(cells) && ok;
    return ok ? 0 : 1;
}
