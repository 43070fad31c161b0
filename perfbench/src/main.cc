/**
 * @file
 * psm_perfbench: the repository benchmark.
 *
 *   psm_perfbench --workload <serve-churn|serve-capstorm|cluster-diurnal>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *                 [--trace-out <spans.jsonl>]
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the same
 * workload again with spans around every call into a layer and
 * reports the per-layer metrics.  The last line of stdout is the JSON
 * result; the exit code is non-zero when a correctness gate fails.
 */

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "workloads.hh"

namespace
{

using Wanted = std::vector<std::pair<std::string, std::string>>;

/** The end-to-end metrics every untraced run puts in its result
 * line.  latency_p50_us, events_per_s, sim_s_per_wall_s, failed_frac,
 * agg_perf and cap_violation_frac are printed as detail metrics: on a
 * shared host the first three drift with its single-core speed by
 * more than any bound allows on serve-churn (perfbench/README.md). */
const Wanted kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p99_us", "us"},
    {"slo_met_frac", "frac"},
    {"peak_rss_mb", "MiB"},
};

/** The per-layer metrics every traced run reports, with the
 * end-to-end metric (and workload) each should move. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves;
};

const LayerMetric kPerLayer[] = {
    {"net.codec_us", "us", "latency_p50_us on serve-capstorm"},
    {"serve.apply_us.advance", "us", "latency_p50_us on both serve"},
    {"serve.apply_us.cap", "us", "latency_p50_us on both serve"},
    {"serve.apply_us.arrival", "us", "latency_p50_us on serve-churn"},
    {"serve.apply_us.phase", "us", "latency_p50_us on serve-churn"},
    {"serve.apply_us.kill", "us", "latency_p50_us on serve-churn"},
    {"serve.commit_p50_us", "us", "latency_p99_us, events_per_s on serve-churn"},
    {"serve.commit_p99_us", "us", "latency_p99_us, events_per_s on serve-churn"},
    {"serve.digest_us", "us", "latency_p50_us on both serve"},
    {"serve.batch_size", "count", "latency_p99_us, slo_met_frac on serve-capstorm"},
    {"serve.shed", "count", "slo_met_frac (failed_frac) on serve-capstorm"},
    {"serve.expired", "count", "slo_met_frac (failed_frac) on serve-capstorm"},
    {"serve.queue_depth_max", "count", "latency_p99_us on serve-capstorm"},
    {"trace.snapshot_us", "us", "latency_p50_us on serve-capstorm"},
    {"cf.als_fits", "count", "latency_p99_us, events_per_s on serve-churn (~0 on serve-capstorm)"},
    {"cf.als_sweeps", "count", "latency_p99_us, events_per_s on serve-churn"},
    {"cf.als_fit_ms", "ms", "latency_p99_us, events_per_s on serve-churn"},
    {"cf.surface_cache_hit_ratio", "ratio", "latency_p99_us, events_per_s on serve-churn"},
    {"core.allocator.solve_us", "us", "latency_p50_us on serve-capstorm"},
    {"core.allocator.calls", "count", "latency_p50_us on serve-capstorm"},
    {"core.allocator.dp_full_hit_ratio", "ratio", "latency_p50_us on serve-capstorm"},
    {"core.allocator.esd_plans", "count", "latency_p50_us on serve-capstorm"},
    {"core.reallocations", "count", "latency_p50_us on serve-capstorm, sim_s_per_wall_s on cluster-diurnal"},
    {"core.control_polls", "count", "sim_s_per_wall_s on all"},
    {"core.trim_replans", "count", "latency_p50_us on serve-capstorm"},
    {"core.selector.spatial-utility", "count", "latency_p50_us on serve-capstorm"},
    {"core.selector.temporal-utility", "count", "latency_p50_us on serve-capstorm"},
    {"core.selector.esd-assisted", "count", "latency_p50_us on serve-capstorm"},
    {"cluster.step_s", "s", "sim_s_per_wall_s on cluster-diurnal"},
    {"cluster.node_step_us", "us", "sim_s_per_wall_s on cluster-diurnal"},
    {"cluster.parallel_eff", "ratio", "sim_s_per_wall_s on cluster-diurnal"},
    {"cluster.tree.visits_per_resolve", "count", "sim_s_per_wall_s on cluster-diurnal"},
    {"cluster.tree.cap_pushes", "count", "sim_s_per_wall_s on cluster-diurnal"},
    {"sim.interactive.completions", "count", "sim_s_per_wall_s, slo_met_frac on cluster-diurnal"},
    {"bench.gen_lag_p99_us", "us", "validity of latency on serve-capstorm"},
    {"bench.trace_overhead_frac", "ratio", "validity of the traced run"},
    {"self_ms.net", "ms", "the layer's share of traced wall time"},
    {"self_ms.serve", "ms", "the layer's share of traced wall time"},
    {"self_ms.trace", "ms", "the layer's share of traced wall time"},
    {"self_ms.cf", "ms", "the layer's share of traced wall time"},
    {"self_ms.pool_step", "ms", "the layer's share of traced wall time"},
    {"self_ms.cluster", "ms", "the layer's share of traced wall time"},
    {"self_ms.shadow", "ms", "work only the traced run does"},
    {"self_ms.bench", "ms", "unattributed harness time"},
};

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload <serve-churn|serve-capstorm|"
                 "cluster-diurnal> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n";
    return 2;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

bool
parseSeconds(const char *s, double &out)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (errno != 0 || end == s || *end != '\0' || !(v > 0.0) ||
        v > 600.0)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    std::uint64_t trace = 0;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *val = argv[++i];
        bool ok = true;
        if (flag == "--workload")
            opt.workload = val;
        else if (flag == "--seed")
            ok = parseU64(val, opt.seed);
        else if (flag == "--seconds")
            ok = parseSeconds(val, opt.seconds);
        else if (flag == "--trace")
            ok = parseU64(val, trace) && trace <= 1;
        else if (flag == "--trace-out")
            opt.traceOut = val;
        else
            ok = false;
        if (!ok)
            return usage(argv[0]);
    }
    opt.trace = trace == 1;
    // The daemon's progress lines would interleave with the report.
    psm::setLogLevel(psm::LogLevel::Quiet);

    perfbench::Report report(opt.trace
                                 ? perfbench::Report::Set::PerLayer
                                 : perfbench::Report::Set::EndToEnd);
    if (opt.workload == "serve-churn")
        perfbench::runServeChurn(opt, report);
    else if (opt.workload == "serve-capstorm")
        perfbench::runServeCapstorm(opt, report);
    else if (opt.workload == "cluster-diurnal")
        perfbench::runClusterDiurnal(opt, report);
    else
        return usage(argv[0]);

    report.require(perfbench::Report::Set::EndToEnd, kEndToEnd);
    Wanted layers;
    for (const LayerMetric &m : kPerLayer) {
        layers.emplace_back(m.name, m.unit);
        if (opt.trace)
            report.note(std::string("map ") + m.name + " -> " + m.moves);
    }
    report.require(perfbench::Report::Set::PerLayer, layers);
    report.print(std::cout);
    return report.correct() ? 0 : 1;
}
