/**
 * @file
 * The benchmark's named workloads.  Each one builds its inputs from
 * the seed, measures for the requested wall time, checks the
 * program's outputs and fills a Report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "report.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::string traceOut;
};

void runServeChurn(const Options &opt, Report &report);
void runServeCapstorm(const Options &opt, Report &report);
void runClusterDiurnal(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
