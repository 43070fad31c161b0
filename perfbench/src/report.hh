/**
 * @file
 * Metric collection and the result line of the benchmark harness.
 *
 * A run prints human-readable detail lines (each starting with "# ")
 * followed by exactly one JSON object on the last line of stdout:
 *
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
 *
 * Only the metrics the run was asked for (end-to-end without tracing,
 * per-layer with tracing) go into the JSON; everything else, including
 * sample counts, phase accounting and correctness gates, goes into the
 * detail lines.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Microseconds from @p a to @p b. */
inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Seconds from @p t0 until now. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Exact percentile (0..100) of a sample; 0 for an empty sample. */
double quantile(const std::vector<double> &samples, double p);

/** Median of a sample; 0 for an empty sample. */
double median(const std::vector<double> &samples);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** num / den, or 0 when den is not positive. */
double ratio(double num, double den);

/** A value with all 17 significant digits. */
std::string exact(double v);

/** Events of one phase, classified by how they ended. */
struct PhaseCount
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0; ///< valid answer (no free socket)
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t badRequest = 0;
    std::uint64_t transport = 0; ///< transport error or no reply

    std::uint64_t
    failed() const
    {
        return shed + expired + badRequest + transport;
    }
};

class Report
{
  public:
    /** Which metric set goes into the JSON result line.  Detail
     * metrics are printed (at full precision) but never in the JSON:
     * end-to-end numbers that are 0 on a healthy run, or that vary
     * between runs more than any bound allows. */
    enum class Set
    {
        EndToEnd,
        PerLayer,
        Detail,
    };

    explicit Report(Set wanted) : want(wanted) {}

    /** Record one metric.  @p samples is how many observations the
     * value summarizes. */
    void metric(Set set, const std::string &name, double value,
                const std::string &unit, std::size_t samples,
                const std::string &note = "");

    void
    endToEnd(const std::string &name, double value,
             const std::string &unit, std::size_t samples,
             const std::string &note = "")
    {
        metric(Set::EndToEnd, name, value, unit, samples, note);
    }

    void
    detail(const std::string &name, double value, const std::string &unit,
           std::size_t samples, const std::string &note = "")
    {
        metric(Set::Detail, name, value, unit, samples, note);
    }

    void
    perLayer(const std::string &name, double value,
             const std::string &unit, std::size_t samples,
             const std::string &note = "")
    {
        metric(Set::PerLayer, name, value, unit, samples, note);
    }

    /** Record a correctness gate; any failed gate fails the run. */
    void gate(const std::string &name, bool ok,
              const std::string &detail);

    /** Record the accounting of one phase (warm-up, measure, ...). */
    void phase(const std::string &name, const PhaseCount &count);

    /** A free-form detail line. */
    void note(const std::string &line);

    /** Operations attempted / failed for the result line. */
    void
    setAttempted(std::uint64_t attempted, std::uint64_t failed)
    {
        n_attempted = attempted;
        n_failed = failed;
    }

    /**
     * Make sure every metric of @p set named in @p wanted was
     * reported.  A missing end-to-end metric fails the run; a missing
     * per-layer metric reads 0 because its layer is not on this
     * workload's path.
     */
    void require(Set set,
                 const std::vector<std::pair<std::string, std::string>>
                     &wanted);

    bool correct() const;

    /** Print the detail lines, then the JSON result line. */
    void print(std::ostream &os) const;

  private:
    struct Metric
    {
        Set set;
        std::string name;
        double value;
        std::string unit;
        std::size_t samples;
        std::string note;
    };
    struct Gate
    {
        std::string name;
        bool ok;
        std::string detail;
    };

    Set want;
    std::vector<Metric> metrics;
    std::vector<Gate> gates;
    std::vector<std::string> lines;
    std::uint64_t n_attempted = 0;
    std::uint64_t n_failed = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
