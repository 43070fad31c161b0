/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded by the harness itself around each call it makes
 * into a layer's public functions (the program is not instrumented).
 * Every span has a name, a start and an end, the span that caused it
 * and the id of the request it belongs to; all spans are kept in
 * memory and written out once, when the run ends.
 *
 * Each span name is registered with the layer its *self time* is
 * charged to.  A span's self time is its duration minus the part of
 * that interval covered by its direct children, so summing self time
 * by layer partitions the wall time of the root spans exactly.
 *
 * A derived span is a child whose duration is read from a counter the
 * program keeps (e.g. the learning.als_fit wall timer) rather than
 * measured here.  Only wall timers whose samples are well above their
 * 100 us tick may be turned into derived spans; simulated-time timers
 * (manager.reallocate, learning.calibration) never are.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hh"

namespace perfbench
{

class SpanRecorder
{
  public:
    using Id = std::uint32_t;
    using NameId = std::uint16_t;
    static constexpr Id kNoParent = ~Id{0};

    SpanRecorder();

    /** Register (or look up) a span name and the layer its self time
     * is charged to. */
    NameId name(const std::string &span, const std::string &layer);

    Id begin(NameId name, Id parent, std::uint64_t request);
    void end(Id span);

    /** A child of @p parent whose duration comes from a program
     * counter; it is placed at the parent's start. */
    void derived(NameId name, Id parent, double duration_us);

    std::size_t size() const { return spans.size(); }

    /** Durations (us) of every span with this name (empty when the
     * name was never registered). */
    std::vector<double> durations(const std::string &span) const;

    /** Self time (us) summed by layer. */
    std::map<std::string, double> selfTimeByLayer() const;

    /** Wall time (us) covered by root spans. */
    double rootTimeUs() const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

    /** Cost (us) of recording one begin/end pair on the running host,
     * measured by recording and discarding spans. */
    static double measureSpanCostUs();

  private:
    struct Span
    {
        NameId name = 0;
        bool derived = false;
        Id parent = kNoParent;
        std::uint64_t request = 0;
        double startUs = 0.0;
        double endUs = 0.0;
    };

    Clock::time_point origin;
    std::vector<std::string> names;
    std::vector<std::string> layers;
    std::vector<Span> spans;

    double
    nowUs() const
    {
        return microsBetween(origin, Clock::now());
    }
};

/**
 * Report what every traced run reports: self time per layer
 * (self_ms.<layer>), bench.trace_overhead_frac (span recording cost
 * plus unattributed harness time, over the traced wall) and a line
 * checking that the layers account for the traced wall time; then
 * write the spans to @p path (if any).
 */
void reportTrace(const SpanRecorder &rec, double span_cost_us,
                 const std::string &path, Report &rep);

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, SpanRecorder::NameId name,
               SpanRecorder::Id parent, std::uint64_t request)
        : rec(rec), span(rec ? rec->begin(name, parent, request)
                             : SpanRecorder::kNoParent)
    {
    }
    ~ScopedSpan()
    {
        if (rec)
            rec->end(span);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanRecorder::Id id() const { return span; }

  private:
    SpanRecorder *rec;
    SpanRecorder::Id span;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
