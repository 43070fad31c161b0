/**
 * @file
 * The Telemetry bus: a lightweight, cross-cutting sink for control-plane
 * observability.
 *
 * Every layer of the control plane — learning pipeline, plan selector,
 * allocator, coordinator, control loop and the cluster substrate —
 * publishes into one of three primitives:
 *
 *  - counters: monotonically increasing event tallies (plan choices,
 *    accountant events, guard trips, mode transitions), plus last-value
 *    gauges;
 *  - timers: duration observations with count/total/max;
 *  - decision records: one structured record per allocation decision
 *    (trigger, policy, selected plan, resulting coordination mode,
 *    objective, budget, latency).
 *
 * The bus is a thin façade over the trace core (src/trace): publishers
 * name events by compile-time id (trace::EventId) and each publish
 * updates that event's slot in a dense per-event aggregate array in
 * place — no allocation, no string hashing, no buffering.
 * Reads may still name an event by its registry string: counter(name),
 * timer(name) and the name-ordered counters()/timers() views resolve
 * through trace::lookupEvent(), and a name outside the registry reads
 * as zero.
 *
 * The bus is passive and allocation-light: publishing never influences
 * control decisions, so a manager with and without telemetry attached
 * behaves identically.  Text and JSON dump hooks serve the benches
 * (see bench/bench_common.hh) and tests.
 */

#ifndef PSM_CORE_TELEMETRY_HH
#define PSM_CORE_TELEMETRY_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "util/units.hh"

namespace psm::core
{

/** One allocation decision as observed on the bus. */
struct DecisionRecord
{
    Tick when = 0;          ///< simulated time of the decision
    std::string trigger;    ///< comma-joined causes ("E1-cap-change",
                            ///< "refresh", "trim", "calibration", ...)
    std::string policy;     ///< policyName() of the deciding manager
    std::string plan;       ///< planChoiceName() of the selected plan
    std::string mode;       ///< coordinationModeName() after actuation
    double objective = 0.0; ///< expected Eq. 1 objective of the plan
    Watts budget = 0.0;     ///< dynamic budget the plan divided
    std::size_t apps = 0;   ///< active applications at decision time
    Tick latency = 0;       ///< allocation latency (calibration+decision)
};

/** Aggregate of one timer: observation count, total and max ticks. */
using TimerStat = trace::TimerAgg;

/**
 * The bus itself.  Not thread-safe: each bus has one writer at a time
 * (a parallel pool step gives every node its own bus); cheap enough
 * to leave attached in benches.
 */
class Telemetry
{
  public:
    // --- publishing ---------------------------------------------------

    /** Bump a counter. */
    void
    count(trace::EventId id, std::uint64_t delta = 1)
    {
        trace_sink.count(id, delta);
    }

    /** Observe one duration. */
    void
    observe(trace::EventId id, Tick elapsed)
    {
        trace_sink.observe(id, elapsed);
    }

    /** Sample a last-value gauge. */
    void
    gauge(trace::EventId id, std::uint64_t value)
    {
        trace_sink.gauge(id, value);
    }

    /** Publish one allocation decision record. */
    void record(DecisionRecord rec);

    // --- reading ------------------------------------------------------

    /** Read a counter (or gauge) by registry name (0 when never
     * bumped or not a registered counter/gauge). */
    std::uint64_t counter(const std::string &name) const;

    /** Read a counter (or gauge) by id. */
    std::uint64_t counter(trace::EventId id) const;

    /** Read a timer's aggregate by registry name (zeroes when never
     * observed or not a registered timer). */
    TimerStat timer(const std::string &name) const;

    /** Read a timer's aggregate by id. */
    TimerStat timer(trace::EventId id) const;

    /** All decision records, oldest first (bounded ring), materialized
     * from the packed log; the reference stays valid until the next
     * publish or merge. */
    const std::deque<DecisionRecord> &decisions() const;

    /** Every touched counter and gauge, name-ordered.  Same view rules
     * as decisions(). */
    const std::map<std::string, std::uint64_t> &counters() const;

    /** Every touched timer, name-ordered.  Same view rules as
     * decisions(). */
    const std::map<std::string, TimerStat> &timers() const;

    /**
     * Fold another bus's aggregates into this one: counters and
     * timers add up, gauges keep the incoming sample.  Decision
     * records are not copied; they stay on the bus that recorded
     * them.  Used to aggregate per-node telemetry at cluster scope; a
     * dense O(#events) array fold.
     */
    void merge(const Telemetry &other);

    /** Fold this bus's aggregates into a raw trace sink (the serving
     * layer's snapshot path). */
    void foldInto(trace::TraceSink &out) const;

    /** Drop everything. */
    void reset();

    /** Human-readable dump (counters, timers, recent decisions). */
    void dumpText(std::ostream &os) const;

    /** Machine-readable JSON dump of the same content.  Non-finite
     * numbers (NaN/Inf objectives or budgets) are emitted as null so
     * the output always parses. */
    void dumpJson(std::ostream &os) const;

    /**
     * Decision records kept before the ring starts dropping its
     * oldest entries (counters and timers are never dropped).
     */
    static constexpr std::size_t maxDecisions = 65536;

  private:
    /** One decision in fixed-size binary form: strings interned into
     * the bus-local string table. */
    struct PackedDecision
    {
        Tick when = 0;
        Tick latency = 0;
        double objective = 0.0;
        Watts budget = 0.0;
        std::uint64_t apps = 0;
        std::uint32_t trigger = 0; ///< intern ids
        std::uint32_t policy = 0;
        std::uint32_t plan = 0;
        std::uint32_t mode_name = 0;
    };

    trace::TraceSink trace_sink;

    /** Decision storage: packed records + interned strings. */
    std::deque<PackedDecision> packed_log;
    std::vector<std::string> intern_table;
    std::map<std::string, std::uint32_t> intern_ids;
    std::uint64_t decision_gen = 0;

    // Materialized read views, rebuilt when stale.
    mutable std::deque<DecisionRecord> decision_view;
    mutable std::map<std::string, std::uint64_t> counter_view;
    mutable std::map<std::string, TimerStat> timer_view;
    mutable std::uint64_t counter_view_seq = ~0ULL;
    mutable std::uint64_t timer_view_seq = ~0ULL;
    mutable std::uint64_t decision_view_gen = ~0ULL;

    std::uint32_t intern(const std::string &s);
};

} // namespace psm::core

#endif // PSM_CORE_TELEMETRY_HH
