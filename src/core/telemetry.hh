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
 * The bus is the one telemetry store.  Publishers name events by
 * compile-time id (trace::EventId, registered in trace/events.def),
 * and each publish updates that event's slot in three dense per-event
 * arrays in place — no allocation, no string hashing, no buffering.
 * Decision records are kept as published, in a fixed-size typed form.
 * Reads may still name an event by its registry string: counter(name),
 * timer(name) and the name-ordered counters()/timers() maps resolve
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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "trace/trace.hh"
#include "util/units.hh"

namespace psm::core
{

enum class PolicyKind : std::uint8_t;       // policy.hh
enum class PlanChoice : std::uint8_t;       // plan_selector.hh
enum class CoordinationMode : std::uint8_t; // coordinator.hh

/** One allocation decision as observed on the bus. */
struct DecisionRecord
{
    Tick when = 0;            ///< simulated time of the decision
    std::string_view trigger; ///< static-storage cause ("E1-cap-change",
                              ///< "refresh", "cap-trim", ...)
    PolicyKind policy{};      ///< the deciding manager's policy
    PlanChoice plan{};        ///< the selected plan
    CoordinationMode mode{};  ///< coordination mode after actuation
    std::uint32_t apps = 0;   ///< active applications at decision time
    double objective = 0.0;   ///< expected Eq. 1 objective of the plan
    Watts budget = 0.0;       ///< dynamic budget the plan divided
    Tick latency = 0;         ///< allocation latency (calibration+decision)
};

// One cluster-diurnal replay keeps 81,208 records across its buses; a
// record must not outgrow the 56 bytes that costs today.
static_assert(sizeof(DecisionRecord) <= 56,
              "DecisionRecord grew past 56 bytes");

/** Aggregate of one timer: observation count, total and max ticks. */
struct TimerStat
{
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t max = 0;
};

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
        counter_value[touch(id)] += delta;
    }

    /** Observe one duration. */
    void
    observe(trace::EventId id, Tick elapsed)
    {
        TimerStat &t = timer_value[touch(id)];
        ++t.count;
        t.total += elapsed;
        t.max = std::max(t.max, elapsed);
    }

    /** Sample a last-value gauge. */
    void
    gauge(trace::EventId id, std::uint64_t sample)
    {
        counter_value[touch(id)] = sample;
    }

    /** Publish one allocation decision record. */
    void record(const DecisionRecord &rec);

    // --- reading ------------------------------------------------------

    /** Read a counter (or gauge) by registry name (0 when never
     * bumped or not a registered counter/gauge). */
    std::uint64_t counter(const std::string &name) const;

    /** Read a counter (or gauge) by id. */
    std::uint64_t
    counter(trace::EventId id) const
    {
        return counter_value[static_cast<std::size_t>(id)];
    }

    /** Read a timer's aggregate by registry name (zeroes when never
     * observed or not a registered timer). */
    TimerStat timer(const std::string &name) const;

    /** Read a timer's aggregate by id. */
    TimerStat
    timer(trace::EventId id) const
    {
        return timer_value[static_cast<std::size_t>(id)];
    }

    /** True once @p id was published at least once (even with a zero
     * delta). */
    bool
    touched(trace::EventId id) const
    {
        return touched_flag[static_cast<std::size_t>(id)] != 0;
    }

    /** Visit every touched event in id order: f(EventId). */
    template <typename F>
    void
    forEachTouched(F &&f) const
    {
        for (std::size_t i = 0; i < trace::kEventCount; ++i) {
            if (touched_flag[i])
                f(static_cast<trace::EventId>(i));
        }
    }

    /** All decision records, oldest first (bounded ring). */
    const std::deque<DecisionRecord> &
    decisions() const
    {
        return decision_log;
    }

    /** Every touched counter and gauge, name-ordered. */
    std::map<std::string, std::uint64_t> counters() const;

    /** Every touched timer, name-ordered. */
    std::map<std::string, TimerStat> timers() const;

    /**
     * Fold another bus's aggregates into this one: counters and
     * timers add up, and a gauge takes the incoming sample only when
     * @p other published one.  Decision records are not copied; they
     * stay on the bus that recorded them.  Used to aggregate per-node
     * telemetry at cluster scope; a dense O(#events) array fold whose
     * order is the caller's, so the result is deterministic.
     */
    void merge(const Telemetry &other);

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
    /** Counter total or last gauge sample, per event. */
    std::array<std::uint64_t, trace::kEventCount> counter_value{};
    std::array<TimerStat, trace::kEventCount> timer_value{};
    std::array<std::uint8_t, trace::kEventCount> touched_flag{};
    std::deque<DecisionRecord> decision_log;

    /** Mark @p id published and return its slot. */
    std::size_t
    touch(trace::EventId id)
    {
        auto ix = static_cast<std::size_t>(id);
        touched_flag[ix] = 1;
        return ix;
    }
};

} // namespace psm::core

#endif // PSM_CORE_TELEMETRY_HH
