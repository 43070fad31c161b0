/**
 * @file
 * The trace core: compile-time event ids and single-writer sinks of
 * dense per-event aggregates with a post-hoc merge.
 *
 * This layer is the storage behind the Telemetry bus.  Publishing
 * updates one slot of a fixed per-event array in place — no
 * allocation, no string hashing, no map walk — so a sink's size is
 * set by the event registry, not by how much was published.  Merging
 * two sinks is an O(#events) array add, which is what keeps
 * cluster-scope folds over per-node buses flat as the cluster layer
 * scales toward thousands of nodes.
 *
 * The event registry lives in events.def (X-macro): one dense id per
 * name the control plane publishes.  Readers that name an event by
 * string resolve it to its id through lookupEvent().
 *
 * The sink is intentionally single-writer (one per node on the
 * parallel pool step, touched only by the thread stepping that node);
 * the deterministic merge order is the caller's, so aggregate state
 * is bit-identical across PSM_THREADS widths.
 */

#ifndef PSM_TRACE_TRACE_HH
#define PSM_TRACE_TRACE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace psm::trace
{

/** What one event's aggregate means. */
enum class EventKind : std::uint8_t
{
    Counter = 0, ///< monotonic tally; merge adds
    Timer,       ///< duration observations; merge folds count/total/max
    Gauge,       ///< last-value sample; merge keeps the later write
};

/** Dense compile-time event ids, one per registry row. */
enum class EventId : std::uint16_t
{
#define PSM_TRACE_EVENT(id, kind, name) id,
#include "events.def"
#undef PSM_TRACE_EVENT
};

/** Number of registered events (== one past the last EventId). */
inline constexpr std::size_t kEventCount = []() {
    std::size_t n = 0;
#define PSM_TRACE_EVENT(id, kind, name) ++n;
#include "events.def"
#undef PSM_TRACE_EVENT
    return n;
}();

/** The registry name of an event. */
std::string_view eventName(EventId id);

/** The aggregate kind of an event. */
EventKind eventKind(EventId id);

/**
 * Resolve a registry name to its dense id.
 * @return true and sets @p out when the name is registered.
 */
bool lookupEvent(std::string_view name, EventId &out);

/** Aggregate of one Timer event. */
struct TimerAgg
{
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t max = 0;
};

/**
 * A single-writer trace sink: dense aggregate arrays, one slot per
 * registered event, that every publish updates in place.
 */
class TraceSink
{
  public:
    /** Bump a Counter event. */
    void
    count(EventId id, std::uint64_t delta = 1)
    {
        counter_agg[touch(id)] += delta;
    }

    /** Observe one duration under a Timer event. */
    void
    observe(EventId id, std::uint64_t ticks)
    {
        TimerAgg &t = timer_agg[touch(id)];
        ++t.count;
        t.total += ticks;
        t.max = std::max(t.max, ticks);
    }

    /** Sample a Gauge event (last write wins). */
    void
    gauge(EventId id, std::uint64_t value)
    {
        counter_agg[touch(id)] = value;
    }

    /** Counter total (or last Gauge sample) for @p id. */
    std::uint64_t
    counterValue(EventId id) const
    {
        return counter_agg[static_cast<std::size_t>(id)];
    }

    /** Timer aggregate for @p id (zeroes when never observed). */
    TimerAgg
    timerValue(EventId id) const
    {
        return timer_agg[static_cast<std::size_t>(id)];
    }

    /** True once @p id was published at least once (even with a zero
     * delta). */
    bool
    touched(EventId id) const
    {
        return touched_flags[static_cast<std::size_t>(id)] != 0;
    }

    /** True when nothing was ever published. */
    bool empty() const { return seq_counter == 0; }

    /** Total publishes into this sink (monotonic; reads of this double
     * as a cheap change-detection generation). */
    std::uint64_t publishSeq() const { return seq_counter; }

    /**
     * Post-hoc merge: fold @p other's aggregates into this sink.
     * Counters add, timers fold count/total/max, gauges keep the
     * other sink's sample when it published one (merge order is the
     * caller's, so the result is deterministic).
     */
    void mergeFrom(const TraceSink &other);

    /** Drop everything. */
    void reset();

    /** Visit every touched event in id order: f(EventId). */
    template <typename F>
    void
    forEachTouched(F &&f) const
    {
        for (std::size_t i = 0; i < kEventCount; ++i) {
            if (touched_flags[i])
                f(static_cast<EventId>(i));
        }
    }

  private:
    std::uint64_t seq_counter = 0;
    std::array<std::uint64_t, kEventCount> counter_agg{};
    std::array<TimerAgg, kEventCount> timer_agg{};
    std::array<std::uint8_t, kEventCount> touched_flags{};

    /** Count one publish of @p id and return its slot. */
    std::size_t
    touch(EventId id)
    {
        auto ix = static_cast<std::size_t>(id);
        touched_flags[ix] = 1;
        ++seq_counter;
        return ix;
    }
};

} // namespace psm::trace

#endif // PSM_TRACE_TRACE_HH
