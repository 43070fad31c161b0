/**
 * @file
 * The trace core: compile-time event ids, fixed-size binary trace
 * records and single-writer ring-buffer sinks with a post-hoc merge.
 *
 * This layer is the storage behind the Telemetry bus.  Publishing
 * appends one 16-byte TraceRecord to a private ring — no allocation,
 * no string hashing, no map walk — and aggregation happens post hoc:
 * the ring is folded into dense per-event arrays when it fills, when
 * a value is read, or when sinks merge.  Merging two sinks is an
 * O(#events) array add, which is what keeps cluster-scope folds over
 * per-node buses flat as the cluster layer scales toward thousands
 * of nodes.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

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

/**
 * One published observation, fixed-size and binary: what travels
 * through the ring buffers and what a binary trace dump would write.
 */
struct TraceRecord
{
    std::uint16_t event = 0; ///< EventId
    std::uint8_t kind = 0;   ///< EventKind (self-describing streams)
    std::uint8_t flags = 0;  ///< reserved
    std::uint32_t seq = 0;   ///< per-sink publish sequence
    std::uint64_t value = 0; ///< delta (Counter), ticks (Timer), sample (Gauge)
};

static_assert(sizeof(TraceRecord) == 16,
              "TraceRecord must stay fixed-size and 16 bytes");

/** Aggregate of one Timer event. */
struct TimerAgg
{
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t max = 0;
};

/**
 * A single-writer trace sink: one bounded ring of TraceRecords plus
 * the dense aggregate arrays the ring folds into.
 *
 * Publish paths (count/observe/gauge) only append to the ring; all
 * aggregate reads fold lazily.  The ring is allocated on first
 * publish, so an untouched sink costs only its (zeroed) aggregate
 * arrays.
 */
class TraceSink
{
  public:
    /** Records buffered before an automatic fold. */
    static constexpr std::size_t kDefaultRingCapacity = 256;

    explicit TraceSink(std::size_t ring_capacity = kDefaultRingCapacity)
        : ring_capacity(ring_capacity ? ring_capacity : 1)
    {
    }

    /** Bump a Counter event. */
    void
    count(EventId id, std::uint64_t delta = 1)
    {
        push(id, EventKind::Counter, delta);
    }

    /** Observe one duration under a Timer event. */
    void
    observe(EventId id, std::uint64_t ticks)
    {
        push(id, EventKind::Timer, ticks);
    }

    /** Sample a Gauge event (last write wins). */
    void
    gauge(EventId id, std::uint64_t value)
    {
        push(id, EventKind::Gauge, value);
    }

    /** Counter total (or last Gauge sample) for @p id. */
    std::uint64_t counterValue(EventId id) const;

    /** Timer aggregate for @p id (zeroes when never observed). */
    TimerAgg timerValue(EventId id) const;

    /** True once @p id was published at least once (even with a zero
     * delta). */
    bool touched(EventId id) const;

    /** True when nothing was ever published. */
    bool empty() const { return seq_counter == 0; }

    /** Total records published into this sink (monotonic; reads of
     * this double as a cheap change-detection generation). */
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

    /**
     * Drain the ring into the dense aggregates.  Publishing folds
     * automatically when the ring fills; readers fold lazily.  Const
     * because aggregation is observable state, not logical state.
     */
    void fold() const;

    /** Visit every touched event in id order: f(EventId). */
    template <typename F>
    void
    forEachTouched(F &&f) const
    {
        fold();
        for (std::size_t i = 0; i < kEventCount; ++i) {
            if (touched_flags[i])
                f(static_cast<EventId>(i));
        }
    }

  private:
    std::size_t ring_capacity;
    std::uint64_t seq_counter = 0;
    mutable std::vector<TraceRecord> ring;

    mutable std::array<std::uint64_t, kEventCount> counter_agg{};
    mutable std::array<TimerAgg, kEventCount> timer_agg{};
    mutable std::array<std::uint8_t, kEventCount> touched_flags{};

    void
    push(EventId id, EventKind kind, std::uint64_t value)
    {
        if (ring.capacity() == 0)
            ring.reserve(ring_capacity);
        if (ring.size() >= ring_capacity)
            fold();
        TraceRecord rec;
        rec.event = static_cast<std::uint16_t>(id);
        rec.kind = static_cast<std::uint8_t>(kind);
        rec.seq = static_cast<std::uint32_t>(seq_counter);
        rec.value = value;
        ring.push_back(rec);
        ++seq_counter;
    }
};

} // namespace psm::trace

#endif // PSM_TRACE_TRACE_HH
