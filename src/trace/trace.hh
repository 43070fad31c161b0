/**
 * @file
 * The trace event registry: compile-time event ids, names and kinds.
 *
 * The registry lives in events.def (X-macro): one dense id per name
 * the control plane publishes, so core::Telemetry keeps one slot per
 * event in fixed arrays (timers only for the timer rows, through
 * kTimerSlots) and a publish is an array update — no allocation, no
 * string hashing, no map walk.  Readers that name an event by string
 * resolve it to its id through lookupEvent().
 */

#ifndef PSM_TRACE_TRACE_HH
#define PSM_TRACE_TRACE_HH

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
    SimTimer,    ///< simulated-time durations; merge folds count/total/max
    WallTimer,   ///< wall-clock durations; merged like SimTimer
    Gauge,       ///< last-value sample; merge keeps the later write
};

/** Whether @p kind aggregates durations (either clock domain). */
constexpr bool
isTimer(EventKind kind)
{
    return kind == EventKind::SimTimer || kind == EventKind::WallTimer;
}

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

/** Each event's aggregate kind, indexed by EventId. */
inline constexpr EventKind kEventKinds[] = {
#define PSM_TRACE_EVENT(id, kind, name) EventKind::kind,
#include "events.def"
#undef PSM_TRACE_EVENT
};

/** Number of timer rows, both clock domains. */
inline constexpr std::size_t kTimerCount = []() {
    std::size_t n = 0;
    for (EventKind kind : kEventKinds)
        n += isTimer(kind) ? 1 : 0;
    return n;
}();

/** kTimerSlots' entry for a counter or gauge row. */
inline constexpr std::uint8_t kNoTimerSlot = 0xff;
static_assert(kTimerCount < kNoTimerSlot, "timer slots overflow a byte");

/**
 * Each event's slot in a dense array of kTimerCount timer aggregates
 * (timer rows numbered in registry order), indexed by EventId;
 * kNoTimerSlot for counters and gauges.
 */
inline constexpr auto kTimerSlots = []() {
    std::array<std::uint8_t, kEventCount> slots{};
    std::uint8_t next = 0;
    for (std::size_t i = 0; i < kEventCount; ++i)
        slots[i] = isTimer(kEventKinds[i]) ? next++ : kNoTimerSlot;
    return slots;
}();

/** The registry name of an event. */
std::string_view eventName(EventId id);

/** The aggregate kind of an event. */
constexpr EventKind
eventKind(EventId id)
{
    return kEventKinds[static_cast<std::size_t>(id)];
}

/** An event's timer slot (kNoTimerSlot unless it is a timer). */
constexpr std::size_t
timerSlot(EventId id)
{
    return kTimerSlots[static_cast<std::size_t>(id)];
}

/**
 * Resolve a registry name to its dense id.
 * @return true and sets @p out when the name is registered.
 */
bool lookupEvent(std::string_view name, EventId &out);

} // namespace psm::trace

#endif // PSM_TRACE_TRACE_HH
