/**
 * @file
 * The trace event registry: compile-time event ids, names and kinds.
 *
 * The registry lives in events.def (X-macro): one dense id per name
 * the control plane publishes, so core::Telemetry keeps one slot per
 * event in fixed arrays and a publish is an array update — no
 * allocation, no string hashing, no map walk.  Readers that name an
 * event by string resolve it to its id through lookupEvent().
 */

#ifndef PSM_TRACE_TRACE_HH
#define PSM_TRACE_TRACE_HH

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

/** Each event's aggregate kind, indexed by EventId. */
inline constexpr EventKind kEventKinds[] = {
#define PSM_TRACE_EVENT(id, kind, name) EventKind::kind,
#include "events.def"
#undef PSM_TRACE_EVENT
};

/** The registry name of an event. */
std::string_view eventName(EventId id);

/** The aggregate kind of an event. */
constexpr EventKind
eventKind(EventId id)
{
    return kEventKinds[static_cast<std::size_t>(id)];
}

/**
 * Resolve a registry name to its dense id.
 * @return true and sets @p out when the name is registered.
 */
bool lookupEvent(std::string_view name, EventId &out);

} // namespace psm::trace

#endif // PSM_TRACE_TRACE_HH
