#include "trace.hh"

#include <algorithm>
#include <unordered_map>

namespace psm::trace
{

namespace
{

constexpr std::string_view kEventNames[] = {
#define PSM_TRACE_EVENT(id, kind, name) name,
#include "events.def"
#undef PSM_TRACE_EVENT
};

constexpr EventKind kEventKinds[] = {
#define PSM_TRACE_EVENT(id, kind, name) EventKind::kind,
#include "events.def"
#undef PSM_TRACE_EVENT
};

static_assert(sizeof(kEventNames) / sizeof(kEventNames[0]) ==
                  kEventCount,
              "registry tables out of sync");

/** name -> id index, built once on first lookup. */
const std::unordered_map<std::string_view, EventId> &
nameIndex()
{
    static const auto *index = [] {
        auto *m = new std::unordered_map<std::string_view, EventId>();
        m->reserve(kEventCount);
        for (std::size_t i = 0; i < kEventCount; ++i)
            m->emplace(kEventNames[i], static_cast<EventId>(i));
        return m;
    }();
    return *index;
}

} // namespace

std::string_view
eventName(EventId id)
{
    return kEventNames[static_cast<std::size_t>(id)];
}

EventKind
eventKind(EventId id)
{
    return kEventKinds[static_cast<std::size_t>(id)];
}

bool
lookupEvent(std::string_view name, EventId &out)
{
    const auto &index = nameIndex();
    auto it = index.find(name);
    if (it == index.end())
        return false;
    out = it->second;
    return true;
}

void
TraceSink::mergeFrom(const TraceSink &other)
{
    if (other.empty())
        return;
    for (std::size_t i = 0; i < kEventCount; ++i) {
        if (!other.touched_flags[i])
            continue;
        touched_flags[i] = 1;
        switch (kEventKinds[i]) {
          case EventKind::Counter:
            counter_agg[i] += other.counter_agg[i];
            break;
          case EventKind::Timer: {
            TimerAgg &t = timer_agg[i];
            const TimerAgg &o = other.timer_agg[i];
            t.count += o.count;
            t.total += o.total;
            t.max = std::max(t.max, o.max);
            break;
          }
          case EventKind::Gauge:
            counter_agg[i] = other.counter_agg[i];
            break;
        }
    }
    seq_counter += other.seq_counter;
}

void
TraceSink::reset()
{
    seq_counter = 0;
    counter_agg.fill(0);
    timer_agg.fill(TimerAgg{});
    touched_flags.fill(0);
}

} // namespace psm::trace
