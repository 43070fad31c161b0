#include "trace.hh"

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

} // namespace psm::trace
