#include "event_queue.hh"

#include "util/logging.hh"

namespace psm::sim
{

void
EventQueue::schedule(Tick when, Callback cb, std::string label)
{
    psm_assert(cb != nullptr);
    heap.push(Event{when, next_seq++, std::move(label), std::move(cb)});
}

std::size_t
EventQueue::runUntil(Tick now)
{
    std::size_t fired = 0;
    while (!heap.empty() && heap.top().when <= now) {
        // Move out before pop (the callback may schedule more events,
        // invalidating top()).  priority_queue::top() is const, but
        // popping immediately after makes the moved-from state
        // unobservable — this avoids re-allocating the callback and
        // label on every fire.
        Event ev = std::move(const_cast<Event &>(heap.top()));
        heap.pop();
        ev.cb(ev.when);
        ++fired;
    }
    return fired;
}

Tick
EventQueue::nextEventTime() const
{
    return heap.empty() ? maxTick : heap.top().when;
}

} // namespace psm::sim
