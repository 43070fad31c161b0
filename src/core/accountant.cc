#include "accountant.hh"

#include <cmath>

#include "util/logging.hh"

namespace psm::core
{

DecisionTrigger
eventTrigger(EventKind kind)
{
    switch (kind) {
      case EventKind::CapChange:
        return DecisionTrigger::CapChange;
      case EventKind::Arrival:
        return DecisionTrigger::Arrival;
      case EventKind::Departure:
        return DecisionTrigger::Departure;
      case EventKind::Drift:
        return DecisionTrigger::Drift;
      default:
        panic("invalid EventKind %d", static_cast<int>(kind));
    }
}

std::string_view
eventKindName(EventKind kind)
{
    return decisionTriggerName(eventTrigger(kind));
}

void
Accountant::notifyCapChange(Watts new_cap)
{
    AccountantEvent ev;
    ev.kind = EventKind::CapChange;
    ev.newCap = new_cap;
    queued.push_back(ev);
}

void
Accountant::notifyArrival(int app_id)
{
    AccountantEvent ev;
    ev.kind = EventKind::Arrival;
    ev.appId = app_id;
    queued.push_back(ev);
    // Reset, don't keep: a reused app id (slot recycled after a kill
    // or migration) must not inherit the previous tenant's state — a
    // stale `reported_finished` would suppress the next E3 and a
    // stale `allocated` would mis-arm drift detection.
    tracked.insert_or_assign(app_id, TrackedApp{});
}

void
Accountant::setAllocatedPower(int app_id, Watts budget)
{
    auto it = tracked.find(app_id);
    if (it == tracked.end())
        it = tracked.emplace(app_id, TrackedApp{}).first;
    it->second.allocated = budget;
    it->second.drift_since = maxTick;
}

void
Accountant::forget(int app_id)
{
    tracked.erase(app_id);
}

std::vector<AccountantEvent>
Accountant::poll(const sim::Server &server)
{
    Tick now = server.now();
    std::vector<AccountantEvent> events = std::move(queued);
    queued.clear();
    for (auto &ev : events)
        ev.when = now;

    std::vector<int> vanished;
    for (auto &[id, state] : tracked) {
        if (!server.hasApp(id)) {
            // The app left the server without finishing (killed,
            // crashed, migrated away).  Emit the synthetic E3 exactly
            // once and drop the entry; skipping it forever leaked the
            // entry and silently swallowed the departure.
            if (!state.reported_finished) {
                AccountantEvent ev;
                ev.kind = EventKind::Departure;
                ev.when = now;
                ev.appId = id;
                events.push_back(ev);
            }
            vanished.push_back(id);
            continue;
        }
        const sim::Application &app = server.app(id);

        // E3: completion.
        if (app.finished()) {
            if (!state.reported_finished) {
                state.reported_finished = true;
                AccountantEvent ev;
                ev.kind = EventKind::Departure;
                ev.when = now;
                ev.appId = id;
                events.push_back(ev);
            }
            continue;
        }

        // E4: sustained deviation of observed draw from allocation.
        if (!drift_enabled || state.allocated <= 0.0 ||
            !app.running()) {
            state.drift_since = maxTick;
            continue;
        }
        Watts observed = server.observedAppPower(id);
        if (!std::isfinite(observed)) {
            // A garbage sensor reading must not masquerade as drift.
            state.drift_since = maxTick;
            continue;
        }
        double deviation = std::abs(observed - state.allocated) /
                           state.allocated;
        if (deviation > driftThreshold) {
            if (state.drift_since == maxTick)
                state.drift_since = now;
            bool held = now - state.drift_since >= driftHold;
            bool cooled =
                now - state.last_drift_event >= driftCooldown;
            if (held && cooled) {
                AccountantEvent ev;
                ev.kind = EventKind::Drift;
                ev.when = now;
                ev.appId = id;
                events.push_back(ev);
                state.last_drift_event = now;
                state.drift_since = maxTick;
            }
        } else {
            state.drift_since = maxTick;
        }
    }
    for (int id : vanished)
        tracked.erase(id);
    return events;
}

} // namespace psm::core
