#include "control_loop.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace psm::core
{

namespace
{

/** The trace event counting one accountant event kind. */
trace::EventId
eventKindTraceId(EventKind kind)
{
    switch (kind) {
      case EventKind::CapChange:
        return trace::EventId::EventCapChange;
      case EventKind::Arrival:
        return trace::EventId::EventArrival;
      case EventKind::Departure:
        return trace::EventId::EventDeparture;
      case EventKind::Drift:
        break;
    }
    return trace::EventId::EventDrift;
}

} // namespace

ControlLoop::ControlLoop(sim::Server &server, Coordinator &coordinator,
                         ControlLoopConfig config, Delegate &delegate,
                         Telemetry *telemetry)
    : srv(server), coord(coordinator), cfg(config), delegate(delegate),
      acct(cfg.accountant), tel(telemetry)
{
    if (cfg.controlPeriod == 0)
        fatal("controlPeriod must be positive");
}

void
ControlLoop::maybePoll()
{
    if (srv.now() < next_control)
        return;
    poll();
    next_control = srv.now() + cfg.controlPeriod;
}

bool
ControlLoop::updateCapTrim()
{
    // Integral cap-adherence loop: trim the budget while the metered
    // power over the last control interval rides above the cap, relax
    // slowly when back under.  The meter's energy delta is the honest
    // signal (RAPL window averages carry ghosts across duty-cycle
    // transitions).  Trim grows only in the steadily-drawing modes
    // (Space/Time) — in EsdAssisted mode the battery bridges over-cap
    // draw by design — and is bounded so it can never idle the server
    // outright.
    Watts cap = srv.cap();
    bool steady = coord.mode() == CoordinationMode::Space ||
                  coord.mode() == CoordinationMode::Time;
    Joules energy = srv.meter().totalEnergy();
    Tick meter_now = srv.now();

    // Graceful degradation: a meter read can fail (injected fault or
    // genuinely non-finite aggregate).  Hold the last-known-good
    // baselines and skip the trim update — a bogus interval average
    // must not steer the integral loop.  Energy is cumulative, so on
    // recovery the delta over the whole outage still yields a correct
    // interval average.
    bool nan_read = !std::isfinite(energy) ||
                    (faults && faults->inject(util::FaultKind::MeterNan,
                                              meter_now));
    bool stale_read =
        !nan_read && faults &&
        faults->inject(util::FaultKind::MeterStale, meter_now);
    if (nan_read || stale_read) {
        if (tel) {
            tel->count(nan_read ? trace::EventId::FaultMeterNan
                                : trace::EventId::FaultMeterStale);
            tel->count(trace::EventId::DegradedMeterFallback);
        }
        if (meter_stale_since == maxTick)
            meter_stale_since = meter_now;
        bool watchdog_changed = false;
        if (meter_now - meter_stale_since >= cfg.meterWatchdog) {
            // Staleness watchdog: after a prolonged outage, bleed the
            // trim back toward the open-loop (guard-band only)
            // budget so a stale correction cannot pin the server at a
            // wrong operating point indefinitely.
            Watts before = cap_trim;
            cap_trim *= 0.8;
            if (tel)
                tel->count(trace::EventId::DegradedMeterWatchdog);
            watchdog_changed = std::abs(cap_trim - before) > 0.25;
        }
        return watchdog_changed;
    }
    if (meter_stale_since != maxTick) {
        meter_stale_since = maxTick;
        if (tel)
            tel->count(trace::EventId::DegradedMeterRecovered);
    }

    bool changed = false;
    if (cap > 0.0 && meter_now > last_meter_time) {
        Watts interval_avg = (energy - last_meter_energy) /
                             toSeconds(meter_now - last_meter_time);
        Watts setpoint = cap - 0.5;
        Watts before = cap_trim;
        if (steady && interval_avg > setpoint) {
            cap_trim += cfg.trimGain * (interval_avg - setpoint);
        } else if (interval_avg < setpoint) {
            // Headroom: hand it back.  In Time mode the OFF slots
            // legitimately sit far below the cap, so only decay
            // there; in Space mode run the full symmetric loop.
            if (coord.mode() == CoordinationMode::Space) {
                cap_trim -= cfg.trimGain *
                            std::min(setpoint - interval_avg, 2.0);
            } else {
                cap_trim *= 0.95;
            }
        }
        Watts raw_budget = std::max(
            cap - srv.platform().idlePower - srv.platform().cmPower,
            0.0);
        cap_trim = std::clamp(cap_trim, -0.3 * raw_budget,
                              0.6 * raw_budget);
        if (std::abs(cap_trim - before) > 0.25)
            changed = true;
    }
    last_meter_energy = energy;
    last_meter_time = meter_now;
    return changed;
}

void
ControlLoop::poll()
{
    if (tel)
        tel->count(trace::EventId::ControlPolls);
    bool need_realloc = false;
    DecisionTrigger trigger{};

    if (updateCapTrim()) {
        need_realloc = true;
        trigger = DecisionTrigger::CapTrim;
        if (tel)
            tel->count(trace::EventId::ControlTrimReplans);
    }

    // Steady-state refresh: re-derive RAPL limits and re-apply the
    // plan periodically so demand-following enforcement tracks the
    // applications (temporal refreshes update slots in place).  Idle
    // mode also retries here, in case a transient drove the trim up.
    bool steady = coord.mode() == CoordinationMode::Space ||
                  coord.mode() == CoordinationMode::Time;
    if (srv.now() >= next_refresh &&
        (steady || coord.mode() == CoordinationMode::Idle)) {
        if (!need_realloc)
            trigger = DecisionTrigger::Refresh;
        need_realloc = true;
        next_refresh = srv.now() + cfg.refreshPeriod;
    }

    if (delegate.onCalibrationsDue()) {
        need_realloc = true;
        trigger = DecisionTrigger::CalibrationDone;
    }

    for (const AccountantEvent &ev : acct.poll(srv)) {
        ++event_count;
        event_log.push_back(ev);
        if (event_log.size() > maxEvents)
            event_log.pop_front();
        if (tel)
            tel->count(eventKindTraceId(ev.kind));
        switch (ev.kind) {
          case EventKind::CapChange:
            srv.setCap(ev.newCap);
            need_realloc = true;
            trigger = eventTrigger(ev.kind);
            break;
          case EventKind::Arrival:
            need_realloc = true;
            trigger = eventTrigger(ev.kind);
            break;
          case EventKind::Departure:
            // Synthetic E3s (app killed / vanished without finishing)
            // arrive with the server entry already gone.
            if (!srv.hasApp(ev.appId) && tel)
                tel->count(trace::EventId::DegradedAppReaped);
            delegate.onDeparture(ev);
            acct.forget(ev.appId);
            if (srv.hasApp(ev.appId))
                srv.remove(ev.appId);
            need_realloc = true;
            trigger = eventTrigger(ev.kind);
            break;
          case EventKind::Drift:
            if (delegate.onDrift(ev.appId)) {
                need_realloc = true;
                trigger = eventTrigger(ev.kind);
            }
            break;
        }
    }

    if (need_realloc)
        delegate.reallocate(trigger);
}

} // namespace psm::core
