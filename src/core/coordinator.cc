#include "coordinator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace psm::core
{

std::string
coordinationModeName(CoordinationMode mode)
{
    switch (mode) {
      case CoordinationMode::Idle:
        return "idle";
      case CoordinationMode::Space:
        return "space";
      case CoordinationMode::Time:
        return "time";
      case CoordinationMode::EsdAssisted:
        return "esd";
      default:
        panic("invalid CoordinationMode %d", static_cast<int>(mode));
    }
}

namespace
{

/** The trace event counting one mode entry (the typed equivalent of
 * the old "coordinator.enter." + coordinationModeName() key). */
trace::EventId
enterModeTraceId(CoordinationMode mode)
{
    switch (mode) {
      case CoordinationMode::Idle:
        return trace::EventId::CoordEnterIdle;
      case CoordinationMode::Space:
        return trace::EventId::CoordEnterSpace;
      case CoordinationMode::Time:
        return trace::EventId::CoordEnterTime;
      case CoordinationMode::EsdAssisted:
        break;
    }
    return trace::EventId::CoordEnterEsd;
}

} // namespace

Coordinator::Coordinator(CoordinatorConfig config) : cfg(config)
{
    psm_assert(cfg.dutyPeriod > 0);
}

void
Coordinator::applyDirective(sim::Server &server, const Directive &d,
                            bool run)
{
    if (!server.hasApp(d.appId))
        return;
    sim::Application &app = server.app(d.appId);
    if (run) {
        if (d.useRapl) {
            // RAPL enforcement: knobs carry the DRAM domain limit
            // (m); core power is held down by the package limit's
            // frequency throttling.
            app.setKnobs(d.knobs);
            server.setPackageLimit(app.socket(),
                                   std::max(d.packageLimit, 0.5));
        } else {
            server.clearPackageLimit(app.socket());
            app.setKnobs(d.knobs);
        }
        app.resume(server.now());
    } else {
        app.suspend(server.now());
    }
}

void
Coordinator::suspendAll(sim::Server &server)
{
    for (sim::Application *app : server.activeApps())
        app->suspend(server.now());
}

void
Coordinator::enterMode(CoordinationMode mode)
{
    if (tel && mode != current_mode)
        tel->count(enterModeTraceId(mode));
    current_mode = mode;
}

void
Coordinator::idle(sim::Server &server)
{
    enterMode(CoordinationMode::Idle);
    suspendAll(server);
    server.setEsdChargeEnabled(false);
}

void
Coordinator::coordinateSpace(sim::Server &server,
                             const std::vector<Directive> &directives)
{
    if (directives.empty()) {
        if (tel)
            tel->count(trace::EventId::CoordEmptyPlan);
        idle(server);
        return;
    }
    enterMode(CoordinationMode::Space);
    server.setEsdChargeEnabled(false);
    for (const Directive &d : directives)
        applyDirective(server, d, true);
}

void
Coordinator::coordinateTime(sim::Server &server,
                            std::vector<Directive> directives,
                            std::vector<double> shares)
{
    psm_assert(directives.size() == shares.size());
    if (directives.empty()) {
        if (tel)
            tel->count(trace::EventId::CoordEmptyPlan);
        idle(server);
        return;
    }
    double total = 0.0;
    for (double s : shares) {
        psm_assert(s >= 0.0);
        total += s;
    }
    psm_assert(total > 0.0);
    if (std::abs(total - 1.0) > 1e-6) {
        // Tolerate planners whose shares do not quite sum to one
        // (floors, rounding): renormalize rather than die.
        for (double &s : shares)
            s /= total;
        if (tel)
            tel->count(trace::EventId::CoordShareRenormalized);
    }

    // Re-planning over the same application set updates the
    // directives and shares in place without resetting the rotation,
    // so steady-state refreshes cannot starve later slots.
    bool same_apps = current_mode == CoordinationMode::Time &&
                     slots.size() == directives.size();
    if (same_apps) {
        for (std::size_t i = 0; i < slots.size(); ++i)
            same_apps &= slots[i].appId == directives[i].appId;
    }

    enterMode(CoordinationMode::Time);
    server.setEsdChargeEnabled(false);
    slots = std::move(directives);
    slot_shares = std::move(shares);
    if (same_apps && slot_ix < slots.size()) {
        // Refresh the currently running slot's enforcement only.
        applyDirective(server, slots[slot_ix], true);
        return;
    }
    slot_ix = 0;
    slot_started = server.now();

    // Start the first slot, suspend the rest.
    for (std::size_t i = 0; i < slots.size(); ++i)
        applyDirective(server, slots[i], i == slot_ix);
}

void
Coordinator::coordinateEsd(sim::Server &server,
                           std::vector<Directive> directives,
                           double off_fraction)
{
    if (directives.empty()) {
        if (tel)
            tel->count(trace::EventId::CoordEmptyPlan);
        idle(server);
        return;
    }
    psm_assert(off_fraction >= 0.0 && off_fraction < 1.0);
    if (!server.hasEsd()) {
        // The ESD vanished between planning and actuation (fault,
        // maintenance pull).  Demote to time multiplexing with equal
        // shares rather than crash: same duty structure, just no
        // battery to bridge the OFF phases.
        if (tel)
            tel->count(trace::EventId::DegradedEsdToTime);
        std::vector<double> shares(directives.size(),
                                   1.0 / static_cast<double>(
                                             directives.size()));
        coordinateTime(server, std::move(directives),
                       std::move(shares));
        return;
    }

    enterMode(CoordinationMode::EsdAssisted);
    esd_directives = std::move(directives);
    esd_off_fraction = off_fraction;
    esd_phase_started = server.now();

    // Begin with a charge phase unless the battery is already full
    // or no OFF time is needed.
    const esd::Battery *bat = server.battery();
    esd_charging = off_fraction > 0.0 && !bat->full();
    if (esd_charging) {
        suspendAll(server);
        server.setEsdChargeEnabled(true);
    } else {
        server.setEsdChargeEnabled(false);
        for (const Directive &d : esd_directives)
            applyDirective(server, d, true);
    }
}

Tick
Coordinator::slotLength(std::size_t ix) const
{
    psm_assert(ix < slot_shares.size());
    // Cumulative rounding: slot ix spans the tick range
    // [floor(P*c_ix), floor(P*c_{ix+1})) of the duty period, where
    // c_ix is the cumulative share before slot ix.  Lengths therefore
    // sum to exactly dutyPeriod — the last slot absorbs the residual
    // ticks that independent per-slot truncation used to drop (up to
    // slots.size()-1 ticks per period).
    double before = 0.0;
    for (std::size_t i = 0; i < ix; ++i)
        before += slot_shares[i];
    double period = static_cast<double>(cfg.dutyPeriod);
    Tick lo = static_cast<Tick>(before * period);
    Tick hi = ix + 1 == slot_shares.size()
                  ? cfg.dutyPeriod
                  : static_cast<Tick>((before + slot_shares[ix]) *
                                      period);
    return hi > lo ? hi - lo : 0;
}

int
Coordinator::activeSlot() const
{
    if (current_mode != CoordinationMode::Time)
        return -1;
    return static_cast<int>(slot_ix);
}

void
Coordinator::advance(sim::Server &server)
{
    Tick now = server.now();
    switch (current_mode) {
      case CoordinationMode::Idle:
      case CoordinationMode::Space:
        return;

      case CoordinationMode::Time: {
        if (slots.empty())
            return;
        // Skip zero-length slots defensively.
        std::size_t guard = 0;
        while (now - slot_started >= slotLength(slot_ix) &&
               guard++ <= slots.size()) {
            Tick len = slotLength(slot_ix);
            applyDirective(server, slots[slot_ix], false);
            // Carry the slot boundary instead of resetting it to
            // `now`: resetting discarded the overshoot past the
            // boundary, so every rotation started late and the error
            // accumulated across duty periods.
            slot_started += len;
            slot_ix = (slot_ix + 1) % slots.size();
            applyDirective(server, slots[slot_ix], true);
            if (tel)
                tel->count(trace::EventId::CoordSlotRotations);
        }
        return;
      }

      case CoordinationMode::EsdAssisted: {
        const esd::Battery *bat = server.battery();
        if (bat == nullptr) {
            // ESD lost mid-duty-cycle: fall back to time slicing the
            // surviving directives until the next replan (which will
            // see hasEsd() == false and plan without the battery).
            if (tel)
                tel->count(trace::EventId::DegradedEsdToTime);
            std::vector<Directive> ds = std::move(esd_directives);
            esd_directives.clear();
            if (ds.empty()) {
                idle(server);
                return;
            }
            std::vector<double> shares(
                ds.size(), 1.0 / static_cast<double>(ds.size()));
            coordinateTime(server, std::move(ds), std::move(shares));
            return;
        }
        Tick off_len = static_cast<Tick>(
            esd_off_fraction * static_cast<double>(cfg.dutyPeriod));
        Tick on_len = cfg.dutyPeriod - off_len;
        Tick elapsed = now - esd_phase_started;

        if (esd_charging) {
            // Leave the charge phase when its time is up or the
            // battery cannot absorb more.
            if (elapsed >= off_len || bat->full()) {
                esd_charging = false;
                esd_phase_started = now;
                server.setEsdChargeEnabled(false);
                for (const Directive &d : esd_directives)
                    applyDirective(server, d, true);
                if (tel)
                    tel->count(trace::EventId::CoordEsdPhaseFlips);
            }
        } else {
            // Leave the ON phase when its time is up or the battery
            // hit its floor (it can no longer bridge the deficit).
            bool drained = bat->soc() <= socFloor;
            if ((off_len > 0 && elapsed >= on_len) || drained) {
                esd_charging = true;
                esd_phase_started = now;
                suspendAll(server);
                server.setEsdChargeEnabled(true);
                if (tel)
                    tel->count(trace::EventId::CoordEsdPhaseFlips);
            }
        }
        return;
      }
    }
}

} // namespace psm::core
