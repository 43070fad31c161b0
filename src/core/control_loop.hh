/**
 * @file
 * The ControlLoop: the reactive layer of the control plane.
 *
 * It owns the Accountant and the periodic poll that reacts to the
 * four events of Section III-C (E1 cap change, E2 arrival, E3
 * departure, E4 drift), plus the two steady-state feedback paths that
 * need no event at all: the integral cap-adherence trim and the
 * periodic plan refresh.  Whenever any of those demand a new plan it
 * calls back into its Delegate (the ServerManager), which re-runs
 * learning -> selection -> actuation.
 */

#ifndef PSM_CORE_CONTROL_LOOP_HH
#define PSM_CORE_CONTROL_LOOP_HH

#include <cstddef>
#include <deque>

#include "accountant.hh"
#include "coordinator.hh"
#include "sim/server.hh"
#include "telemetry.hh"
#include "util/fault.hh"
#include "util/units.hh"

namespace psm::core
{

/**
 * Per-server reactive loop.  The server, coordinator and delegate
 * must outlive it.
 */
class ControlLoop
{
  public:
    /** The layer above: reacts to events and replans. */
    struct Delegate
    {
        virtual ~Delegate() = default;
        /** E3: bookkeep the departed app (the server entry is still
         * alive here; the loop removes it afterwards). */
        virtual void onDeparture(const AccountantEvent &ev) = 0;
        /** E4: restart calibration if the policy wants it.
         * @return Whether a re-allocation is needed. */
        virtual bool onDrift(int app_id) = 0;
        /** Deliver due calibrations.
         * @return Whether any finished (-> re-allocate). */
        virtual bool onCalibrationsDue() = 0;
        /** Re-run selection + actuation under the current trim;
         * @p trigger names the cause. */
        virtual void reallocate(DecisionTrigger trigger) = 0;
    };

    ControlLoop(sim::Server &server, Coordinator &coordinator,
                Delegate &delegate, Telemetry *telemetry = nullptr);

    /** Accountant poll / decision period. */
    static constexpr Tick controlPeriod = toTicks(0.1);
    /** Gain of the integral cap-adherence trim loop. */
    static constexpr double trimGain = 0.5;
    /** Spatial-mode steady-state refresh period (RAPL limit and trim
     * updates without a triggering event). */
    static constexpr Tick refreshPeriod = toTicks(0.5);
    /** How long the meter may stay unreadable before the staleness
     * watchdog starts bleeding the integral trim back toward the
     * open-loop budget. */
    static constexpr Tick meterStaleLimit = toTicks(1.0);

    Accountant &accountant() { return acct; }

    /** Current integral cap-adherence correction (subtracted from the
     * dynamic budget by the layer above). */
    Watts capTrim() const { return cap_trim; }

    /** The newest events, oldest first: a ring that keeps the last
     * maxEvents, so a long-lived daemon's log stays bounded. */
    const std::deque<AccountantEvent> &eventLog() const
    {
        return event_log;
    }

    /** Events seen so far, including those the ring dropped. */
    std::size_t eventCount() const { return event_count; }

    /** Events the log keeps before it drops its oldest; the bound of
     * the decision ring (Telemetry::maxDecisions). */
    static constexpr std::size_t maxEvents = Telemetry::maxDecisions;

    /** Poll if a control period has elapsed (call once per step). */
    void maybePoll();

    /** Install the fault oracle consulted before each meter read. */
    void setFaultInjector(const util::FaultInjector *injector)
    {
        faults = injector;
    }

    /** First tick of the current meter outage (maxTick when healthy). */
    Tick meterStaleSince() const { return meter_stale_since; }

  private:
    sim::Server &srv;
    Coordinator &coord;
    Delegate &delegate;
    Accountant acct;
    Telemetry *tel;

    const util::FaultInjector *faults = nullptr;
    Tick next_control = 0;
    Tick next_refresh = 0;
    Watts cap_trim = 0.0; ///< integral cap-adherence correction
    Joules last_meter_energy = 0.0;
    Tick last_meter_time = 0;
    Tick meter_stale_since = maxTick;
    std::deque<AccountantEvent> event_log;
    std::size_t event_count = 0;

    void poll();
    bool updateCapTrim();
};

} // namespace psm::core

#endif // PSM_CORE_CONTROL_LOOP_HH
