/**
 * @file
 * The Accountant (Section III-C): tracks the server cap, the resident
 * applications and their power draw, and raises the four re-allocation
 * events:
 *
 *   E1 — the server power budget changed (explicit message);
 *   E2 — an application arrived (explicit message);
 *   E3 — an application departed (detected by polling);
 *   E4 — an application's power drifted from its allocated budget
 *        (detected by polling its RAPL-observed draw against the
 *        allocation, sustained over a hold window).
 */

#ifndef PSM_CORE_ACCOUNTANT_HH
#define PSM_CORE_ACCOUNTANT_HH

#include <map>
#include <string_view>
#include <vector>

#include "sim/server.hh"
#include "telemetry.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace psm::core
{

/** The four events of Section III-C. */
enum class EventKind
{
    CapChange, ///< E1
    Arrival,   ///< E2
    Departure, ///< E3
    Drift,     ///< E4
};

/** The decision trigger an event raises (E1 -> CapChange, ...). */
DecisionTrigger eventTrigger(EventKind kind);

/** Printable event name ("E1-cap-change", ...): its trigger's name. */
std::string_view eventKindName(EventKind kind);

/** One raised event. */
struct AccountantEvent
{
    EventKind kind;
    Tick when = 0;
    int appId = -1;      ///< for E2/E3/E4
    Watts newCap = 0.0;  ///< for E1
};

/** Accountant tuning. */
struct AccountantConfig
{
    /** Relative deviation of observed from allocated power that
     * counts as drift. */
    double driftThreshold = 0.30;
    /** Drift must persist this long before E4 fires.  Keep shorter
     * than the manager's refresh period: every re-allocation resets
     * the hold timer. */
    Tick driftHold = toTicks(0.3);
    /** Refractory period after an E4 for the same application. */
    Tick driftCooldown = toTicks(2.0);
};

/**
 * Polling monitor over one server.
 */
class Accountant
{
  public:
    explicit Accountant(AccountantConfig config = {});

    /** E1: the datacenter pushed a new cap. */
    void notifyCapChange(Watts new_cap);

    /** E2: the scheduler placed a new application. */
    void notifyArrival(int app_id);

    /**
     * Record the power budget the allocator granted an application
     * (the reference for E4 drift detection).
     */
    void setAllocatedPower(int app_id, Watts budget);

    /** Stop tracking a departed application. */
    void forget(int app_id);

    /**
     * Enable/disable drift detection.  The manager disables it while
     * duty cycling, where per-app draw legitimately swings between
     * zero and full.
     */
    void setDriftDetection(bool enabled) { drift_enabled = enabled; }

    /**
     * Poll the server: collects queued explicit events and runs the
     * E3/E4 detectors.  Returns every event raised since the last
     * poll.
     */
    std::vector<AccountantEvent> poll(const sim::Server &server);

  private:
    AccountantConfig cfg;
    bool drift_enabled = true;
    std::vector<AccountantEvent> queued;

    struct TrackedApp
    {
        Watts allocated = 0.0;
        Tick drift_since = maxTick; ///< when deviation started
        Tick last_drift_event = 0;
        bool reported_finished = false;
    };
    std::map<int, TrackedApp> tracked;
};

} // namespace psm::core

#endif // PSM_CORE_ACCOUNTANT_HH
