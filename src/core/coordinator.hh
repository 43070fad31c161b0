/**
 * @file
 * The Coordinator: executes an allocation on the server, coordinating
 * application power draw in space (R3a), in time (R3b), or in space
 * and time with the ESD (R4).
 *
 *  - Space: all applications run simultaneously at their allocated
 *    operating points.
 *  - Time: alternate duty cycling — applications take ON turns whose
 *    lengths follow the planned shares; someone is always running, so
 *    P_cm is always paid.
 *  - ESD-assisted: consolidated duty cycling — everybody OFF while
 *    the battery charges from the cap headroom (Eq. 3), then
 *    everybody ON together above the cap with the battery bridging
 *    the deficit (Eq. 4), with the OFF:ON ratio from Eq. 5.  Running
 *    concurrently amortizes the non-convex P_cm, which is why this
 *    beats alternate cycling (Fig. 5).
 *
 * Enforcement per application is either direct knob actuation
 * (f, n, m) or a package RAPL limit (the hardware-enforced baseline).
 */

#ifndef PSM_CORE_COORDINATOR_HH
#define PSM_CORE_COORDINATOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "power/platform.hh"
#include "sim/server.hh"
#include "telemetry.hh"
#include "util/units.hh"

namespace psm::core
{

/** Coordination regimes. */
enum class CoordinationMode : std::uint8_t
{
    Idle,        ///< nothing scheduled
    Space,       ///< simultaneous execution under the cap (R3a)
    Time,        ///< alternate duty cycling (R3b)
    EsdAssisted, ///< consolidated duty cycling with the battery (R4)
};

/** Printable mode name. */
std::string coordinationModeName(CoordinationMode mode);

/** How one application should execute while it is ON. */
struct Directive
{
    int appId = -1;
    power::KnobSetting knobs;   ///< actuated unless useRapl
    bool useRapl = false;       ///< enforce via package RAPL instead
    Watts packageLimit = 0.0;   ///< RAPL limit when useRapl
};

/** Tuning of the temporal machinery. */
struct CoordinatorConfig
{
    Tick dutyPeriod = toTicks(2.0); ///< full ON/OFF cycle length

    bool operator==(const CoordinatorConfig &) const = default;
};

/**
 * Stateful executor; the ServerManager installs plans and calls
 * advance() every simulation step.
 */
class Coordinator
{
  public:
    /** Battery SoC floor: stop discharging below this. */
    static constexpr double socFloor = 0.02;

    explicit Coordinator(CoordinatorConfig config = {});

    CoordinationMode mode() const { return current_mode; }

    /** Attach a telemetry bus (nullptr detaches). */
    void setTelemetry(Telemetry *telemetry) { tel = telemetry; }

    /** Suspend everything (no feasible plan and no ESD). */
    void idle(sim::Server &server);

    /**
     * Everybody runs at once with their directives.  An empty list
     * degrades to idle().
     */
    void coordinateSpace(sim::Server &server,
                         const std::vector<Directive> &directives);

    /**
     * Alternate duty cycling: slot i is ON for shares[i] of each duty
     * period.  Shares must be non-negative with a positive sum; a sum
     * away from 1 is renormalized (and counted on the telemetry bus).
     * An empty directive list degrades to idle().
     */
    void coordinateTime(sim::Server &server,
                        std::vector<Directive> directives,
                        std::vector<double> shares);

    /**
     * Consolidated ESD duty cycling with the given OFF fraction of
     * each period.  An empty directive list degrades to idle().
     */
    void coordinateEsd(sim::Server &server,
                       std::vector<Directive> directives,
                       double off_fraction);

    /**
     * Per-step upkeep: rotates duty-cycle turns and toggles ESD
     * charge windows.  Cheap when nothing changes.
     */
    void advance(sim::Server &server);

    /** Index of the slot currently ON in Time mode (-1 otherwise). */
    int activeSlot() const;

    /** True during the OFF (charging) phase of EsdAssisted mode. */
    bool inChargePhase() const
    {
        return current_mode == CoordinationMode::EsdAssisted &&
               esd_charging;
    }

  private:
    CoordinatorConfig cfg;
    CoordinationMode current_mode = CoordinationMode::Idle;
    Telemetry *tel = nullptr;

    // Time mode state.
    std::vector<Directive> slots;
    std::vector<double> slot_shares;
    std::size_t slot_ix = 0;
    Tick slot_started = 0;

    // ESD mode state.
    std::vector<Directive> esd_directives;
    double esd_off_fraction = 0.0;
    bool esd_charging = false;
    Tick esd_phase_started = 0;

    void applyDirective(sim::Server &server, const Directive &d,
                        bool run);
    void suspendAll(sim::Server &server);
    Tick slotLength(std::size_t ix) const;

    /** Switch modes, publishing the transition on the bus. */
    void enterMode(CoordinationMode mode);
};

} // namespace psm::core

#endif // PSM_CORE_COORDINATOR_HH
