/**
 * @file
 * The power management policies compared in the paper's evaluation
 * (Sections IV-A and IV-B), from the utility-oblivious RAPL baseline
 * up to the full application+resource+ESD-aware scheme.
 */

#ifndef PSM_CORE_POLICY_HH
#define PSM_CORE_POLICY_HH

#include <cstdint>
#include <string>

#include "power/platform.hh"
#include "util/units.hh"

namespace psm::core
{

/**
 * The policies: the paper's five schemes plus the rival allocators
 * of the policy arena.  The enum value doubles as the capture-file
 * wire encoding, so values are append-only; everything else about a
 * policy (names, capability flags, custom planners) lives in the
 * PolicyRegistry.
 */
enum class PolicyKind : std::uint8_t
{
    /**
     * Baseline 1: fair (equal) power split, enforced with package
     * RAPL limits; no knowledge of utilities.
     */
    UtilUnaware,
    /**
     * Baseline 2: equal split, but knob settings chosen from
     * resource-level utilities *averaged across all applications* —
     * resource-aware, application-unaware.
     */
    ServerResAware,
    /**
     * Application-level utility aware: unequal split via the
     * allocator, but power within an application is enforced by
     * frequency scaling only (no per-resource apportioning).
     */
    AppAware,
    /**
     * The paper's main scheme: unequal split plus per-resource
     * apportioning through the full (f, n, m) knob space.
     */
    AppResAware,
    /**
     * AppResAware plus consolidated ESD duty cycling when the cap is
     * too stringent for spatial coordination.
     */
    AppResEsdAware,
    /**
     * FastCap-style fair capping (Liu et al.): max-min fairness over
     * normalized performance with joint core+memory knob choice — a
     * uniform throttle level water-filled over the frontier ladder,
     * leftover spent worst-first.
     */
    FastCapFair,
    /**
     * CuttleSys-style data-driven search (Kulkarni et al.): the CF
     * utility estimates seed a greedy local search (upgrades and
     * downgrade/upgrade swaps) over the joint frontier-point space
     * instead of solving the DP exactly.
     */
    CuttleSysSearch,
};

/** Printable policy name, matching the paper's figure legends. */
std::string policyName(PolicyKind kind);

/** True when the policy learns per-application utilities. */
bool policyAppAware(PolicyKind kind);

/** True when the policy apportions power across direct resources. */
bool policyResAware(PolicyKind kind);

/** True when the policy exploits an attached ESD. */
bool policyUsesEsd(PolicyKind kind);

/**
 * True when per-application grants are enforced with RAPL clock
 * modulation (which can throttle below any frontier point) instead of
 * per-resource knob settings.
 */
bool policyRaplEnforced(PolicyKind kind);

/**
 * The platform-derived lower bound on a single application's power
 * draw that utility-unaware policies use for their spatial/temporal
 * feasibility check: one core at f_min plus the activation overhead
 * and the DRAM background.  (Utility-aware policies get the real
 * per-application minimum from the learnt frontier instead.)
 */
Watts minFeasibleAppPower(const power::PlatformConfig &config);

} // namespace psm::core

#endif // PSM_CORE_POLICY_HH
