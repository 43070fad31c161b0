/**
 * @file
 * The policy arena's front door: a first-class registry of power
 * management policies.
 *
 * The five paper policies plus any number of rival allocators live
 * behind one table mapping a PolicyKind to its printable name, its
 * CLI spelling, its capability flags (what information the control
 * plane lets it use and how grants are enforced) and, for policies
 * that replace the built-in DP allocator, a factory producing a
 * SpatialPlanner.  Everything that used to switch over PolicyKind —
 * policy.cc's name/capability tables, psm-served's --policy parser,
 * the capture decoder's enum validation and the cluster manager's
 * per-node policy choice — now consults this registry, so adding an
 * allocator is one registration, not five edits.
 */

#ifndef PSM_CORE_POLICY_REGISTRY_HH
#define PSM_CORE_POLICY_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "policy.hh"
#include "power_allocator.hh"
#include "telemetry.hh"
#include "utility_curve.hh"
#include "util/units.hh"

namespace psm::core
{

/**
 * What a policy is allowed to know and how its grants are enforced.
 * The control plane consults these flags instead of switching on the
 * kind: they decide whether applications calibrate, which knobs the
 * learnt frontier may vary, whether ESD plans are considered and
 * whether per-application grants are enforced by RAPL clock
 * modulation instead of per-resource knob settings.
 */
struct PolicyCaps
{
    /** Learns per-application utilities (apps calibrate online). */
    bool appAware = false;
    /** Apportions power across the full (f, n, m) knob space;
     * without it the frontier is restricted to frequency only. */
    bool resAware = false;
    /** Considers ESD-assisted consolidated duty cycling. */
    bool usesEsd = false;
    /** Per-application grants are enforced with the default hardware
     * knob (RAPL clock modulation), which can throttle below any
     * frontier point — so curve minima are not hard minima. */
    bool raplEnforced = false;
};

/**
 * A pluggable spatial allocator: rival policies that keep the
 * standard control-plane ladder (calibration, degradation fallbacks,
 * temporal plans) but replace the budget-splitting optimization
 * itself.  plan() must conserve the budget — the sum of granted
 * operating-point powers may never exceed @p usable (bench_arena
 * --check trips otherwise).  Returning an allocation with
 * !allScheduled() sends the selector down the standard fallback
 * ladder (temporal duty cycling, fair RAPL, idle).
 *
 * Planners may keep cross-event state (warm starts); determinism is
 * still required — the same call sequence must reproduce the same
 * plans bit-for-bit, or capture replay diverges.
 */
class SpatialPlanner
{
  public:
    /** Everything a planner may consult besides the curves. */
    struct Context
    {
        const power::PlatformConfig &platform;
        const AllocatorConfig &allocator;
        Telemetry *telemetry = nullptr; ///< may be null
    };

    virtual ~SpatialPlanner() = default;

    /** Split @p usable watts across @p curves (admission order). */
    virtual Allocation
    plan(const std::vector<const UtilityCurve *> &curves, Watts usable,
         const Context &ctx) = 0;
};

/** Factory for a policy's planner; null for the built-in DP. */
using PlannerFactory = std::function<std::unique_ptr<SpatialPlanner>()>;

/** One registered policy. */
struct PolicyInfo
{
    PolicyKind kind = PolicyKind::UtilUnaware;
    /** Printable name, matching the paper's figure legends. */
    std::string name;
    /** CLI spelling (psm-served --policy, bench filters). */
    std::string cliName;
    PolicyCaps caps;
    /** Planner factory; null policies use the built-in allocator. */
    PlannerFactory makePlanner;
};

/**
 * The process-wide policy table, filled with the built-in policies on
 * first use and read-only after that.
 */
class PolicyRegistry
{
  public:
    static PolicyRegistry &instance();

    /** All registered policies, registration order. */
    const std::vector<PolicyInfo> &all() const { return entries; }

    /** Look up by kind; null when unregistered. */
    const PolicyInfo *find(PolicyKind kind) const;

    /** Look up by kind; panics when unregistered (the old invalid-
     * PolicyKind panic, now in one place). */
    const PolicyInfo &infoFor(PolicyKind kind) const;

    /** Look up by CLI spelling; null when unknown. */
    const PolicyInfo *findName(const std::string &cli_name) const;

    /**
     * Validate a policy id read from an untrusted capture file:
     * null unless @p wire_id is the encoding of a registered kind.
     * The wire encoding of a PolicyKind is its enum value.
     */
    const PolicyInfo *findWireId(std::uint8_t wire_id) const;

    /** "util-unaware|server-res-aware|..." for usage strings. */
    std::string cliNames() const;

  private:
    PolicyRegistry();

    /**
     * Register a policy.  The kind and both names must be unused;
     * panics otherwise (a duplicate registration is a programming
     * error, not user input).
     */
    void add(PolicyInfo info);

    std::vector<PolicyInfo> entries;
};

} // namespace psm::core

#endif // PSM_CORE_POLICY_REGISTRY_HH
