/**
 * @file
 * Emulation of Intel's Running Average Power Limit (RAPL) interface.
 *
 * The paper reads socket and DRAM power through RAPL energy counters
 * and enforces per-application caps through RAPL power limits (the
 * Util-Unaware baseline) and DRAM power budgets (the m knob).  This
 * module reproduces the software-visible behaviour of that interface:
 *
 *  - monotonically increasing energy counters in 15.3 uJ units that
 *    wrap at 32 bits, exactly like the MSR_*_ENERGY_STATUS registers;
 *  - per-domain power limits with an averaging time window: the
 *    enforcement signal is a throttle factor that the server model
 *    applies to core frequency (package domains) or memory bandwidth
 *    (DRAM domains).
 */

#ifndef PSM_POWER_RAPL_HH
#define PSM_POWER_RAPL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/units.hh"

namespace psm::power
{

/** RAPL domains on the two-socket platform. */
enum class RaplDomainId
{
    Package0 = 0,
    Package1,
    Dram0,
    Dram1,
    NumDomains,
};

/** Printable name of a domain ("package-0", "dram-1", ...). */
std::string raplDomainName(RaplDomainId id);

/**
 * One RAPL domain: an energy counter plus an optional power limit
 * with an averaging window.
 */
class RaplDomain
{
  public:
    /** Energy unit of the emulated counter: 1/65536 J (15.26 uJ). */
    static constexpr double jouleperUnit = 1.0 / 65536.0;

    /** Construct with the enforcement averaging window. */
    explicit RaplDomain(Tick window = toTicks(0.010));

    /**
     * Account @p power drawn over @p dt: advances the energy counter
     * and the sliding enforcement window.
     */
    void recordEnergy(Watts power, Tick dt);

    /** Raw 32-bit counter value (wraps), as software would read it. */
    std::uint32_t rawCounter() const { return counter; }

    /**
     * Total energy in joules since construction, reconstructed with
     * wrap handling — what a well-written RAPL reader computes.
     */
    Joules totalEnergy() const;

    /** Set (and enable) the power limit for this domain. */
    void setPowerLimit(Watts limit);

    /** Disable the power limit. */
    void clearPowerLimit();

    bool limitEnabled() const { return limited; }

    /** Average power over the enforcement window (0 if empty). */
    Watts windowAveragePower() const;

    /**
     * Enforcement throttle in (0, 1]: 1 when no limit is set.  With a
     * limit, this is the running multiplicative (integral) control
     * state the hardware applies to the domain's full-speed power —
     * it shrinks while the window average rides above the limit and
     * relaxes back toward 1 when the domain is under it.
     */
    double throttleFactor() const;

    /** Ticks spent with windowAveragePower() above an enabled limit. */
    Tick violationTime() const { return violation_time; }

  private:
    Tick window;
    std::uint32_t counter = 0;
    std::uint64_t wraps = 0;
    double unit_remainder = 0.0;
    bool limited = false;
    Watts limit = 0.0;
    double enforce_ratio = 1.0;
    Tick violation_time = 0;

    /** Sliding window of (power, duration) samples. */
    std::deque<std::pair<Watts, Tick>> samples;
    Tick samples_span = 0;
    double samples_area = 0.0; ///< joules in the window
};

/**
 * The whole-server RAPL interface: four domains plus convenience
 * aggregation, mirroring /sys/class/powercap layout.
 */
class RaplInterface
{
  public:
    explicit RaplInterface(Tick window = toTicks(0.010));

    RaplDomain &domain(RaplDomainId id);
    const RaplDomain &domain(RaplDomainId id) const;

    /** Account energy for one domain. */
    void recordEnergy(RaplDomainId id, Watts power, Tick dt);

    /** Sum of totalEnergy() across all domains. */
    Joules totalEnergy() const;

    /** Sum of window-average power across all domains. */
    Watts totalWindowPower() const;

  private:
    std::vector<RaplDomain> domains;
};

} // namespace psm::power

#endif // PSM_POWER_RAPL_HH
