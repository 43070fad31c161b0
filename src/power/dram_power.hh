/**
 * @file
 * DRAM channel power model with RAPL-style budget enforcement.
 *
 * Each memory channel draws a background power (refresh, PLL, ODT)
 * plus an access component proportional to the bandwidth it serves.
 * The DRAM RAPL knob (the paper's "m") caps a channel's power; when
 * the cap is below what offered traffic would draw, the memory
 * controller throttles, reducing the bandwidth the channel can serve.
 * That bandwidth ceiling is what couples the m knob to application
 * performance in the roofline model.
 */

#ifndef PSM_POWER_DRAM_POWER_HH
#define PSM_POWER_DRAM_POWER_HH

#include "platform.hh"
#include "util/units.hh"

namespace psm::power
{

/**
 * Per-channel DRAM power/bandwidth model.
 */
class DramPowerModel
{
  public:
    explicit DramPowerModel(const PlatformConfig &config);

    /** Background (zero-traffic) power of one channel. */
    Watts backgroundPower() const;

    /**
     * Unthrottled power of one channel serving @p bandwidth of
     * traffic.
     */
    Watts channelPower(GBps bandwidth) const;

    /**
     * Max bandwidth one channel can serve under a RAPL budget of
     * @p budget watts; zero headroom (budget <= background) serves
     * a trickle rather than nothing, because refresh keeps data alive
     * while the scheduler starves requests.
     *
     * The ceiling is also bounded by the channel's wire speed.
     */
    GBps bandwidthCeiling(Watts budget) const;

    /**
     * Actual power drawn when @p offered bandwidth hits a channel
     * with RAPL budget @p budget: min(channelPower(offered), budget),
     * never below background power.
     */
    Watts throttledPower(GBps offered, Watts budget) const;

    /**
     * Bandwidth actually served for @p offered traffic under
     * @p budget.
     */
    GBps servedBandwidth(GBps offered, Watts budget) const;

  private:
    const PlatformConfig &config;
};

} // namespace psm::power

#endif // PSM_POWER_DRAM_POWER_HH
