/**
 * @file
 * Server power metering: averages and cap-violation accounting.
 *
 * The meter is fed one sample per simulation step (power held constant
 * over the step) and keeps only the aggregate views the evaluation
 * needs: time-weighted average draw, total energy, peak draw and time
 * spent above the cap.  Its footprint does not grow with simulated
 * time; a figure that needs a power series samples totalEnergy() once
 * per interval.
 */

#ifndef PSM_POWER_POWER_METER_HH
#define PSM_POWER_POWER_METER_HH

#include <cstddef>

#include "util/stats.hh"
#include "util/units.hh"

namespace psm::power
{

/**
 * Accumulates the server's power draw against its (possibly changing)
 * cap.
 */
class PowerMeter
{
  public:
    /** Record that the server drew @p power against @p cap for @p dt
     * ticks. */
    void push(Tick dt, Watts power, Watts cap);

    /** Discard everything. */
    void reset();

    /** Time-weighted mean draw over the recorded span. */
    Watts averagePower() const { return stats.mean(); }
    Watts peakPower() const { return stats.max(); }
    /** Total energy consumed. */
    Joules totalEnergy() const { return stats.integral(); }
    /** Total recorded span. */
    Tick duration() const { return stats.duration(); }

    /** Ticks during which draw exceeded the in-force cap. */
    Tick violationTime() const { return violation_time; }
    /** Largest draw-over-cap excess observed. */
    Watts worstOvershoot() const { return worst_overshoot; }
    /** Fraction of recorded time spent above the cap. */
    double violationFraction() const;
    /** Energy drawn in excess of the cap (joules above the cap line). */
    Joules violationEnergy() const { return violation_energy; }

    /**
     * Samples that arrived non-finite or negative and were replaced
     * by the last accepted reading.
     */
    std::size_t droppedSamples() const { return dropped; }

  private:
    TimeWeightedStats stats;
    Tick violation_time = 0;
    Watts worst_overshoot = 0.0;
    Joules violation_energy = 0.0;
    Watts last_good = 0.0;
    std::size_t dropped = 0;
};

} // namespace psm::power

#endif // PSM_POWER_POWER_METER_HH
