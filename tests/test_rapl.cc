/**
 * @file
 * Tests for the emulated RAPL interface: energy counters (including
 * 32-bit wraparound), window averaging, limits and the power meter.
 */

#include <gtest/gtest.h>

#include "power/power_meter.hh"
#include "power/rapl.hh"

namespace psm::power
{
namespace
{

TEST(RaplDomain, EnergyCounterAccumulatesJoules)
{
    RaplDomain d;
    d.recordEnergy(100.0, ticksPerSecond); // 100 J
    EXPECT_NEAR(d.totalEnergy(), 100.0, 1e-3);
    d.recordEnergy(50.0, 2 * ticksPerSecond); // +100 J
    EXPECT_NEAR(d.totalEnergy(), 200.0, 1e-3);
}

TEST(RaplDomain, SubUnitEnergyIsNotLost)
{
    RaplDomain d;
    // Tiny increments, each well below one energy unit (15.26 uJ)
    // would truncate to zero without remainder carry.
    for (int i = 0; i < 100000; ++i)
        d.recordEnergy(0.001, 1); // 0.1 uJ per tick
    // The counter only advances in 15.26 uJ units; up to one unit
    // may still sit in the remainder.
    EXPECT_NEAR(d.totalEnergy(), 0.001 * toSeconds(100000), 2e-5);
}

TEST(RaplDomain, CounterWrapsAt32Bits)
{
    RaplDomain d;
    // 2^32 units * 1/65536 J/unit = 65536 J. Push past one wrap.
    // 70000 J at 1 kW takes 70 s.
    for (int i = 0; i < 70; ++i)
        d.recordEnergy(1000.0, ticksPerSecond);
    // The raw counter must have wrapped at least once...
    EXPECT_LT(static_cast<double>(d.rawCounter()) / 65536.0, 65536.0);
    // ...but reconstructed total energy is correct.
    EXPECT_NEAR(d.totalEnergy(), 70000.0, 1.0);
}

TEST(RaplDomain, WindowAverageTracksRecentPower)
{
    RaplDomain d(toTicks(0.010));
    d.recordEnergy(10.0, toTicks(0.005));
    EXPECT_NEAR(d.windowAveragePower(), 10.0, 1e-9);
    // Fill the window with 20 W; the 10 W sample ages out.
    d.recordEnergy(20.0, toTicks(0.020));
    EXPECT_NEAR(d.windowAveragePower(), 20.0, 1e-6);
}

TEST(RaplDomain, WindowAverageBlendsPartialSamples)
{
    RaplDomain d(toTicks(0.010));
    d.recordEnergy(0.0, toTicks(0.005));
    d.recordEnergy(10.0, toTicks(0.005));
    EXPECT_NEAR(d.windowAveragePower(), 5.0, 1e-9);
}

TEST(RaplDomain, ThrottleFactorNoLimit)
{
    RaplDomain d;
    d.recordEnergy(100.0, toTicks(0.01));
    EXPECT_DOUBLE_EQ(d.throttleFactor(), 1.0);
    EXPECT_FALSE(d.limitEnabled());
}

TEST(RaplDomain, ThrottleSqueezesOverLimitAndReleasesUnder)
{
    RaplDomain d;
    d.setPowerLimit(50.0);
    EXPECT_TRUE(d.limitEnabled());
    d.recordEnergy(100.0, toTicks(0.02));
    EXPECT_NEAR(d.throttleFactor(), 0.5, 1e-9);
    // Persistently over the limit squeezes further (integral).
    d.recordEnergy(100.0, toTicks(0.02));
    EXPECT_LT(d.throttleFactor(), 0.5);
    // Under the limit the throttle relaxes back toward 1.
    double prev = d.throttleFactor();
    for (int i = 0; i < 200; ++i)
        d.recordEnergy(10.0, toTicks(0.02));
    EXPECT_GT(d.throttleFactor(), prev);
    EXPECT_NEAR(d.throttleFactor(), 1.0, 1e-6);
}

TEST(RaplDomain, ThrottleFactorFloored)
{
    RaplDomain d;
    d.setPowerLimit(0.1);
    d.recordEnergy(1000.0, toTicks(0.02));
    EXPECT_GE(d.throttleFactor(), 0.01);
}

TEST(RaplDomain, ViolationTimeAccumulatesOnlyOverLimit)
{
    RaplDomain d;
    d.setPowerLimit(50.0);
    d.recordEnergy(100.0, toTicks(0.02));
    Tick v1 = d.violationTime();
    EXPECT_EQ(v1, toTicks(0.02));
    // A long spell far below the limit adds no violation time.
    d.recordEnergy(10.0, toTicks(0.10));
    EXPECT_EQ(d.violationTime(), v1);
}

TEST(RaplDomain, ClearPowerLimit)
{
    RaplDomain d;
    d.setPowerLimit(10.0);
    d.clearPowerLimit();
    EXPECT_FALSE(d.limitEnabled());
    d.recordEnergy(100.0, toTicks(0.02));
    EXPECT_DOUBLE_EQ(d.throttleFactor(), 1.0);
}

TEST(RaplInterface, FourDomainsWithNames)
{
    RaplInterface rapl;
    EXPECT_EQ(raplDomainName(RaplDomainId::Package0), "package-0");
    EXPECT_EQ(raplDomainName(RaplDomainId::Dram1), "dram-1");
    rapl.recordEnergy(RaplDomainId::Package0, 30.0, ticksPerSecond);
    rapl.recordEnergy(RaplDomainId::Dram0, 10.0, ticksPerSecond);
    EXPECT_NEAR(rapl.totalEnergy(), 40.0, 1e-3);
}

TEST(RaplInterface, TotalWindowPowerSumsDomains)
{
    RaplInterface rapl;
    rapl.recordEnergy(RaplDomainId::Package0, 30.0, toTicks(0.01));
    rapl.recordEnergy(RaplDomainId::Package1, 25.0, toTicks(0.01));
    EXPECT_NEAR(rapl.totalWindowPower(), 55.0, 1e-6);
}

// --- PowerMeter ---------------------------------------------------------

TEST(PowerMeter, AveragesAndEnergy)
{
    PowerMeter meter;
    meter.push(ticksPerSecond, 100.0, 120.0);
    meter.push(ticksPerSecond, 50.0, 120.0);
    EXPECT_NEAR(meter.averagePower(), 75.0, 1e-9);
    EXPECT_NEAR(meter.totalEnergy(), 150.0, 1e-9);
    EXPECT_DOUBLE_EQ(meter.peakPower(), 100.0);
    EXPECT_EQ(meter.duration(), 2 * ticksPerSecond);
    EXPECT_EQ(meter.violationTime(), 0u);
}

TEST(PowerMeter, TracksCapViolations)
{
    PowerMeter meter;
    meter.push(ticksPerSecond, 110.0, 100.0);
    meter.push(ticksPerSecond, 90.0, 100.0);
    EXPECT_EQ(meter.violationTime(), ticksPerSecond);
    EXPECT_NEAR(meter.violationFraction(), 0.5, 1e-9);
    EXPECT_NEAR(meter.worstOvershoot(), 10.0, 1e-9);
    EXPECT_NEAR(meter.violationEnergy(), 10.0, 1e-9);
}

TEST(PowerMeter, UncappedNeverViolates)
{
    PowerMeter meter;
    meter.push(ticksPerSecond, 500.0, 0.0);
    EXPECT_EQ(meter.violationTime(), 0u);
}

TEST(PowerMeter, ResetClearsEverything)
{
    PowerMeter meter;
    meter.push(ticksPerSecond, 120.0, 100.0);
    meter.reset();
    EXPECT_DOUBLE_EQ(meter.averagePower(), 0.0);
    EXPECT_EQ(meter.violationTime(), 0u);
}

} // namespace
} // namespace psm::power
