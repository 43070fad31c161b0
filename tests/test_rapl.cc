/**
 * @file
 * Tests for the emulated RAPL interface: energy counters (including
 * 32-bit wraparound), window averaging (against a deque-window
 * reference), limits and the power meter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>

#include "power/power_meter.hh"
#include "power/rapl.hh"
#include "util/random.hh"

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

/**
 * Reference: RaplDomain's energy counter, enforcement window and
 * limit, with the window kept in a std::deque as it was before the
 * domain moved it into a vector.
 */
class DequeRaplDomain
{
  public:
    explicit DequeRaplDomain(Tick window) : window(window) {}

    void
    recordEnergy(Watts power, Tick dt)
    {
        if (dt == 0)
            return;
        double units = energyOver(power, dt) / RaplDomain::jouleperUnit +
                       unit_remainder;
        auto whole = static_cast<std::uint64_t>(units);
        unit_remainder = units - static_cast<double>(whole);
        std::uint64_t next = static_cast<std::uint64_t>(counter) + whole;
        wraps += next >> 32;
        counter = static_cast<std::uint32_t>(next & 0xffffffffULL);

        samples.emplace_back(power, dt);
        samples_span += dt;
        samples_area += energyOver(power, dt);
        while (samples_span > window && samples.size() > 1) {
            auto [p, d] = samples.front();
            Tick excess = samples_span - window;
            if (d <= excess) {
                samples.pop_front();
                samples_span -= d;
                samples_area -= energyOver(p, d);
            } else {
                samples.front().second = d - excess;
                samples_span -= excess;
                samples_area -= energyOver(p, excess);
                break;
            }
        }

        if (limited) {
            Watts avg = windowAveragePower();
            if (avg > limit + 1e-9) {
                violation_time += dt;
                double ratio = std::clamp(limit / avg, 0.5, 1.0);
                enforce_ratio = std::max(enforce_ratio * ratio, 0.02);
            } else if (avg < limit * 0.95 && avg > 0.2) {
                enforce_ratio =
                    std::min(enforce_ratio * 1.02 + 0.001, 1.0);
            }
        }
    }

    Joules
    totalEnergy() const
    {
        double total_units = static_cast<double>(wraps) * 4294967296.0 +
                             static_cast<double>(counter);
        return total_units * RaplDomain::jouleperUnit;
    }

    void
    setPowerLimit(Watts new_limit)
    {
        limited = true;
        limit = new_limit;
    }

    void
    clearPowerLimit()
    {
        limited = false;
        limit = 0.0;
        enforce_ratio = 1.0;
    }

    Watts
    windowAveragePower() const
    {
        if (samples_span == 0)
            return 0.0;
        return samples_area / toSeconds(samples_span);
    }

    double throttleFactor() const { return limited ? enforce_ratio : 1.0; }
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
    std::deque<std::pair<Watts, Tick>> samples;
    Tick samples_span = 0;
    double samples_area = 0.0;
};

TEST(RaplDomain, VectorWindowMatchesDequeReference)
{
    // Seeded (power, dt) sequences, dt from one tick to three windows,
    // with the limit set, moved and cleared along the way: every read
    // is bit-equal to the deque-window reference after every step.
    for (Tick window : {toTicks(0.010), Tick{7}, toTicks(0.050)}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            Rng rng(seed);
            RaplDomain d(window);
            DequeRaplDomain ref(window);
            for (int step = 0; step < 4000; ++step) {
                double u = rng.uniform();
                if (u < 0.02) {
                    Watts limit = rng.uniform(5.0, 150.0);
                    d.setPowerLimit(limit);
                    ref.setPowerLimit(limit);
                } else if (u < 0.025) {
                    d.clearPowerLimit();
                    ref.clearPowerLimit();
                }
                Watts power = rng.chance(0.1) ? 0.0
                                              : rng.uniform(0.0, 200.0);
                auto dt = static_cast<Tick>(
                    rng.uniformInt(1, static_cast<int>(3 * window)));
                d.recordEnergy(power, dt);
                ref.recordEnergy(power, dt);
                ASSERT_EQ(d.windowAveragePower(), ref.windowAveragePower())
                    << "window " << window << " seed " << seed
                    << " step " << step;
                ASSERT_EQ(d.throttleFactor(), ref.throttleFactor())
                    << "window " << window << " seed " << seed
                    << " step " << step;
                ASSERT_EQ(d.violationTime(), ref.violationTime())
                    << "window " << window << " seed " << seed
                    << " step " << step;
                ASSERT_EQ(d.totalEnergy(), ref.totalEnergy())
                    << "window " << window << " seed " << seed
                    << " step " << step;
            }
        }
    }
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
