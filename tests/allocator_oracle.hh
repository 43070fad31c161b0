/**
 * @file
 * Reference helpers for the allocator tests: random utility surfaces,
 * bit-for-bit allocation comparison, and the dense knapsack DP that
 * the frontier fold, its last-solve cache and the shared esdPlan
 * sweep must reproduce exactly.
 */

#ifndef PSM_TESTS_ALLOCATOR_ORACLE_HH
#define PSM_TESTS_ALLOCATOR_ORACLE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "cf/estimator.hh"
#include "core/power_allocator.hh"
#include "core/utility_curve.hh"
#include "esd/battery.hh"
#include "power/platform.hh"
#include "util/random.hh"

namespace psm::core
{

/**
 * Generate a random but physically plausible utility surface:
 * power increasing in every knob, heartbeat rate monotone
 * non-decreasing in every knob, with random per-app sensitivities.
 */
inline cf::UtilitySurface
randomSurface(Rng &rng)
{
    const auto &plat = power::defaultPlatform();
    auto settings = plat.knobSpace();
    cf::UtilitySurface s;
    s.power.resize(settings.size());
    s.hbRate.resize(settings.size());

    double core_w = rng.uniform(0.5, 4.0);   // W per core
    double freq_exp = rng.uniform(1.0, 3.0); // power vs f curvature
    double dram_w = rng.uniform(0.0, 1.0);   // W per DRAM level used
    double base = rng.uniform(1.0, 5.0);
    double f_sens = rng.uniform(0.0, 1.0);   // perf sensitivities
    double n_sens = rng.uniform(0.0, 1.0);
    double m_sens = rng.uniform(0.0, 1.0);
    double scale = rng.uniform(10.0, 500.0);

    for (std::size_t c = 0; c < settings.size(); ++c) {
        const auto &k = settings[c];
        double fr = (k.freq - plat.freqMin) /
                    (plat.freqMax - plat.freqMin);
        double nr = static_cast<double>(k.cores - 1) /
                    (plat.coresMaxPerApp - 1);
        double mr = (k.dramPower - plat.dramPowerMin) /
                    (plat.dramPowerMax - plat.dramPowerMin);
        s.power[c] = base + core_w * k.cores *
                              (0.3 + 0.7 * std::pow(
                                         k.freq / plat.freqMax,
                                         freq_exp)) +
                     dram_w * k.dramPower;
        double perf = (0.2 + 0.8 * (f_sens * fr + n_sens * nr +
                                    m_sens * mr) /
                                 std::max(f_sens + n_sens + m_sens,
                                          1e-6));
        s.hbRate[c] = scale * perf;
    }
    s.sampledColumns = settings.size();
    return s;
}

/** Bit-for-bit equality of two allocations (the equivalence claim:
 * every DP path must reproduce the reference exactly, not
 * approximately). */
inline void
expectSameAllocation(const Allocation &want, const Allocation &got)
{
    EXPECT_EQ(want.objective, got.objective);
    EXPECT_EQ(want.used, got.used);
    EXPECT_EQ(want.dynamicBudget, got.dynamicBudget);
    ASSERT_EQ(want.apps.size(), got.apps.size());
    for (std::size_t i = 0; i < want.apps.size(); ++i) {
        const AppAllocation &w = want.apps[i];
        const AppAllocation &g = got.apps[i];
        EXPECT_EQ(w.app, g.app);
        EXPECT_EQ(w.budget, g.budget);
        EXPECT_EQ(w.expectedPerf, g.expectedPerf);
        ASSERT_EQ(w.scheduled(), g.scheduled());
        if (w.scheduled()) {
            EXPECT_EQ(w.point->power, g.point->power);
        }
    }
}

/** Bit-for-bit equality of two ESD plans. */
inline void
expectSameEsdPlan(const EsdPlan &want, const EsdPlan &got)
{
    ASSERT_EQ(want.viable, got.viable);
    EXPECT_EQ(want.objective, got.objective);
    EXPECT_EQ(want.offFraction, got.offFraction);
    EXPECT_EQ(want.deficit, got.deficit);
    EXPECT_EQ(want.chargePower, got.chargePower);
    if (want.viable)
        expectSameAllocation(want.onAllocation, got.onAllocation);
}

/**
 * The dense O(k·B²) knapsack: per-bucket perf tables and a scan over
 * every split of every bucket count, and an esdPlan that runs one
 * full dense solve per sweep candidate.  It borrows the allocator's
 * reserve plan and slack pass, so only the DP and the sweep differ
 * from the code under test.
 */
struct DenseDpOracle
{
    static Allocation
    allocate(const PowerAllocator &pa,
             const std::vector<const UtilityCurve *> &curves,
             Watts dynamic_budget)
    {
        Watts g = pa.config().granularity;
        PowerAllocator::ReservePlan rp =
            pa.reservePlan(curves, dynamic_budget);
        std::size_t k = curves.size();
        std::size_t buckets = rp.buckets;

        std::vector<double> dp(buckets + 1, 0.0);
        std::vector<std::vector<std::size_t>> choice(
            k, std::vector<std::size_t>(buckets + 1, 0));
        for (std::size_t i = 0; i < k; ++i) {
            std::vector<double> perf(buckets + 1);
            for (std::size_t b = 0; b <= buckets; ++b) {
                perf[b] = curves[i]->perfAt(
                    rp.reserve[i] + static_cast<double>(b) * g);
            }
            std::vector<double> next(buckets + 1, 0.0);
            for (std::size_t b = 0; b <= buckets; ++b) {
                double best = -1.0;
                std::size_t best_x = 0;
                for (std::size_t x = 0; x <= b; ++x) {
                    double v = dp[b - x] + perf[x];
                    if (v > best) {
                        best = v;
                        best_x = x;
                    }
                }
                next[b] = best;
                choice[i][b] = best_x;
            }
            dp = std::move(next);
        }

        std::vector<Watts> granted(k, 0.0);
        std::size_t b = buckets;
        for (std::size_t ii = k; ii-- > 0;) {
            std::size_t x = choice[ii][b];
            granted[ii] = rp.reserve[ii] + static_cast<double>(x) * g;
            b -= x;
        }
        return pa.buildAllocation(curves, granted, dynamic_budget);
    }

    static EsdPlan
    esdPlan(const PowerAllocator &pa,
            const std::vector<const UtilityCurve *> &curves,
            Watts idle_power, Watts cm_power, Watts cap,
            const esd::BatteryConfig &esd, Watts off_cm_power = 0.0)
    {
        EsdPlan best;
        if (curves.empty() || cap <= idle_power + off_cm_power)
            return best;
        Watts step = PowerAllocator::esdSearchStep;
        Watts charge = std::min(cap - idle_power - off_cm_power,
                                esd.maxChargePower);
        double eta = esd.roundTripEfficiency();
        Watts lo = 0.0;
        Watts hi = 0.0;
        for (const auto *c : curves) {
            lo += c->minPower();
            hi += c->maxPower();
        }
        auto sweep = static_cast<std::size_t>(
                         std::floor((hi - lo + 1e-9) / step)) + 1;
        for (std::size_t bucket = 0; bucket < sweep; ++bucket) {
            Watts budget = lo + static_cast<double>(bucket) * step;
            Allocation alloc = allocate(pa, curves, budget);
            if (!alloc.allScheduled())
                continue;
            Watts deficit = idle_power + cm_power + alloc.used - cap;
            double on_fraction = 1.0;
            if (deficit <= 0.0) {
                deficit = 0.0;
            } else {
                if (deficit > esd.maxDischargePower)
                    continue;
                on_fraction = 1.0 / (1.0 + deficit / (eta * charge));
            }
            double objective = on_fraction * alloc.objective;
            if (objective > best.objective) {
                best.onAllocation = std::move(alloc);
                best.offFraction = 1.0 - on_fraction;
                best.deficit = deficit;
                best.chargePower = charge;
                best.objective = objective;
                best.viable = true;
            }
        }
        return best;
    }
};

} // namespace psm::core

#endif // PSM_TESTS_ALLOCATOR_ORACLE_HH
