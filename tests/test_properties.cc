/**
 * @file
 * Property-based tests over randomized inputs: the allocator and
 * utility-curve invariants must hold for *any* plausible utility
 * surface, not just the library workloads.
 */

#include <gtest/gtest.h>

#include <memory>

#include "allocator_oracle.hh"
#include "core/power_allocator.hh"
#include "core/utility_curve.hh"
#include "power/platform.hh"
#include "util/random.hh"

namespace psm::core
{
namespace
{

using power::defaultPlatform;

class RandomizedAllocator : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
        auto settings = defaultPlatform().knobSpace();
        int napps = rng.uniformInt(2, 4);
        for (int i = 0; i < napps; ++i) {
            curves.push_back(std::make_unique<UtilityCurve>(
                "app" + std::to_string(i), settings,
                randomSurface(rng), KnobFreedom::All));
            ptrs.push_back(curves.back().get());
        }
        budget = rng.uniform(5.0, 60.0);
    }

    std::vector<std::unique_ptr<UtilityCurve>> curves;
    std::vector<const UtilityCurve *> ptrs;
    double budget = 0.0;
    PowerAllocator allocator;
};

TEST_P(RandomizedAllocator, BudgetNeverExceeded)
{
    Allocation alloc = allocator.allocate(ptrs, budget);
    EXPECT_LE(alloc.used, budget + 1e-6);
    Watts sum = 0.0;
    for (const auto &a : alloc.apps)
        if (a.scheduled())
            sum += a.point->power;
    EXPECT_NEAR(sum, alloc.used, 1e-9);
}

TEST_P(RandomizedAllocator, DominatesEqualSplit)
{
    Allocation dp = allocator.allocate(ptrs, budget);
    Allocation eq = allocator.equalSplit(ptrs, budget);
    EXPECT_GE(dp.objective, eq.objective - 1e-9);
}

TEST_P(RandomizedAllocator, GrantedPointsLieOnTheFrontier)
{
    Allocation alloc = allocator.allocate(ptrs, budget);
    for (std::size_t i = 0; i < alloc.apps.size(); ++i) {
        const auto &a = alloc.apps[i];
        if (!a.scheduled())
            continue;
        // The granted point must be the curve's best at its power.
        auto best = ptrs[i]->bestWithin(a.point->power + 1e-9);
        ASSERT_TRUE(best.has_value());
        EXPECT_NEAR(best->perfNorm, a.expectedPerf, 1e-9);
    }
}

TEST_P(RandomizedAllocator, ReservationGuaranteesAllScheduled)
{
    Watts mins = 0.0;
    for (const auto *c : ptrs)
        mins += c->minPower();
    if (mins <= budget) {
        Allocation alloc = allocator.allocate(ptrs, budget);
        EXPECT_TRUE(alloc.allScheduled());
    }
}

TEST_P(RandomizedAllocator, TemporalPlanInvariants)
{
    TemporalPlan plan = allocator.temporalPlan(
        ptrs, budget, ShareMode::UtilityWeighted);
    double total = 0.0;
    for (const auto &slot : plan.slots) {
        EXPECT_GT(slot.share, 0.0);
        EXPECT_LE(slot.point.power, budget + 1e-9);
        total += slot.share;
    }
    if (!plan.slots.empty()) {
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
    EXPECT_EQ(plan.slots.size() + plan.unschedulable.size(),
              ptrs.size());
}

TEST_P(RandomizedAllocator, EsdPlanEnergyBalanced)
{
    esd::BatteryConfig esd = esd::leadAcidUps();
    EsdPlan plan = allocator.esdPlan(ptrs, 50.0, 20.0,
                                     50.0 + budget, esd);
    if (!plan.viable)
        return;
    if (plan.offFraction > 0.0) {
        double banked = plan.offFraction * plan.chargePower *
                        esd.roundTripEfficiency();
        double spent = (1.0 - plan.offFraction) * plan.deficit;
        EXPECT_NEAR(banked, spent, 1e-6);
    } else {
        EXPECT_DOUBLE_EQ(plan.deficit, 0.0);
    }
}

TEST_P(RandomizedAllocator, CurveFrontierInvariants)
{
    for (const auto *c : ptrs) {
        const auto &pts = c->points();
        ASSERT_FALSE(pts.empty());
        for (std::size_t i = 1; i < pts.size(); ++i) {
            EXPECT_GT(pts[i].power, pts[i - 1].power);
            EXPECT_GT(pts[i].perfNorm, pts[i - 1].perfNorm);
        }
        EXPECT_LE(pts.back().perfNorm, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedAllocator,
                         ::testing::Range(0, 12));

} // namespace
} // namespace psm::core
