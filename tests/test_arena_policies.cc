/**
 * @file
 * Tests for the policy arena's rival planners: FastCap's max-min
 * fair capping and CuttleSys's data-driven local search.  Both must
 * conserve the budget at every operating point, fall through the
 * selector ladder when even the floor does not fit, and replan
 * deterministically (capture replay depends on it).  The arena's own
 * clauses live here too: every registered policy's selected plan fits
 * the offered budget, and the paper's App+Res+ESD-Aware baseline
 * keeps its home scenario against both rivals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cf/profiler.hh"
#include "core/manager.hh"
#include "core/plan_selector.hh"
#include "core/policy_cuttlesys.hh"
#include "core/policy_fastcap.hh"
#include "core/policy_registry.hh"
#include "core/telemetry.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "sim/server.hh"
#include "util/random.hh"

namespace psm::core
{
namespace
{

using power::defaultPlatform;

class ArenaPlannerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto &plat = defaultPlatform();
        settings = plat.knobSpace();
        cf::Profiler prof(plat, 0.0);
        Rng rng(1);
        for (const char *name :
             {"stream", "kmeans", "pagerank", "x264"}) {
            perf::PerfModel model(plat, perf::workload(name));
            std::vector<double> p, h;
            prof.measureAll(model, p, h, rng);
            surfaces.push_back(
                cf::UtilityEstimator::surfaceFromRows(p, h));
            curves.push_back(std::make_unique<UtilityCurve>(
                name, settings, surfaces.back(), KnobFreedom::All));
        }
        for (const auto &c : curves)
            ptrs.push_back(c.get());
    }

    SpatialPlanner::Context
    ctx(Telemetry *tel = nullptr)
    {
        return SpatialPlanner::Context{defaultPlatform(), alloc_cfg,
                                       tel};
    }

    Watts
    floorTotal() const
    {
        Watts total = 0.0;
        for (const auto &c : curves)
            total += c->minPower();
        return total;
    }

    /** Minimum achieved perfNorm across scheduled apps. */
    static double
    minPerf(const Allocation &alloc)
    {
        double lo = std::numeric_limits<double>::infinity();
        for (const AppAllocation &a : alloc.apps)
            if (a.scheduled())
                lo = std::min(lo, a.point->perfNorm);
        return lo;
    }

    std::vector<power::KnobSetting> settings;
    std::vector<cf::UtilitySurface> surfaces;
    std::vector<std::unique_ptr<UtilityCurve>> curves;
    std::vector<const UtilityCurve *> ptrs;
    AllocatorConfig alloc_cfg;
};

TEST_F(ArenaPlannerTest, FastCapConservesEveryBudget)
{
    FastCapPlanner planner;
    for (double budget = 5.0; budget <= 160.0; budget += 2.5) {
        Allocation alloc = planner.plan(ptrs, budget, ctx());
        EXPECT_LE(alloc.used, budget + 1e-6) << "budget " << budget;
        if (budget >= floorTotal() + 1e-6) {
            EXPECT_TRUE(alloc.allScheduled()) << "budget " << budget;
        }
    }
}

TEST_F(ArenaPlannerTest, FastCapInfeasibleFloorFallsThrough)
{
    FastCapPlanner planner;
    Allocation alloc =
        planner.plan(ptrs, 0.5 * floorTotal(), ctx());
    // At least one app must stay unscheduled so the PlanSelector
    // takes the temporal/fair-RAPL fallback ladder instead.
    EXPECT_FALSE(alloc.allScheduled());
    EXPECT_LE(alloc.used, 0.5 * floorTotal() + 1e-6);
}

TEST_F(ArenaPlannerTest, FastCapIsMaxMinOptimalOnTheLadder)
{
    FastCapPlanner planner;
    for (double budget : {40.0, 60.0, 80.0, 100.0, 120.0}) {
        if (budget < floorTotal())
            continue;
        Allocation alloc = planner.plan(ptrs, budget, ctx());
        ASSERT_TRUE(alloc.allScheduled());
        double achieved = minPerf(alloc);

        // No uniform level strictly above the achieved minimum can
        // fit the budget: the cost of lifting every app to the next
        // distinct ladder level (capped at its own ceiling) exceeds
        // it.  Apps already at their own maximum are exempt — they
        // cannot be lifted and do not bound the shared level.
        double next = std::numeric_limits<double>::infinity();
        for (const UtilityCurve *c : ptrs)
            for (const UtilityPoint &p : c->points())
                if (p.perfNorm > achieved + 1e-12)
                    next = std::min(next, p.perfNorm);
        if (!std::isfinite(next))
            continue; // everyone is flat out
        Watts cost = 0.0;
        bool anyone_lifted = false;
        for (const UtilityCurve *c : ptrs) {
            const auto &pts = c->points();
            auto it = std::lower_bound(
                pts.begin(), pts.end(), next,
                [](const UtilityPoint &p, double l) {
                    return p.perfNorm < l;
                });
            if (it == pts.end()) {
                cost += pts.back().power; // own ceiling
            } else {
                cost += it->power;
                if (it->perfNorm > achieved + 1e-12)
                    anyone_lifted = true;
            }
        }
        if (anyone_lifted) {
            EXPECT_GT(cost, budget - 1e-6)
                << "level " << next << " above min " << achieved
                << " was affordable at budget " << budget;
        }
    }
}

TEST_F(ArenaPlannerTest, FastCapMinPerfMonotoneInBudget)
{
    FastCapPlanner planner;
    double prev = 0.0;
    for (double budget = floorTotal(); budget <= 150.0;
         budget += 5.0) {
        Allocation alloc = planner.plan(ptrs, budget, ctx());
        ASSERT_TRUE(alloc.allScheduled());
        double lo = minPerf(alloc);
        EXPECT_GE(lo, prev - 1e-9) << "budget " << budget;
        prev = lo;
    }
}

TEST_F(ArenaPlannerTest, CuttleSysConservesEveryBudget)
{
    CuttleSysPlanner planner;
    for (double budget = 5.0; budget <= 160.0; budget += 2.5) {
        Allocation alloc = planner.plan(ptrs, budget, ctx());
        EXPECT_LE(alloc.used, budget + 1e-6) << "budget " << budget;
        if (budget >= floorTotal() + 1e-6) {
            EXPECT_TRUE(alloc.allScheduled()) << "budget " << budget;
        }
    }
}

TEST_F(ArenaPlannerTest, CuttleSysDeterministicAcrossInstances)
{
    // Two fresh planners fed the identical call sequence (including
    // a budget shrink that exercises warm start + repair) must agree
    // bit-for-bit; capture replay rebuilds planners from scratch.
    CuttleSysPlanner a, b;
    for (double budget : {120.0, 120.0, 70.0, 95.0, 40.0}) {
        Allocation pa = a.plan(ptrs, budget, ctx());
        Allocation pb = b.plan(ptrs, budget, ctx());
        ASSERT_EQ(pa.apps.size(), pb.apps.size());
        EXPECT_EQ(pa.used, pb.used) << "budget " << budget;
        EXPECT_EQ(pa.objective, pb.objective);
        for (std::size_t i = 0; i < pa.apps.size(); ++i) {
            ASSERT_EQ(pa.apps[i].scheduled(),
                      pb.apps[i].scheduled());
            if (pa.apps[i].scheduled()) {
                EXPECT_EQ(pa.apps[i].point->power,
                          pb.apps[i].point->power);
                EXPECT_EQ(pa.apps[i].point->perfNorm,
                          pb.apps[i].point->perfNorm);
            }
        }
    }
}

TEST_F(ArenaPlannerTest, CuttleSysWarmStartsOnRepeatedAppSet)
{
    Telemetry tel;
    CuttleSysPlanner planner;
    planner.plan(ptrs, 100.0, ctx(&tel));
    EXPECT_EQ(
        tel.counter(trace::EventId::PolicyCuttlesysWarmStarts), 0u);
    Allocation warm = planner.plan(ptrs, 100.0, ctx(&tel));
    EXPECT_EQ(
        tel.counter(trace::EventId::PolicyCuttlesysWarmStarts), 1u);
    // The warm-started replan of an unchanged problem matches the
    // cold plan of a fresh instance.
    CuttleSysPlanner cold;
    cold.plan(ptrs, 100.0, ctx());
    Allocation fresh = cold.plan(ptrs, 100.0, ctx());
    EXPECT_EQ(warm.used, fresh.used);
    EXPECT_EQ(warm.objective, fresh.objective);
}

TEST_F(ArenaPlannerTest, CuttleSysSearchNearsDpObjective)
{
    // The local search trades exactness for cheap warm-started
    // replans; it must still land near the DP optimum.
    CuttleSysPlanner planner;
    PowerAllocator dp;
    for (double budget : {50.0, 80.0, 110.0, 140.0}) {
        Allocation search = planner.plan(ptrs, budget, ctx());
        Allocation exact = dp.allocate(ptrs, budget);
        if (!exact.allScheduled() || !search.allScheduled())
            continue;
        EXPECT_GE(search.objective, 0.9 * exact.objective)
            << "budget " << budget;
    }
}

TEST_F(ArenaPlannerTest, SelectorRoutesRegistryPlanners)
{
    // The PlanSelector must dispatch registry policies with planner
    // factories to those planners (counted via their trace events)
    // and still enforce conservation end to end.
    for (PolicyKind kind :
         {PolicyKind::FastCapFair, PolicyKind::CuttleSysSearch}) {
        Telemetry tel;
        PlanSelector selector(defaultPlatform(), AllocatorConfig{},
                              &tel);
        PlanInputs in;
        in.policy = kind;
        in.cap = 100.0;
        in.budget = 100.0;
        in.curves = ptrs;
        in.appCount = ptrs.size();
        PlanDecision d = selector.select(in);
        EXPECT_EQ(d.choice, PlanChoice::SpatialUtility);
        EXPECT_LE(d.alloc.used, in.budget + 1e-6);
        trace::EventId counter =
            kind == PolicyKind::FastCapFair
                ? trace::EventId::PolicyFastcapPlans
                : trace::EventId::PolicyCuttlesysPlans;
        EXPECT_GE(tel.counter(counter), 1u);
    }
}

TEST_F(ArenaPlannerTest, SelectedPlanFitsTheBudgetForEveryPolicy)
{
    // Realized meter violations are transiently nonzero by design
    // (actuation lag), so the exact invariant is checked where it is
    // exact: each policy's selected plan against the budget offered.
    UtilityCurve avg("server-average", settings,
                     averageSurfaces(surfaces), KnobFreedom::All);
    PlanSelector selector(defaultPlatform(), AllocatorConfig{});
    const double n = static_cast<double>(ptrs.size());
    for (const PolicyInfo &info : PolicyRegistry::instance().all()) {
        for (double budget = 10.0; budget <= 150.0; budget += 3.5) {
            PlanInputs in;
            in.policy = info.kind;
            in.cap = budget;
            in.budget = budget;
            in.curves = ptrs;
            in.appCount = ptrs.size();
            in.serverAverage = &avg;
            PlanDecision d = selector.select(in);
            double granted = 0.0;
            switch (d.choice) {
              case PlanChoice::SpatialUtility:
                granted = d.alloc.used;
                break;
              case PlanChoice::FairRaplSpace:
              case PlanChoice::ServerAvgSpace:
                granted = d.perAppBudget * n;
                break;
              default:
                // Temporal and idle plans run at most one app at a
                // time within the ON budget: nothing concurrent to sum.
                continue;
            }
            EXPECT_LE(granted, budget + 1e-6)
                << info.cliName << " at " << budget << " W ("
                << planChoiceName(d.choice) << ")";
        }
    }
}

/** Sum of both apps' normalized perf for one arena cell: the mix on
 * an ESD-equipped server under three 5 s segments of 80 W, oracle
 * utilities, no faults (the arena's "tight-80" row). */
double
tightCapUtility(PolicyKind kind, int mix_id)
{
    sim::Server server;
    server.attachEsd(esd::leadAcidUps());
    server.setCap(80.0);
    ManagerConfig cfg;
    cfg.policy = kind;
    cfg.oracleUtilities = true;
    ServerManager manager(server, cfg);
    manager.seedCorpus(perf::workloadLibrary());
    const perf::Mix &mx = perf::mix(mix_id);
    manager.addApp(perf::workload(mx.app1));
    manager.addApp(perf::workload(mx.app2));
    for (int segment = 0; segment < 3; ++segment) {
        manager.setCap(80.0);
        manager.run(toTicks(5.0));
    }
    double utility = 0.0;
    for (const AppRecord &rec : manager.records())
        utility += rec.normalizedPerf(server.now());
    return utility;
}

TEST(ArenaHomeTurf, BaselineWithinTwoPercentOfBestRivalAtTightCap)
{
    // Rivals may win elsewhere (that is the arena's point), but under
    // the stringent constant cap with the ESD attached the paper's
    // full baseline must not be beaten by more than 2% on its best
    // mix of the arena's four.
    auto best = [](PolicyKind kind) {
        double top = 0.0;
        for (int mix_id : {1, 5, 8, 12})
            top = std::max(top, tightCapUtility(kind, mix_id));
        return top;
    };
    double baseline = best(PolicyKind::AppResEsdAware);
    EXPECT_GT(baseline, 0.0);
    for (PolicyKind rival :
         {PolicyKind::FastCapFair, PolicyKind::CuttleSysSearch}) {
        EXPECT_LE(best(rival), baseline * 1.02 + 1e-9)
            << policyName(rival);
    }
}

} // namespace
} // namespace psm::core
