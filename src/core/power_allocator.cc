#include "power_allocator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/logging.hh"

namespace psm::core
{

namespace
{

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

bool
Allocation::allScheduled() const
{
    for (const auto &a : apps)
        if (!a.scheduled())
            return false;
    return !apps.empty();
}

PowerAllocator::PowerAllocator(AllocatorConfig config) : cfg(config)
{
    psm_assert(cfg.granularity > 0.0);
}

PowerAllocator::ReservePlan
PowerAllocator::reservePlan(
    const std::vector<const UtilityCurve *> &curves,
    Watts dynamic_budget) const
{
    std::size_t k = curves.size();

    // Eq. 1 weighs all applications evenly: whenever the budget can
    // host every application's cheapest point, reserve those minima
    // so nobody is starved, and let the DP divide only the headroom.
    ReservePlan rp;
    rp.reserve.assign(k, 0.0);
    if (cfg.reserveMinima) {
        Watts mins = 0.0;
        for (const auto *c : curves)
            mins += c->minPower();
        if (mins <= dynamic_budget) {
            for (std::size_t i = 0; i < k; ++i)
                rp.reserve[i] = curves[i]->minPower();
            rp.total = mins;
            rp.applied = true;
        }
    }
    Watts headroom = dynamic_budget - rp.total;

    // Past sum_i (ceil((max_i - reserve_i) / g) + 1) buckets every app
    // affords its top frontier point, so the walk-back takes the same
    // choices from any wider count.  Capping there keeps a huge (or
    // infinite) budget from sizing the DP tables.
    double top = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        top += std::ceil((curves[i]->maxPower() - rp.reserve[i]) /
                         cfg.granularity) +
               1.0;
    }
    rp.buckets = static_cast<std::size_t>(
        std::min(std::floor(headroom / cfg.granularity), top));
    return rp;
}

Allocation
PowerAllocator::allocate(const std::vector<const UtilityCurve *> &curves,
                         Watts dynamic_budget) const
{
    return allocate(curves, dynamic_budget, nullptr, 0);
}

Allocation
PowerAllocator::allocate(const std::vector<const UtilityCurve *> &curves,
                         Watts dynamic_budget, AllocatorCache *cache,
                         std::uint64_t epoch) const
{
    psm_assert(!curves.empty());
    psm_assert(dynamic_budget >= 0.0);
    auto t0 = std::chrono::steady_clock::now();
    if (tel)
        tel->count(trace::EventId::AllocatorAllocate);

    ReservePlan rp = reservePlan(curves, dynamic_budget);
    std::vector<Watts> granted;
    if (!cache || epoch == 0) {
        granted = walkBack(fold(curves, rp, rp.buckets), rp);
    } else {
        AllocatorCache &c = *cache;
        bool hit = c.valid && c.epoch == epoch &&
                   c.granularity == cfg.granularity &&
                   c.reserveApplied == rp.applied &&
                   rp.buckets <= c.width &&
                   c.apps.size() == curves.size();
        for (std::size_t i = 0; hit && i < curves.size(); ++i) {
            hit = c.apps[i].first == curves[i]->name() &&
                  c.apps[i].second == rp.reserve[i];
        }
        if (!hit) {
            // Pad the width by the largest reserve minimum so small
            // cap raises still land inside the tables.
            std::size_t pad = 0;
            c.apps.clear();
            for (std::size_t i = 0; i < curves.size(); ++i) {
                Watts r = rp.reserve[i];
                if (r > 0.0) {
                    pad = std::max(
                        pad, static_cast<std::size_t>(
                                 std::ceil(r / cfg.granularity)) + 1);
                }
                c.apps.emplace_back(curves[i]->name(), r);
            }
            c.valid = true;
            c.epoch = epoch;
            c.granularity = cfg.granularity;
            c.reserveApplied = rp.applied;
            c.width = rp.buckets + pad;
            c.choice = fold(curves, rp, c.width);
        }
        if (tel) {
            tel->count(hit ? trace::EventId::AllocatorDpFullHits
                           : trace::EventId::AllocatorDpRebuilds);
        }
        granted = walkBack(c.choice, rp);
    }
    Allocation alloc = buildAllocation(curves, granted, dynamic_budget);
    if (tel)
        tel->observe(trace::EventId::AllocatorSpatial, toTicks(wallSeconds(t0)));
    return alloc;
}

PowerAllocator::ChoiceTables
PowerAllocator::fold(const std::vector<const UtilityCurve *> &curves,
                     const ReservePlan &rp, std::size_t width) const
{
    // dp[b] is the best objective of the apps folded so far within b
    // buckets; app i's pass sets next[b] = max over its candidates
    // (x, v), x <= b, of dp[b - x] + v, recording the smallest
    // maximizing x.  perfAt() only changes value at the thresholds
    // where a frontier point first becomes affordable, so the inner
    // max needs P candidates, not B buckets.  This equals a dense
    // scan over every x in [0, b] bit for bit: between thresholds
    // the app's value is constant while dp is non-decreasing, so any
    // other x is dominated by the start of its step — which is also
    // smaller, so the dense scan's first maximizer is a threshold and
    // the ascending strict-> scan below picks the very same one.
    std::size_t k = curves.size();
    ChoiceTables choice(k, std::vector<std::size_t>(width + 1, 0));
    std::vector<double> dp(width + 1, 0.0);
    std::vector<double> next(width + 1, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
        auto cands = curves[i]->bucketCandidates(
            rp.reserve[i], cfg.granularity, width);
        for (std::size_t b = 0; b <= width; ++b) {
            double best = -1.0;
            std::size_t best_x = 0;
            for (const auto &[x, v] : cands) {
                if (x > b)
                    break;
                double cand = dp[b - x] + v;
                if (cand > best) {
                    best = cand;
                    best_x = x;
                }
            }
            next[b] = best;
            choice[i][b] = best_x;
        }
        dp.swap(next);
    }
    return choice;
}

std::vector<Watts>
PowerAllocator::walkBack(const ChoiceTables &choice,
                         const ReservePlan &rp) const
{
    std::size_t k = choice.size();
    std::vector<Watts> granted(k, 0.0);
    std::size_t b = rp.buckets;
    for (std::size_t ii = k; ii-- > 0;) {
        std::size_t x = choice[ii][b];
        granted[ii] = rp.reserve[ii] +
                      static_cast<double>(x) * cfg.granularity;
        b -= x;
    }
    return granted;
}

Allocation
PowerAllocator::buildAllocation(
    const std::vector<const UtilityCurve *> &curves,
    const std::vector<Watts> &granted, Watts dynamic_budget) const
{
    Allocation alloc;
    alloc.dynamicBudget = dynamic_budget;
    alloc.apps.resize(curves.size());
    for (std::size_t i = 0; i < curves.size(); ++i) {
        AppAllocation &a = alloc.apps[i];
        a.app = curves[i]->name();
        a.point = curves[i]->bestWithin(granted[i]);
        if (a.point) {
            a.budget = granted[i];
            a.expectedPerf = a.point->perfNorm;
        }
    }

    distributeSlack(curves, alloc);

    alloc.used = 0.0;
    alloc.objective = 0.0;
    for (const auto &a : alloc.apps) {
        if (a.scheduled()) {
            // Consumers (actuation accounting, decision records) rely
            // on a scheduled app's point fitting its granted budget.
            psm_assert(a.point->power <= a.budget + 1e-9);
            alloc.used += a.point->power;
            alloc.objective += a.expectedPerf;
        }
    }
    return alloc;
}

void
PowerAllocator::distributeSlack(
    const std::vector<const UtilityCurve *> &curves,
    Allocation &alloc) const
{
    // Repeatedly upgrade the application whose next frontier point
    // fits the remaining slack with the best perf-per-watt gain.
    // Each upgrade strictly increases one app's power, so the loop is
    // bounded by the total number of frontier points — but a frontier
    // with a pathological (non-monotonic) shape must not be able to
    // spin the control loop, hence the explicit iteration guard.
    std::size_t max_upgrades = 0;
    for (const auto *c : curves)
        max_upgrades += c->points().size() + 1;
    for (std::size_t iter = 0;; ++iter) {
        if (iter > max_upgrades) {
            if (tel)
                tel->count(trace::EventId::AllocatorSlackGuardTrips);
            warn("allocator slack pass exceeded %zu upgrades; "
                 "keeping the current allocation",
                 max_upgrades);
            return;
        }
        Watts used = 0.0;
        for (const auto &a : alloc.apps)
            if (a.scheduled())
                used += a.point->power;
        Watts slack = alloc.dynamicBudget - used;
        if (slack <= cfg.granularity / 2.0)
            return;

        double best_gain = 0.0;
        std::size_t best_i = alloc.apps.size();
        std::optional<UtilityPoint> best_point;
        for (std::size_t i = 0; i < alloc.apps.size(); ++i) {
            const AppAllocation &a = alloc.apps[i];
            Watts current = a.scheduled() ? a.point->power : 0.0;
            double current_perf = a.scheduled() ? a.expectedPerf : 0.0;
            auto upgraded = curves[i]->bestWithin(current + slack);
            if (!upgraded || upgraded->power <= current + 1e-9)
                continue;
            double gain = (upgraded->perfNorm - current_perf) /
                          (upgraded->power - current);
            if (gain > best_gain) {
                best_gain = gain;
                best_i = i;
                best_point = upgraded;
            }
        }
        if (best_i == alloc.apps.size())
            return;
        AppAllocation &a = alloc.apps[best_i];
        a.point = best_point;
        // The upgrade spends slack, not the app's grant: keep the
        // granted watts (only widening them if the DP never scheduled
        // this app) so point->power <= budget stays true.
        a.budget = std::max(a.budget, best_point->power);
        a.expectedPerf = best_point->perfNorm;
    }
}

Allocation
PowerAllocator::equalSplit(
    const std::vector<const UtilityCurve *> &curves,
    Watts dynamic_budget) const
{
    psm_assert(!curves.empty());
    Allocation alloc;
    alloc.dynamicBudget = dynamic_budget;
    Watts share = dynamic_budget / static_cast<double>(curves.size());
    for (const auto *curve : curves) {
        AppAllocation a;
        a.app = curve->name();
        a.point = curve->bestWithin(share);
        if (a.point) {
            a.budget = share;
            a.expectedPerf = a.point->perfNorm;
            alloc.used += a.point->power;
            alloc.objective += a.expectedPerf;
        }
        alloc.apps.push_back(std::move(a));
    }
    return alloc;
}

TemporalPlan
PowerAllocator::temporalPlan(
    const std::vector<const UtilityCurve *> &curves, Watts on_budget,
    ShareMode mode) const
{
    if (tel)
        tel->count(trace::EventId::AllocatorTemporalPlan);
    TemporalPlan plan;
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < curves.size(); ++i) {
        auto point = curves[i]->bestWithin(on_budget);
        if (point) {
            TemporalSlot slot;
            slot.app = curves[i]->name();
            slot.point = *point;
            plan.slots.push_back(std::move(slot));
            runnable.push_back(i);
        } else {
            plan.unschedulable.push_back(curves[i]->name());
        }
    }
    if (plan.slots.empty())
        return plan;

    if (mode == ShareMode::Equal) {
        double share = 1.0 / static_cast<double>(plan.slots.size());
        for (auto &slot : plan.slots)
            slot.share = share;
    } else {
        // Weight by perf-per-watt at the ON point, floored so no
        // application starves.  Clamping a slot to the floor and then
        // renormalizing dilutes every other slot, which can push a
        // previously-safe slot back under the floor — so water-fill:
        // clamp offenders, re-spread only the unclamped weight mass
        // over the remaining share, and repeat.  Each round clamps at
        // least one more slot, so it terminates within n rounds (the
        // all-clamped case is exactly the equal split when the floor
        // is feasible, i.e. shareFloor <= 1).
        double floor_share =
            shareFloor / static_cast<double>(plan.slots.size());
        std::vector<double> weight(plan.slots.size());
        std::vector<bool> clamped(plan.slots.size(), false);
        for (std::size_t i = 0; i < plan.slots.size(); ++i) {
            weight[i] = plan.slots[i].point.perfNorm /
                        std::max(plan.slots[i].point.power, 1e-9);
        }
        for (;;) {
            double free_weight = 0.0;
            double free_share = 1.0;
            for (std::size_t i = 0; i < plan.slots.size(); ++i) {
                if (clamped[i])
                    free_share -= floor_share;
                else
                    free_weight += weight[i];
            }
            bool changed = false;
            for (std::size_t i = 0; i < plan.slots.size(); ++i) {
                if (clamped[i]) {
                    plan.slots[i].share = floor_share;
                    continue;
                }
                double share =
                    free_share * weight[i] /
                    std::max(free_weight, 1e-12);
                if (share < floor_share - 1e-12) {
                    clamped[i] = true;
                    changed = true;
                } else {
                    plan.slots[i].share = share;
                }
            }
            if (!changed)
                break;
        }
    }

    for (const auto &slot : plan.slots)
        plan.objective += slot.share * slot.point.perfNorm;
    return plan;
}

EsdPlan
PowerAllocator::esdPlan(const std::vector<const UtilityCurve *> &curves,
                        Watts idle_power, Watts cm_power, Watts cap,
                        const esd::BatteryConfig &esd,
                        Watts off_cm_power) const
{
    EsdPlan best;
    auto t0 = std::chrono::steady_clock::now();
    if (tel)
        tel->count(trace::EventId::AllocatorEsdPlan);
    if (curves.empty())
        return best;
    if (cap <= idle_power + off_cm_power)
        return best; // no headroom to ever charge

    // Whatever the platform still draws while everything is OFF
    // (idle floor plus any always-awake management plane) eats into
    // the charge headroom Eq. 5 divides by.
    Watts charge = std::min(cap - idle_power - off_cm_power,
                            esd.maxChargePower);
    double eta = esd.roundTripEfficiency();

    // Candidate ON-period dynamic budgets: from the cheapest joint
    // operating point up to everyone flat out.
    Watts lo = 0.0;
    Watts hi = 0.0;
    for (const auto *c : curves) {
        lo += c->minPower();
        hi += c->maxPower();
    }

    // Walk the candidate budgets by integer bucket index rather than
    // accumulating `budget += step`: repeated addition drifts, and
    // near the boundary the drift could add or drop the final
    // candidate depending on how the error happened to round.
    auto sweep = static_cast<std::size_t>(
        std::floor((hi - lo + 1e-9) / esdSearchStep)) + 1;

    // The DP table for the largest candidate budget subsumes every
    // smaller one: rows and choices at bucket index b never depend on
    // the table width, so one fold plus a walk-back per candidate
    // replaces `sweep` independent allocate() calls.  This needs the
    // reserve regime to be uniform across the sweep, which it is:
    // every candidate budget is lo + bucket*step >= lo, and lo
    // accumulates the same minPower() terms in the same order
    // reservePlan() sums, so `mins <= budget` answers identically for
    // all candidates.
    Watts budget_max =
        lo + static_cast<double>(sweep - 1) * esdSearchStep;
    ReservePlan rp_max = reservePlan(curves, budget_max);
    ChoiceTables choice = fold(curves, rp_max, rp_max.buckets);

    for (std::size_t bucket = 0; bucket < sweep; ++bucket) {
        Watts budget =
            lo + static_cast<double>(bucket) * esdSearchStep;
        // Re-derive the candidate's bucket count through the very
        // expressions a standalone allocate() would use, so the
        // walk-back starts from a bit-identical index.
        ReservePlan rp = reservePlan(curves, budget);
        psm_assert(rp.applied == rp_max.applied);
        psm_assert(rp.buckets <= rp_max.buckets);
        Allocation alloc =
            buildAllocation(curves, walkBack(choice, rp), budget);
        if (!alloc.allScheduled())
            continue;
        Watts on_draw = idle_power + cm_power + alloc.used;
        Watts deficit = on_draw - cap;
        double on_fraction;
        if (deficit <= 0.0) {
            // Fits under the cap outright; no OFF period needed.
            on_fraction = 1.0;
            deficit = 0.0;
        } else {
            if (deficit > esd.maxDischargePower)
                continue; // battery cannot bridge this draw
            // Eq. 5: off/on = deficit / (eta * charge headroom).
            double off_over_on = deficit / (eta * charge);
            on_fraction = 1.0 / (1.0 + off_over_on);
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
    if (tel)
        tel->observe(trace::EventId::AllocatorEsd, toTicks(wallSeconds(t0)));
    return best;
}

} // namespace psm::core
