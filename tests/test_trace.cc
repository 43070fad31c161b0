/**
 * @file
 * Tests for the trace event registry and the Telemetry store keyed by
 * it: the registry, publish/merge semantics, reads by registry name,
 * the decision-ring bound, JSON escaping/non-finite hygiene, and
 * parallel publish into one bus per work index against a reference
 * fold of the published stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/coordinator.hh"
#include "core/plan_selector.hh"
#include "core/policy.hh"
#include "core/telemetry.hh"
#include "trace/trace.hh"
#include "util/thread_pool.hh"

namespace psm
{
namespace
{

using core::DecisionRecord;
using core::Telemetry;
using core::TimerStat;

// --- Event registry ------------------------------------------------

TEST(TraceRegistry, NamesRoundTripToDenseIds)
{
    ASSERT_GT(trace::kEventCount, 0u);
    for (std::size_t i = 0; i < trace::kEventCount; ++i) {
        auto id = static_cast<trace::EventId>(i);
        std::string_view name = trace::eventName(id);
        ASSERT_FALSE(name.empty());
        trace::EventId back;
        ASSERT_TRUE(trace::lookupEvent(name, back)) << name;
        EXPECT_EQ(back, id) << name;
    }
    trace::EventId out;
    EXPECT_FALSE(trace::lookupEvent("definitely.not.registered", out));
}

// --- Publish and merge -----------------------------------------------

TEST(Telemetry, FoldAndMergeSemantics)
{
    Telemetry a;
    constexpr std::uint64_t polls = 785;
    for (std::uint64_t i = 0; i < polls; ++i)
        a.count(trace::EventId::ControlPolls);
    a.observe(trace::EventId::ManagerReallocate, 10);
    a.observe(trace::EventId::ManagerReallocate, 4);
    a.gauge(trace::EventId::PoolInflight, 5);
    a.gauge(trace::EventId::ServeShed, 11);
    // A zero-delta bump still marks the counter published.
    a.count(trace::EventId::SelectorIdle, 0);

    EXPECT_EQ(a.counter(trace::EventId::ControlPolls), polls);
    TimerStat t = a.timer(trace::EventId::ManagerReallocate);
    EXPECT_EQ(t.count, 2u);
    EXPECT_EQ(t.total, 14u);
    EXPECT_EQ(t.max, 10u);
    EXPECT_TRUE(a.touched(trace::EventId::PoolInflight));
    EXPECT_FALSE(a.touched(trace::EventId::FaultMeterNan));
    EXPECT_TRUE(a.touched(trace::EventId::SelectorIdle));
    EXPECT_EQ(a.counters().count("selector.idle"), 1u);
    EXPECT_EQ(a.counters().at("selector.idle"), 0u);

    Telemetry b;
    b.count(trace::EventId::ControlPolls, 3);
    b.observe(trace::EventId::ManagerReallocate, 20);
    b.gauge(trace::EventId::PoolInflight, 9);

    a.merge(b);
    EXPECT_EQ(a.counter(trace::EventId::ControlPolls), polls + 3);
    t = a.timer(trace::EventId::ManagerReallocate);
    EXPECT_EQ(t.count, 3u);
    EXPECT_EQ(t.total, 34u);
    EXPECT_EQ(t.max, 20u);
    // Gauges: the merged-in bus's sample wins...
    EXPECT_EQ(a.counter(trace::EventId::PoolInflight), 9u);
    // ...but only where that bus published one.
    EXPECT_EQ(a.counter(trace::EventId::ServeShed), 11u);
    EXPECT_FALSE(a.touched(trace::EventId::FaultMeterNan));
}

// --- Reads by name --------------------------------------------------

TEST(TelemetryTrace, StringNamesRouteToDenseSlots)
{
    Telemetry tel;
    tel.count(trace::EventId::ControlPolls, 3);
    tel.count(trace::EventId::ControlPolls, 2);
    EXPECT_EQ(tel.counter("control.polls"), 5u);
    EXPECT_EQ(tel.counter(trace::EventId::ControlPolls), 5u);

    tel.observe(trace::EventId::ManagerReallocate, 7);
    tel.observe(trace::EventId::ManagerReallocate, 3);
    TimerStat t = tel.timer("manager.reallocate");
    EXPECT_EQ(t.count, 2u);
    EXPECT_EQ(t.total, 10u);
    EXPECT_EQ(t.max, 7u);

    // A registered name of the other kind reads as zero.
    EXPECT_EQ(tel.counter("manager.reallocate"), 0u);
    EXPECT_EQ(tel.timer("control.polls").count, 0u);

    // The name-ordered view carries exactly one entry for the key.
    EXPECT_EQ(tel.counters().count("control.polls"), 1u);
    EXPECT_EQ(tel.counters().at("control.polls"), 5u);
}

// --- Decision ring bound -------------------------------------------

TEST(TelemetryTrace, DecisionRingDropsOldest)
{
    DecisionRecord rec;
    rec.policy = core::PolicyKind::AppResAware;
    rec.plan = core::PlanChoice::SpatialUtility;
    rec.mode = core::CoordinationMode::Space;
    rec.trigger = "refresh";
    const std::size_t n = Telemetry::maxDecisions + 1000;
    Telemetry tel;
    for (std::size_t i = 0; i < n; ++i) {
        rec.when = static_cast<Tick>(i);
        tel.record(rec);
    }

    // Past maxDecisions the ring keeps the newest records.
    const auto &log = tel.decisions();
    ASSERT_EQ(log.size(), Telemetry::maxDecisions);
    EXPECT_EQ(log.front().when,
              static_cast<Tick>(n - Telemetry::maxDecisions));
    EXPECT_EQ(log.back().when, static_cast<Tick>(n - 1));
    EXPECT_EQ(log.back().plan, core::PlanChoice::SpatialUtility);
    EXPECT_EQ(log.back().mode, core::CoordinationMode::Space);
}

// --- JSON hygiene --------------------------------------------------

TEST(TelemetryTrace, JsonEscapesControlCharacters)
{
    Telemetry tel;
    DecisionRecord rec;
    rec.trigger = "a\"b\\c\nd\te\rf\x01g\bh\ff";
    tel.record(rec);

    std::ostringstream os;
    tel.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\bh\\ff"),
              std::string::npos)
        << json;
    // No raw control characters may survive into the document.
    for (char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(TelemetryTrace, JsonNonFiniteNumbersAreNull)
{
    Telemetry tel;
    DecisionRecord rec;
    rec.trigger = "t";
    rec.objective = std::numeric_limits<double>::quiet_NaN();
    rec.budget = std::numeric_limits<double>::infinity();
    tel.record(rec);

    std::ostringstream os;
    tel.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"objective\":null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"budget_w\":null"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

// --- Parallel publish against a reference fold ----------------------

constexpr std::size_t kBuses = 8;

/** Bus @p s's publish stream, handed to @p count / @p observe one
 * publish at a time. */
template <typename Count, typename Observe>
void
busStream(std::size_t s, Count &&count, Observe &&observe)
{
    for (std::size_t i = 0; i < 200; ++i) {
        count(trace::EventId::ControlPolls, 1);
        count(trace::EventId::AllocatorAllocate, s + 1);
        observe(trace::EventId::ManagerReallocate,
                static_cast<Tick>((s * 7 + i) % 11));
        observe(trace::EventId::AllocatorSpatial,
                static_cast<Tick>(i % 5 + s));
        count(trace::EventId::SelectorIdle, i % 3);
    }
}

/** Publish every bus's stream in parallel, plus one decision record
 * per bus. */
std::vector<Telemetry>
publishPerBus(unsigned width)
{
    util::ThreadPool::configureGlobal(width);
    std::vector<Telemetry> buses(kBuses);
    util::ThreadPool::global().parallelFor(
        buses.size(), [&](std::size_t s) {
            Telemetry &bus = buses[s];
            busStream(
                s,
                [&](trace::EventId id, std::uint64_t d) {
                    bus.count(id, d);
                },
                [&](trace::EventId id, Tick t) { bus.observe(id, t); });
            DecisionRecord rec;
            rec.when = static_cast<Tick>(s);
            rec.trigger = "bus";
            bus.record(rec);
        });
    util::ThreadPool::configureGlobal(0);
    return buses;
}

TEST(TelemetryTrace, ParallelBusesAggregateLikeASerialFold)
{
    // Reference: the plain name-keyed map fold of the same stream,
    // computed serially — per-event sums, and count/total/max per
    // timer.
    std::map<std::string, std::uint64_t> want_counters;
    std::map<std::string, TimerStat> want_timers;
    for (std::size_t s = 0; s < kBuses; ++s) {
        busStream(
            s,
            [&](trace::EventId id, std::uint64_t d) {
                want_counters[std::string(trace::eventName(id))] += d;
            },
            [&](trace::EventId id, Tick t) {
                TimerStat &w =
                    want_timers[std::string(trace::eventName(id))];
                ++w.count;
                w.total += t;
                w.max = std::max(w.max, t);
            });
    }

    for (unsigned width : {1u, 4u}) {
        SCOPED_TRACE("pool width " + std::to_string(width));
        std::vector<Telemetry> buses = publishPerBus(width);
        Telemetry bus;
        for (const Telemetry &b : buses)
            bus.merge(b);

        EXPECT_EQ(bus.counters(), want_counters);

        const std::map<std::string, TimerStat> timers = bus.timers();
        ASSERT_EQ(timers.size(), want_timers.size());
        for (const auto &[name, want] : want_timers) {
            ASSERT_EQ(timers.count(name), 1u) << name;
            const TimerStat &got = timers.at(name);
            EXPECT_EQ(got.count, want.count) << name;
            EXPECT_EQ(got.total, want.total) << name;
            EXPECT_EQ(got.max, want.max) << name;
        }

        // Decision records stay on the bus that recorded them; the
        // record's time says which bus that was.
        EXPECT_TRUE(bus.decisions().empty());
        for (std::size_t s = 0; s < kBuses; ++s) {
            const auto &log = buses[s].decisions();
            ASSERT_EQ(log.size(), 1u);
            EXPECT_EQ(log[0].when, static_cast<Tick>(s));
        }
    }
}

} // namespace
} // namespace psm
