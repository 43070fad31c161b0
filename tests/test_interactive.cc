/**
 * @file
 * Tests for the latency-critical (interactive) application class:
 * profile validation and library, open-loop request-queue determinism
 * and its M/M/1 closed-form cross-check, the SLO-aware allocator's
 * home turf on bench_slo's cap sweep, bit-identical replay across
 * thread widths, checked cluster-configuration
 * errors, and the v2 wire fields (app class + SLO).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "cluster/node_pool.hh"
#include "core/manager.hh"
#include "core/utility_curve.hh"
#include "perf/latency.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "serve/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/request_queue.hh"
#include "sim/server.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace psm
{
namespace
{

TEST(InteractiveProfile, LibraryIsCalibratedAndValid)
{
    const auto &lib = perf::interactiveLibrary();
    ASSERT_GE(lib.size(), 3u);
    for (const perf::AppProfile &p : lib) {
        EXPECT_TRUE(p.interactive());
        EXPECT_GT(p.offeredLoad, 0.0);
        EXPECT_GT(p.hbPerRequest, 0.0);
        EXPECT_GT(p.sloP99, 0.0);
        p.validate(); // must not die
        // The calibration leaves the uncapped queue stable: the SLO
        // knee is attainable at full power.
        perf::PerfModel model(power::defaultPlatform(), p);
        EXPECT_LT(p.offeredLoad, p.serviceRate(model.maxHbRate()));
    }
}

TEST(InteractiveProfile, ValidationCatchesHalfBuiltProfiles)
{
    perf::AppProfile p = perf::interactiveLibrary()[0];
    p.offeredLoad = 0.0;
    EXPECT_DEATH(p.validate(), "offeredLoad");

    // Interactive fields on a batch profile are equally a bug.
    perf::AppProfile batch = perf::workload("stream");
    batch.sloP99 = 0.1;
    EXPECT_DEATH(batch.validate(), "interactive");
}

TEST(InteractiveProfile, LookupDiagnosticsListValidNames)
{
    EXPECT_TRUE(perf::hasWorkload("stream"));
    EXPECT_TRUE(perf::hasWorkload("websearch"));
    EXPECT_FALSE(perf::hasWorkload("webesearch"));
    // Both classes appear in the advertised name list.
    std::string names = perf::workloadNames();
    EXPECT_NE(names.find("stream"), std::string::npos);
    EXPECT_NE(names.find("websearch"), std::string::npos);
    // A typo dies with the valid names, not a bare "unknown".
    EXPECT_DEATH(perf::workload("webesearch"), "expected one of");
}

TEST(RequestQueue, DeterministicForIdenticalStepSequences)
{
    const perf::AppProfile &p = perf::interactiveLibrary()[0];
    sim::RequestQueue a(p, 42);
    sim::RequestQueue b(p, 42);
    // Heartbeat rate placing the queue at rho = 0.6.
    double rate = p.offeredLoad * p.hbPerRequest / 0.6;
    Tick t = 0;
    for (int i = 0; i < 50; ++i) {
        Tick next = t + toTicks(0.5);
        a.advance(t, next, rate);
        b.advance(t, next, rate);
        t = next;
    }
    EXPECT_GT(a.completed(), 0u);
    EXPECT_EQ(a.arrivals(), b.arrivals());
    EXPECT_EQ(a.completed(), b.completed());
    EXPECT_EQ(a.sloViolations(), b.sloViolations());
    EXPECT_EQ(a.p99(), b.p99());
    EXPECT_EQ(a.meanResponse(), b.meanResponse());
}

TEST(RequestQueue, ArrivalsAccumulateWhileServiceIsStalled)
{
    const perf::AppProfile &p = perf::interactiveLibrary()[0];
    sim::RequestQueue q(p, 7);
    q.advance(0, toTicks(5.0), 0.0);
    EXPECT_GT(q.arrivals(), 0u);
    EXPECT_EQ(q.completed(), 0u);
    EXPECT_EQ(q.depth(), q.arrivals());
}

TEST(RequestQueue, AgreesWithLatencyModelAtLowUtilization)
{
    // At a constant heartbeat rate the queue is exactly M/M/1;
    // perf::LatencyModel is its closed form.  rho 0.3 and 0.5 are
    // bench_slo's agreement points (its golden shows them at the
    // report's 1200 s); here 300 s must already agree within 15%.
    struct Point
    {
        double rho;
        double tolerance;
    };
    for (Point pt : {Point{0.3, 0.15}, Point{0.4, 0.2}, Point{0.5, 0.15}}) {
        SCOPED_TRACE("rho " + std::to_string(pt.rho));
        perf::AppProfile p = perf::interactiveLibrary()[1];
        const double mu = 500.0;
        p.offeredLoad = pt.rho * mu;
        p.sloP99 = perf::LatencyModel::p99(mu, p.offeredLoad);
        p.validate();

        sim::RequestQueue q(p, 12345);
        q.advance(0, toTicks(300.0), mu * p.hbPerRequest);
        ASSERT_GT(q.completed(), 10000u);
        EXPECT_NEAR(q.p99(), p.sloP99, pt.tolerance * p.sloP99);
        double mean = perf::LatencyModel::meanSojourn(mu, p.offeredLoad);
        EXPECT_NEAR(q.meanResponse(), mean, pt.tolerance * mean);
    }
}

/**
 * Test oracle: a request queue that stores every queued request in a
 * deque and fires arrivals through a sim::EventQueue.
 * sim::RequestQueue keeps only the head and replays the seeded draw
 * stream there, so the two must agree bit for bit.
 */
class DequeRequestQueue
{
  public:
    DequeRequestQueue(const perf::AppProfile &profile, std::uint64_t seed)
        : offered_load(profile.offeredLoad),
          hb_per_request(profile.hbPerRequest), slo_p99(profile.sloP99),
          rng(seed), response_hist(0.0, 32.0 * profile.sloP99, 4096)
    {
        next_arrival_s = rng.exponential(offered_load);
        events.schedule(toTicks(next_arrival_s),
                        [this](Tick) { onArrival(); }, "arrival");
    }

    void
    advance(Tick from, Tick to, double hb_rate)
    {
        Tick t = from;
        while (true) {
            Tick next = events.nextEventTime();
            Tick seg_end = std::min(std::max(next, t), to);
            serve(t, seg_end, hb_rate);
            t = seg_end;
            if (next > to)
                break;
            events.runUntil(next);
        }
    }

    std::size_t depth() const { return pending.size(); }

  private:
    struct Request
    {
        double arrivalSec;
        double workHb;
    };

    void
    onArrival()
    {
        ++arrived;
        pending.push_back(
            Request{next_arrival_s, rng.exponential(1.0 / hb_per_request)});
        next_arrival_s += rng.exponential(offered_load);
        events.schedule(toTicks(next_arrival_s),
                        [this](Tick) { onArrival(); }, "arrival");
    }

    void
    serve(Tick t0, Tick t1, double hb_rate)
    {
        if (t1 <= t0)
            return;
        double end_s = toSeconds(t1);
        if (hb_rate <= 0.0) {
            served_until_s = end_s;
            return;
        }
        double now_s = std::max(served_until_s, toSeconds(t0));
        while (!pending.empty()) {
            Request &head = pending.front();
            double start_s = std::max(now_s, head.arrivalSec);
            double finish_s = start_s + head.workHb / hb_rate;
            if (finish_s > end_s) {
                double served = std::max(0.0, end_s - start_s) * hb_rate;
                head.workHb = std::max(0.0, head.workHb - served);
                break;
            }
            now_s = finish_s;
            double response = finish_s - head.arrivalSec;
            ++done;
            if (response > slo_p99)
                ++violations;
            response_sum += response;
            response_hist.push(response);
            pending.pop_front();
        }
        served_until_s = end_s;
    }

    double offered_load;
    double hb_per_request;
    double slo_p99;
    Rng rng;
    sim::EventQueue events;
    double next_arrival_s = 0.0;
    double served_until_s = 0.0;
    std::deque<Request> pending;

  public:
    std::uint64_t arrived = 0;
    std::uint64_t done = 0;
    std::uint64_t violations = 0;
    double response_sum = 0.0;
    Histogram response_hist;
};

/** Every statistic of @p q equals the oracle's, histogram bins too. */
::testing::AssertionResult
sameQueueState(const sim::RequestQueue &q, const DequeRequestQueue &ref)
{
    double ref_mean =
        ref.done > 0 ? ref.response_sum / static_cast<double>(ref.done)
                     : 0.0;
    if (q.arrivals() != ref.arrived || q.completed() != ref.done ||
        q.sloViolations() != ref.violations || q.depth() != ref.depth() ||
        q.meanResponse() != ref_mean ||
        q.p99() != ref.response_hist.percentile(99.0))
        return ::testing::AssertionFailure()
               << "arrivals " << q.arrivals() << "/" << ref.arrived
               << ", completed " << q.completed() << "/" << ref.done
               << ", violations " << q.sloViolations() << "/"
               << ref.violations << ", depth " << q.depth() << "/"
               << ref.depth() << ", mean " << q.meanResponse() << "/"
               << ref_mean << ", p99 " << q.p99() << "/"
               << ref.response_hist.percentile(99.0);
    const Histogram &h = q.responseTimes();
    for (std::size_t b = 0; b < h.binCount(); ++b) {
        if (h.binSamples(b) != ref.response_hist.binSamples(b))
            return ::testing::AssertionFailure()
                   << "bin " << b << ": " << h.binSamples(b) << "/"
                   << ref.response_hist.binSamples(b);
    }
    return ::testing::AssertionSuccess();
}

TEST(RequestQueue, MatchesDequeOracleAfterEveryStep)
{
    for (const perf::AppProfile &p : perf::interactiveLibrary()) {
        for (std::uint64_t seed : {1ULL, 42ULL, 0xfeedULL}) {
            SCOPED_TRACE(p.name + " seed " + std::to_string(seed));
            sim::RequestQueue q(p, seed);
            DequeRequestQueue ref(p, seed);
            const double offered_work = p.offeredLoad * p.hbPerRequest;
            const Tick gap = std::max<Tick>(1, toTicks(1.0 / p.offeredLoad));
            // Step lengths from zero and one tick, through a third of a
            // mean arrival gap, to many gaps per step.
            const Tick lengths[] = {1, gap / 3, toTicks(0.01), 4 * gap, 0,
                                    toTicks(0.25), gap, 2};
            // The app joins late, so the first step fires the arrivals
            // drawn before it.
            Tick t = toTicks(1.5);
            std::size_t step = 0, empty_steps = 0;
            std::uint64_t max_depth = 0;
            auto run = [&](int steps, auto rate_of) {
                for (int i = 0; i < steps; ++i, ++step) {
                    Tick next = t + lengths[step % std::size(lengths)];
                    double rate = rate_of(i);
                    q.advance(t, next, rate);
                    ref.advance(t, next, rate);
                    t = next;
                    ::testing::AssertionResult same = sameQueueState(q, ref);
                    if (!same)
                        return same << " after step " << step;
                    max_depth = std::max<std::uint64_t>(max_depth, q.depth());
                    empty_steps += q.depth() == 0;
                }
                return ::testing::AssertionSuccess();
            };
            // Sustained overload: service at 0.8x the offered work.
            ASSERT_TRUE(run(300, [&](int) { return 0.8 * offered_work; }));
            // Stalled service (a suspended app's idle queue).
            ASSERT_TRUE(run(40, [](int) { return 0.0; }));
            // Alternating overload and headroom.
            ASSERT_TRUE(run(300, [&](int i) {
                return (i % 2 ? 1.3 : 0.8) * offered_work;
            }));
            // Drain the backlog, then keep up with the arrivals.
            std::size_t empty_before_drain = empty_steps;
            ASSERT_TRUE(run(400, [&](int) { return 20.0 * offered_work; }));
            EXPECT_GT(empty_steps, empty_before_drain);
            EXPECT_GT(max_depth, 20u);
            EXPECT_GT(q.completed(), 0u);
        }
    }
}

TEST(InteractiveSlo, FromProfileOnlyValidForInteractive)
{
    core::InteractiveSlo batch =
        core::InteractiveSlo::fromProfile(perf::workload("stream"));
    EXPECT_FALSE(batch.valid());
    const perf::AppProfile &ip = perf::interactiveLibrary()[2];
    core::InteractiveSlo slo = core::InteractiveSlo::fromProfile(ip);
    ASSERT_TRUE(slo.valid());
    EXPECT_DOUBLE_EQ(slo.offeredLoad, ip.offeredLoad);
    EXPECT_DOUBLE_EQ(slo.hbPerRequest, ip.hbPerRequest);
    EXPECT_DOUBLE_EQ(slo.sloP99, ip.sloP99);
}

/** What one bench_slo cell reports about the two apps. */
struct SloCell
{
    double violationFraction = 0.0; ///< the service's late requests
    double batchPerf = 0.0;         ///< the batch app's throughput
};

/** bench_slo's cell: kvstore and stream on one managed server under
 * a constant cap for 90 s, with oracle utilities. */
SloCell
runSloCell(core::PolicyKind kind, Watts cap)
{
    sim::Server server;
    server.setCap(cap);
    core::ManagerConfig cfg;
    cfg.policy = kind;
    cfg.oracleUtilities = true;
    core::ServerManager manager(server, cfg);
    int iid = manager.addApp(perf::interactiveLibrary()[1]); // kvstore
    manager.addApp(perf::workload("stream"));
    manager.run(toTicks(90.0));

    SloCell cell;
    for (const core::AppRecord &rec : manager.records()) {
        if (rec.id == iid)
            cell.violationFraction = rec.violationFraction();
        else
            cell.batchPerf = rec.normalizedPerf(server.now());
    }
    return cell;
}

TEST(InteractiveSlo, AwareAllocatorHoldsItsHomeTurfOnTheSweep)
{
    // bench_slo's sweep (tests/golden/bench_slo.txt).  While the SLO is
    // attainable the SLO-aware allocator is never beaten on violation
    // fraction by the SLO-blind equal split (2 points of slack).
    // Where both lose the SLO outright (75 W, where neither completes
    // a request, and 80 and 85 W) the aware allocator abandons the
    // hopeless knee by design and must turn the service's watts into
    // at least as much batch throughput.  And it strictly wins
    // somewhere (at 90 W: 12.0% late against 99.8%).
    bool strict_win = false;
    int slo_lost = 0;
    for (Watts cap : {75.0, 80.0, 85.0, 90.0, 95.0, 100.0, 105.0, 110.0}) {
        SCOPED_TRACE("cap " + std::to_string(cap) + " W");
        SloCell aware = runSloCell(core::PolicyKind::AppResAware, cap);
        SloCell blind = runSloCell(core::PolicyKind::UtilUnaware, cap);
        if (aware.violationFraction > 0.5 &&
            blind.violationFraction > 0.5) {
            ++slo_lost;
            EXPECT_GE(aware.batchPerf + 1e-9, blind.batchPerf);
        } else {
            EXPECT_LE(aware.violationFraction,
                      blind.violationFraction + 0.02);
        }
        strict_win |=
            aware.violationFraction + 0.02 < blind.violationFraction ||
            (aware.violationFraction <=
                 blind.violationFraction + 1e-9 &&
             aware.batchPerf > blind.batchPerf + 0.02);
    }
    EXPECT_EQ(slo_lost, 3);
    EXPECT_TRUE(strict_win);
}

/** Fingerprint of every record's request statistics. */
std::vector<double>
recordStats(cluster::NodePool &pool)
{
    std::vector<double> out;
    for (auto &node : pool) {
        for (const core::AppRecord &rec : node.manager->records()) {
            out.push_back(rec.beats);
            out.push_back(static_cast<double>(rec.requestArrivals));
            out.push_back(
                static_cast<double>(rec.requestCompletions));
            out.push_back(
                static_cast<double>(rec.requestSloViolations));
            out.push_back(rec.requestP99);
            out.push_back(rec.requestMeanResponse);
        }
    }
    return out;
}

std::vector<double>
mixedPoolRun()
{
    cluster::NodePoolConfig pc;
    pc.servers = 3;
    pc.manager.oracleUtilities = true;
    pc.seedBase = 5;
    pc.serverCap = 95.0;
    cluster::NodePool pool(pc);
    const auto &ilib = perf::interactiveLibrary();
    const char *batch[] = {"stream", "kmeans", "x264"};
    for (std::size_t s = 0; s < pool.size(); ++s) {
        pool[s].manager->addApp(ilib[s % ilib.size()]);
        pool[s].manager->addApp(perf::workload(batch[s]));
    }
    pool.runAll(toTicks(4.0));
    for (auto &node : pool)
        node.manager->setCap(75.0);
    pool.runAll(toTicks(4.0));
    return recordStats(pool);
}

struct ScopedPoolWidth
{
    explicit ScopedPoolWidth(unsigned width)
    {
        util::ThreadPool::configureGlobal(width);
    }
    ~ScopedPoolWidth() { util::ThreadPool::configureGlobal(0); }
};

TEST(InteractiveDeterminism, BitIdenticalAcrossWidths)
{
    std::vector<double> reference;
    for (unsigned width : {1u, 4u}) {
        ScopedPoolWidth scoped(width);
        std::vector<double> stats = mixedPoolRun();
        if (reference.empty()) {
            reference = stats;
            // The scenario must actually exercise the queues.
            double completions = 0.0;
            for (std::size_t i = 2; i < stats.size(); i += 6)
                completions += stats[i];
            EXPECT_GT(completions, 0.0);
        } else {
            ASSERT_EQ(stats.size(), reference.size());
            for (std::size_t i = 0; i < stats.size(); ++i)
                EXPECT_EQ(stats[i], reference[i])
                    << "width " << width << " stat " << i;
        }
    }
}

TEST(ClusterConfigValidate, ChecksNamesPoliciesAndRanges)
{
    cluster::ClusterConfig good;
    good.interactivePerServer = 1;
    std::string err;
    EXPECT_TRUE(good.validate(&err)) << err;

    cluster::ClusterConfig bad_range = good;
    bad_range.interactivePerServer = 3;
    EXPECT_FALSE(bad_range.validate(&err));
    bad_range.interactivePerServer = -1;
    EXPECT_FALSE(bad_range.validate(&err));
    bad_range.servers = 0;
    bad_range.interactivePerServer = 0;
    EXPECT_FALSE(bad_range.validate(&err));

    // Tree replays refuse what the PowerTree cannot build, naming the
    // field; NaN is no oversubscription either.  Flat replays ignore
    // these fields.
    for (double f : {0.5, std::nan("")}) {
        cluster::ClusterConfig bad_tree = good;
        bad_tree.topology = cluster::Topology::Tree;
        bad_tree.oversubscription = f;
        ASSERT_FALSE(bad_tree.validate(&err)) << "F = " << f;
        EXPECT_NE(err.find("oversubscription"), std::string::npos);
        bad_tree.topology = cluster::Topology::Flat;
        EXPECT_TRUE(bad_tree.validate(&err)) << err;
    }
    cluster::ClusterConfig shallow = good;
    shallow.topology = cluster::Topology::Tree;
    shallow.treeDepth = 0;
    ASSERT_FALSE(shallow.validate(&err));
    EXPECT_NE(err.find("treeDepth"), std::string::npos);

    // validate(nullptr) is legal (existence check only).
    EXPECT_FALSE(shallow.validate(nullptr));

    // The constructor defends with the same diagnostic for callers
    // that skipped validate().
    EXPECT_DEATH(cluster::ClusterManager mgr(shallow),
                 "treeDepth must be at least 1");
}

TEST(InteractiveCluster, MixedPopulationReplaysUnderEachPolicy)
{
    for (cluster::ClusterPolicy policy :
         {cluster::ClusterPolicy::EqualOurs,
          cluster::ClusterPolicy::ConsolidationMigration}) {
        cluster::ClusterConfig cfg;
        cfg.policy = policy;
        cfg.servers = 3;
        cfg.interactivePerServer = 1;
        cfg.migrationDowntime = toTicks(2.0);
        cfg.serverBootDelay = toTicks(2.0);
        cluster::ClusterManager cm(cfg);
        cm.populateDefault();
        EXPECT_EQ(cm.appCount(), 6u); // still two per server

        cluster::PowerTrace caps;
        caps.interval = toTicks(5.0);
        Watts demand = cm.uncappedDemandEstimate();
        caps.values = {demand, demand * 0.6, demand * 0.8};
        cluster::ClusterResult r = cm.replay(caps);
        EXPECT_EQ(r.duration, caps.duration());
        EXPECT_GT(r.aggregatePerf, 0.0);
        EXPECT_LE(r.aggregatePerf, 1.01);
        EXPECT_GT(r.avgClusterPower, 0.0);
    }
}

TEST(InteractiveCluster, DiurnalReplayPinnedAtWidthsOneAndFour)
{
    // The perfbench cluster-diurnal configuration (depth-3 tree,
    // oversubscription 1.25, demand-aware splits, CF learning, one
    // service per server, load-following caps at a 30% shave of a
    // 48 x 3 s diurnal trace) at 16 servers.  The services run
    // overloaded (about 24.5k requests are still queued at the end),
    // so this pins interactive queues under backlog at cluster scope:
    // a queue change that moves one response time moves these.
    cluster::TraceConfig tc;
    tc.seed = 1;
    tc.points = 48;
    tc.interval = toTicks(3.0);
    const cluster::PowerTrace demand = cluster::generateDiurnalDemand(tc);
    for (unsigned width : {1u, 4u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        ScopedPoolWidth scoped(width);
        cluster::ClusterConfig cc;
        cc.policy = cluster::ClusterPolicy::EqualOurs;
        cc.servers = 16;
        cc.topology = cluster::Topology::Tree;
        cc.treeDepth = 3;
        cc.oversubscription = 1.25;
        cc.demandAwareSplit = true;
        cc.interactivePerServer = 1;
        cluster::ClusterManager mgr(cc);
        mgr.populateDefault();
        cluster::ClusterResult r = mgr.replay(cluster::loadFollowingCaps(
            demand, mgr.uncappedDemandEstimate(), 0.30));
        core::Telemetry tel = mgr.aggregateTelemetry();
        // 17 significant digits: each literal is exactly the double.
        EXPECT_EQ(r.aggregatePerf, 0.31455451394133216);
        EXPECT_EQ(r.capViolationFraction, 0.012586805555555554);
        EXPECT_EQ(tel.counter(trace::EventId::InteractiveArrivals), 197116u);
        EXPECT_EQ(tel.counter(trace::EventId::InteractiveCompletions),
                  172571u);
        EXPECT_EQ(tel.counter(trace::EventId::InteractiveSloViolations),
                  113509u);
    }
}

TEST(ServeWire, EventRequestCarriesClassAndSlo)
{
    serve::EventRequest ev;
    ev.op = serve::EventOp::Arrival;
    ev.appClass = serve::AppClass::Interactive;
    ev.workload = 1;
    ev.sloP99 = 0.25;
    std::vector<std::uint8_t> bytes = serve::encodeEventRequest(ev);
    serve::EventRequest back;
    ASSERT_TRUE(serve::decodeEventRequest(bytes, back));
    EXPECT_EQ(back.appClass, serve::AppClass::Interactive);
    EXPECT_DOUBLE_EQ(back.sloP99, 0.25);

    // An out-of-range class byte is rejected at decode.  The class
    // is the last-but-9th byte (u8 class + f64 slo close the frame).
    std::vector<std::uint8_t> mutated = bytes;
    mutated[mutated.size() - 9] = 77;
    EXPECT_FALSE(serve::decodeEventRequest(mutated, back));

    // A non-finite SLO is rejected at decode.
    serve::EventRequest inf_ev = ev;
    inf_ev.sloP99 = std::numeric_limits<double>::infinity();
    std::vector<std::uint8_t> inf_bytes =
        serve::encodeEventRequest(inf_ev);
    EXPECT_FALSE(serve::decodeEventRequest(inf_bytes, back));

    // So is a finite one past the documented maximum: 1e300 s would
    // put the queue's p99 beyond the microsecond gauge, and 1e308 s
    // overflows its histogram span to inf (a NaN p99).  The maximum
    // itself and 0 (keep the profile's SLO) still decode.
    for (double slo : {serve::maxSloP99 * 2.0, 1e300, 1e308,
                       -serve::maxSloP99, std::nan("")}) {
        serve::EventRequest big = ev;
        big.sloP99 = slo;
        EXPECT_FALSE(serve::decodeEventRequest(
            serve::encodeEventRequest(big), back))
            << "slo " << slo;
    }
    for (double slo : {0.0, serve::maxSloP99}) {
        serve::EventRequest edge = ev;
        edge.sloP99 = slo;
        ASSERT_TRUE(serve::decodeEventRequest(
            serve::encodeEventRequest(edge), back));
        EXPECT_EQ(back.sloP99, slo);
    }

    // Truncated v1-style frames (no class/SLO tail) fail loudly.
    std::vector<std::uint8_t> truncated(
        bytes.begin(), bytes.end() - 9);
    EXPECT_FALSE(serve::decodeEventRequest(truncated, back));
}

TEST(ManagerInteractive, RecordsTrackQueueAndSloAttainment)
{
    sim::Server server;
    server.setCap(100.0);
    core::ManagerConfig cfg;
    cfg.oracleUtilities = true;
    core::ServerManager manager(server, cfg);
    int iid = manager.addApp(perf::interactiveLibrary()[1]);
    manager.addApp(perf::workload("stream"));
    manager.run(toTicks(20.0));

    bool found = false;
    for (const core::AppRecord &rec : manager.records()) {
        if (rec.id != iid) {
            EXPECT_FALSE(rec.interactive);
            continue;
        }
        found = true;
        EXPECT_TRUE(rec.interactive);
        EXPECT_GT(rec.sloP99, 0.0);
        EXPECT_GT(rec.requestArrivals, 0u);
        EXPECT_GT(rec.requestCompletions, 0u);
        EXPECT_GT(rec.requestP99, 0.0);
        // An interactive service is judged on SLO attainment and
        // never "finishes".
        EXPECT_FALSE(rec.done);
        EXPECT_LE(rec.normalizedPerf(server.now()), 1.0);
        EXPECT_GT(rec.normalizedPerf(server.now()), 0.0);

        // A service that completed none of its requests missed its
        // SLO outright: violation fraction 1, performance 0.
        core::AppRecord starved = rec;
        starved.requestCompletions = 0;
        starved.requestSloViolations = 0;
        EXPECT_EQ(starved.violationFraction(), 1.0);
        EXPECT_EQ(starved.normalizedPerf(server.now()), 0.0);
        // Before any request arrives there is nothing to miss.
        starved.requestArrivals = 0;
        EXPECT_EQ(starved.violationFraction(), 0.0);
    }
    EXPECT_TRUE(found);
    // The interactive.* trace events surfaced on the bus.
    EXPECT_GT(manager.telemetry().counter("interactive.arrivals"),
              0u);
    EXPECT_GT(manager.telemetry().counter("interactive.completions"),
              0u);
}

TEST(ManagerInteractive, P99GaugeSaturatesForAnSloPastTheWireMaximum)
{
    // The wire refuses such SLOs, but an in-process profile may carry
    // one.  With a 1e300 s SLO the p99 reads ~3.9e297 s, past any u64
    // microsecond count: the gauge saturates instead of casting out
    // of range.
    sim::Server server;
    server.setCap(100.0);
    core::ManagerConfig cfg;
    cfg.oracleUtilities = true;
    core::ServerManager manager(server, cfg);
    perf::AppProfile huge = perf::interactiveLibrary()[1];
    huge.sloP99 = 1e300;
    int iid = manager.addApp(huge);
    manager.run(toTicks(5.0));

    const core::AppRecord rec = manager.records().front();
    ASSERT_EQ(rec.id, iid);
    ASSERT_GT(rec.requestCompletions, 0u);
    EXPECT_TRUE(std::isfinite(rec.requestP99));
    EXPECT_GT(rec.requestP99 * 1e6, 18446744073709551616.0);
    EXPECT_EQ(manager.telemetry().counter("interactive.p99_us"),
              std::numeric_limits<std::uint64_t>::max());
}

} // namespace
} // namespace psm
