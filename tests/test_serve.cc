/**
 * @file
 * Tests for the serving layer: wire framing (round trips, rejection
 * of truncated/oversized/garbage input, split-read incremental
 * decode), the payload codecs, the ServeEngine's event semantics and
 * digest determinism, capture files (replay, every prefix, single-byte
 * changes), the thread-pool backlog gauges, the logging
 * knob, and deterministic end-to-end daemon exchanges over
 * socketpairs — the daemon's decisions must be bit-exact against an
 * in-process ControlLoop replay of the same trace, and concurrent
 * connections must each get exactly their own replies.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "net/frame.hh"
#include "net/message_reader.hh"
#include "serve/client.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/replay.hh"
#include "serve/service.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace psm
{
namespace
{

using net::DecodeResult;
using net::Frame;
using net::FrameReader;
using net::FrameType;
using serve::EventOp;
using serve::EventReply;
using serve::EventRequest;
using serve::ReplyStatus;
using serve::ServeEngine;
using serve::ServeService;
using serve::ServiceConfig;

// --- Framing -------------------------------------------------------

TEST(ServeFrame, RoundTripSingleFrame)
{
    std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(FrameType::Event, 42, payload, bytes);
    ASSERT_EQ(bytes.size(), net::kHeaderSize + payload.size());

    FrameReader reader;
    reader.feed(bytes);
    Frame frame;
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.type, FrameType::Event);
    EXPECT_EQ(frame.requestId, 42u);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(reader.next(frame), DecodeResult::NeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ServeFrame, SplitReadIncrementalDecode)
{
    std::vector<std::uint8_t> payload(37, 0xab);
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(FrameType::Query, 7, payload, bytes);

    // Deliver one byte at a time: the reader must stay NeedMore
    // until the last byte lands, then produce exactly one frame.
    FrameReader reader;
    Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        reader.feed(&bytes[i], 1);
        ASSERT_EQ(reader.next(frame), DecodeResult::NeedMore)
            << "premature frame at byte " << i;
    }
    reader.feed(&bytes[bytes.size() - 1], 1);
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.payload, payload);
}

TEST(ServeFrame, GluedFramesDecodeInOrder)
{
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(FrameType::Event, 1, {10}, bytes);
    net::encodeFrame(FrameType::Stats, 2, {}, bytes);
    net::encodeFrame(FrameType::Event, 3, {30, 31}, bytes);

    FrameReader reader;
    reader.feed(bytes);
    Frame frame;
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.requestId, 1u);
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.type, FrameType::Stats);
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.requestId, 3u);
    EXPECT_EQ(frame.payload.size(), 2u);
    EXPECT_EQ(reader.next(frame), DecodeResult::NeedMore);
}

TEST(ServeFrame, GarbageMagicLatchesError)
{
    FrameReader reader;
    std::vector<std::uint8_t> junk(net::kHeaderSize, 0x5a);
    reader.feed(junk);
    Frame frame;
    EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    EXPECT_FALSE(reader.error().empty());
    // The error latches: even valid bytes cannot resynchronize.
    std::vector<std::uint8_t> good;
    net::encodeFrame(FrameType::Event, 1, {}, good);
    reader.feed(good);
    EXPECT_EQ(reader.next(frame), DecodeResult::Error);
}

TEST(ServeFrame, BadVersionAndTypeAndOversizeRejected)
{
    Frame frame;
    {
        std::vector<std::uint8_t> bytes;
        net::encodeFrame(FrameType::Event, 1, {}, bytes);
        bytes[2] = 99; // version
        FrameReader reader;
        reader.feed(bytes);
        EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    }
    {
        std::vector<std::uint8_t> bytes;
        net::encodeFrame(FrameType::Event, 1, {}, bytes);
        bytes[3] = 0xee; // frame type
        FrameReader reader;
        reader.feed(bytes);
        EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    }
    {
        std::vector<std::uint8_t> bytes;
        net::encodeFrame(FrameType::Event, 1, {}, bytes);
        std::uint32_t huge = net::kMaxPayload + 1;
        std::memcpy(&bytes[8], &huge, sizeof(huge));
        FrameReader reader;
        reader.feed(bytes);
        EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    }
}

// --- Payload codecs ------------------------------------------------

TEST(ServeWire, EventRequestRoundTrip)
{
    EventRequest ev;
    ev.op = EventOp::Arrival;
    ev.node = 3;
    ev.appId = -1;
    ev.workload = 7;
    ev.value = 123.456;
    ev.cpuScale = 1.5;
    ev.memScale = 0.25;
    ev.deadlineUs = 250000;

    EventRequest back;
    ASSERT_TRUE(decodeEventRequest(encodeEventRequest(ev), back));
    EXPECT_EQ(back.op, ev.op);
    EXPECT_EQ(back.node, ev.node);
    EXPECT_EQ(back.appId, ev.appId);
    EXPECT_EQ(back.workload, ev.workload);
    EXPECT_EQ(back.value, ev.value);
    EXPECT_EQ(back.cpuScale, ev.cpuScale);
    EXPECT_EQ(back.memScale, ev.memScale);
    EXPECT_EQ(back.deadlineUs, ev.deadlineUs);
}

TEST(ServeWire, EventReplyRoundTrip)
{
    EventReply reply;
    reply.status = ReplyStatus::Rejected;
    reply.node = 1;
    reply.appId = 12;
    reply.batched = 5;
    reply.digest.hash = 0xdeadbeefcafef00dULL;
    reply.digest.passes = 17;
    reply.digest.simNow = 123456789;
    reply.digest.activeApps = 3;
    reply.digest.objective = 2.75;

    EventReply back;
    ASSERT_TRUE(decodeEventReply(encodeEventReply(reply), back));
    EXPECT_EQ(back.status, reply.status);
    EXPECT_EQ(back.batched, reply.batched);
    EXPECT_TRUE(back.digest == reply.digest);
}

TEST(ServeWire, StatsSnapshotRoundTrip)
{
    serve::StatsSnapshot s;
    s.simNow = 42;
    s.nodes = 2;
    s.activeApps = 3;
    s.eventsApplied = 100;
    s.batches = 40;
    s.maxBatch = 8;
    s.counters["control.polls"] = 7;
    s.counters["serve.shed"] = 2;

    serve::StatsSnapshot back;
    ASSERT_TRUE(decodeStatsSnapshot(encodeStatsSnapshot(s), back));
    EXPECT_EQ(back.simNow, s.simNow);
    EXPECT_EQ(back.nodes, s.nodes);
    EXPECT_EQ(back.maxBatch, s.maxBatch);
    EXPECT_EQ(back.counters, s.counters);
    EXPECT_DOUBLE_EQ(back.eventsPerBatch(), 2.5);
}

TEST(ServeWire, MalformedPayloadsRejected)
{
    EventRequest ev;
    std::vector<std::uint8_t> bytes = encodeEventRequest(ev);

    EventRequest out;
    // Truncated.
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
    EXPECT_FALSE(decodeEventRequest(cut, out));
    // Trailing bytes.
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(decodeEventRequest(padded, out));
    // Out-of-range op.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 0xff;
    EXPECT_FALSE(decodeEventRequest(bad, out));
    // Empty.
    EXPECT_FALSE(decodeEventRequest({}, out));
}

// --- Engine semantics ----------------------------------------------

serve::EngineConfig
smallEngine(int nodes = 2)
{
    serve::EngineConfig cfg;
    cfg.nodes = nodes;
    cfg.serverCap = 100.0;
    return cfg;
}

TEST(ServeEngineTest, ArrivalRoutesAndRejectsWhenFull)
{
    ServeEngine eng(smallEngine(1));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.node = -1;

    // Two sockets on the default platform: two routed arrivals land,
    // the third finds no free socket anywhere.
    arrive.workload = 0;
    auto a = eng.apply(arrive);
    EXPECT_EQ(a.status, ReplyStatus::Ok);
    EXPECT_EQ(a.node, 0);
    arrive.workload = 1;
    auto b = eng.apply(arrive);
    EXPECT_EQ(b.status, ReplyStatus::Ok);
    arrive.workload = 2;
    auto c = eng.apply(arrive);
    EXPECT_EQ(c.status, ReplyStatus::Rejected);

    // Out-of-range workload index is the client's error.
    arrive.workload = 100000;
    EXPECT_EQ(eng.apply(arrive).status, ReplyStatus::BadRequest);
}

TEST(ServeEngineTest, DuplicateNameOnNodeRejected)
{
    ServeEngine eng(smallEngine(2));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 0;
    arrive.node = 0;
    EXPECT_EQ(eng.apply(arrive).status, ReplyStatus::Ok);
    // Same profile pinned to the same node: duplicate active name.
    EXPECT_EQ(eng.apply(arrive).status, ReplyStatus::Rejected);
    // Routed instead: lands on the other node.
    arrive.node = -1;
    auto out = eng.apply(arrive);
    EXPECT_EQ(out.status, ReplyStatus::Ok);
    EXPECT_EQ(out.node, 1);
}

TEST(ServeEngineTest, KillAndPhaseChangeValidateTargets)
{
    ServeEngine eng(smallEngine(1));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 3;
    arrive.node = 0;
    auto placed = eng.apply(arrive);
    ASSERT_EQ(placed.status, ReplyStatus::Ok);

    EventRequest phase;
    phase.op = EventOp::PhaseChange;
    phase.node = 0;
    phase.appId = placed.appId;
    phase.cpuScale = 1.5;
    phase.memScale = 0.5;
    EXPECT_EQ(eng.apply(phase).status, ReplyStatus::Ok);

    // Each scale must be a finite factor within the wire bound: a
    // +inf scale makes the next step's bandwidth inf x 0 = NaN, and a
    // subnormal pair underflows the per-heartbeat time to 0.
    const double inf = std::numeric_limits<double>::infinity();
    const double lo = 1.0 / serve::maxPhaseScale;
    const double hi = serve::maxPhaseScale;
    for (double bad : {inf, -inf, std::nan(""), 5e-324, 0.0, -1.0,
                       std::nextafter(lo, 0.0), std::nextafter(hi, inf)}) {
        for (int field = 0; field < 2; ++field) {
            EventRequest edge = phase;
            (field ? edge.memScale : edge.cpuScale) = bad;
            EXPECT_EQ(eng.apply(edge).status, ReplyStatus::BadRequest)
                << (field ? "memScale " : "cpuScale ") << bad;
        }
    }
    phase.cpuScale = phase.memScale = 5e-324;
    EXPECT_EQ(eng.apply(phase).status, ReplyStatus::BadRequest);
    // The bound's own edges are accepted and step cleanly.
    for (auto [cpu, mem] : {std::pair{lo, lo}, std::pair{hi, hi},
                            std::pair{lo, hi}, std::pair{hi, lo}}) {
        phase.cpuScale = cpu;
        phase.memScale = mem;
        EXPECT_EQ(eng.apply(phase).status, ReplyStatus::Ok);
        eng.commit();
    }

    phase.appId = 12345;
    EXPECT_EQ(eng.apply(phase).status, ReplyStatus::Rejected);
    phase.node = 9;
    EXPECT_EQ(eng.apply(phase).status, ReplyStatus::BadRequest);

    EventRequest kill;
    kill.op = EventOp::Kill;
    kill.node = 0;
    kill.appId = placed.appId;
    EXPECT_EQ(eng.apply(kill).status, ReplyStatus::Ok);
    // Already dead.
    EXPECT_EQ(eng.apply(kill).status, ReplyStatus::Rejected);
}

TEST(ServeEngineTest, NumericWireFieldEdgesNeverAbort)
{
    // Every op x numeric field x edge value, against a batch and an
    // interactive target: each case goes through the wire codec as
    // the daemon receives it, what decodes is applied, committed and
    // advanced on a fresh 1-node engine, and every reply must be a
    // status.  Oracle utilities keep ALS out of the loop.  Without
    // the engine's phase bound, a +inf memScale aborts the next step.
    const double inf = std::numeric_limits<double>::infinity();
    const double edges[] = {std::nan(""), inf,   -inf,   0.0,    -0.0,
                            5e-324, -5e-324, 1e-300, 1e308, -1e308,
                            -1.0,   599.9,   600.0,  600.1, 1e-7};
    std::vector<EventRequest> cases;
    for (EventOp op : {EventOp::Advance, EventOp::CapChange,
                       EventOp::Arrival, EventOp::PhaseChange,
                       EventOp::Kill}) {
        EventRequest base;
        base.op = op;
        for (double EventRequest::*field :
             {&EventRequest::value, &EventRequest::cpuScale,
              &EventRequest::memScale, &EventRequest::sloP99}) {
            for (double v : edges) {
                EventRequest ev = base;
                ev.*field = v;
                cases.push_back(ev);
            }
        }
        base.cpuScale = base.memScale = 5e-324;
        cases.push_back(base);
    }

    serve::EngineConfig cfg = smallEngine(1);
    cfg.manager.oracleUtilities = true;
    std::size_t applied = 0;
    for (serve::AppClass target :
         {serve::AppClass::Batch, serve::AppClass::Interactive}) {
        for (const EventRequest &c : cases) {
            ServeEngine eng(cfg);
            EventRequest arrive;
            arrive.op = EventOp::Arrival;
            arrive.node = 0;
            arrive.appClass = target;
            auto placed = eng.apply(arrive);
            ASSERT_EQ(placed.status, ReplyStatus::Ok);

            EventRequest ev = c;
            ev.node = 0;
            ev.appId = placed.appId;
            ev.appClass = target;
            ev.workload = 1; // an Arrival admits a second app
            EventRequest wire;
            if (!serve::decodeEventRequest(serve::encodeEventRequest(ev),
                                           wire))
                continue; // the daemon answers "malformed EVENT"
            ++applied;
            ReplyStatus st = eng.apply(wire).status;
            EXPECT_TRUE(st == ReplyStatus::Ok ||
                        st == ReplyStatus::Rejected ||
                        st == ReplyStatus::BadRequest)
                << serve::eventOpName(ev.op) << " value " << ev.value
                << " cpuScale " << ev.cpuScale << " memScale "
                << ev.memScale << " sloP99 " << ev.sloP99;
            eng.commit();
            EventRequest adv;
            adv.op = EventOp::Advance;
            adv.value = 1.0;
            EXPECT_EQ(eng.apply(adv).status, ReplyStatus::Ok);
            eng.commit();
        }
    }
    EXPECT_GT(applied, cases.size());
}

TEST(ServeEngineTest, AdvanceBoundsChecked)
{
    ServeEngine eng(smallEngine(1));
    EventRequest adv;
    adv.op = EventOp::Advance;
    adv.value = 0.0;
    EXPECT_EQ(eng.apply(adv).status, ReplyStatus::BadRequest);
    adv.value = 1e9;
    EXPECT_EQ(eng.apply(adv).status, ReplyStatus::BadRequest);
    adv.value = 0.5;
    Tick before = eng.pool()[0].server->now();
    EXPECT_EQ(eng.apply(adv).status, ReplyStatus::Ok);
    EXPECT_EQ(eng.pool()[0].server->now(), before + toTicks(0.5));
}

TEST(ServeEngineTest, CapChangeRejectsNonFiniteCaps)
{
    // A cap is a finite number of watts: NaN passes a plain `< 0`
    // test and +inf caps nothing.  Both are the client's error,
    // whether pinned to a node or broadcast.
    ServeEngine eng(smallEngine(2));
    EventRequest cap;
    cap.op = EventOp::CapChange;
    for (int node : {0, -1}) {
        cap.node = node;
        for (double bad : {std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -1.0}) {
            cap.value = bad;
            EXPECT_EQ(eng.apply(cap).status, ReplyStatus::BadRequest)
                << "node " << node << " cap " << bad;
        }
        cap.value = 90.0;
        EXPECT_EQ(eng.apply(cap).status, ReplyStatus::Ok);
    }
}

TEST(ServeEngineTest, HugeCapCommitsWithoutIsolatingTheNode)
{
    // A finite but absurd cap must not size the allocator's DP tables
    // by the budget: 4e12 buckets at 1e12 W throw std::bad_alloc, and
    // the pool isolates a node whose control plane throws.
    serve::EngineConfig cfg = smallEngine(1);
    cfg.manager.oracleUtilities = true;
    ServeEngine eng(cfg);
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.node = 0;
    for (std::uint32_t w : {0u, 1u}) {
        arrive.workload = w;
        ASSERT_EQ(eng.apply(arrive).status, ReplyStatus::Ok);
    }
    eng.commit();
    std::uint64_t passes = eng.allocatorPasses();

    EventRequest cap;
    cap.op = EventOp::CapChange;
    cap.node = 0;
    cap.value = 1e12;
    ASSERT_EQ(eng.apply(cap).status, ReplyStatus::Ok);
    eng.commit();

    serve::StatsSnapshot snap;
    eng.fillSnapshot(snap);
    auto counter = [&](const char *name) {
        auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0u : it->second;
    };
    EXPECT_EQ(counter("fault.node_exception"), 0u);
    EXPECT_EQ(counter("degraded.node_isolated"), 0u);
    EXPECT_GT(counter("allocator.allocate"), 0u);
    EXPECT_GT(eng.allocatorPasses(), passes);
}

TEST(ServeEngineTest, DigestDeterministicAcrossInstances)
{
    auto run = [](double cap_watts) {
        ServeEngine eng(smallEngine(2));
        EventRequest arrive;
        arrive.op = EventOp::Arrival;
        arrive.workload = 2;
        arrive.node = -1;
        eng.apply(arrive);
        eng.commit();
        EventRequest cap;
        cap.op = EventOp::CapChange;
        cap.node = -1;
        cap.value = cap_watts;
        eng.apply(cap);
        return eng.commit();
    };
    serve::DecisionDigest a = run(80.0);
    serve::DecisionDigest b = run(80.0);
    EXPECT_TRUE(a == b);
    EXPECT_NE(a.hash, 0u);

    // A different event stream must change the digest (the cap bits
    // are hashed directly).
    serve::DecisionDigest c = run(90.0);
    EXPECT_NE(a.hash, c.hash);
}

TEST(ServeEngineTest, SnapshotBuiltFromTraceAggregates)
{
    ServeEngine eng(smallEngine(2));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 1;
    arrive.node = -1;
    ASSERT_EQ(eng.apply(arrive).status, ReplyStatus::Ok);
    serve::DecisionDigest digest = eng.commit();

    serve::StatsSnapshot snap;
    eng.fillSnapshot(snap);
    // The cluster-wide fields: one app on one of four sockets, the
    // allocator passes and node 0's clock the digest also reports.
    EXPECT_EQ(snap.nodes, 2u);
    EXPECT_EQ(snap.activeApps, 1u);
    EXPECT_EQ(snap.activeApps, digest.activeApps);
    EXPECT_EQ(snap.freeSockets, 3u);
    EXPECT_GE(snap.allocatorPasses, 1u);
    EXPECT_EQ(snap.allocatorPasses, digest.passes);
    EXPECT_EQ(snap.allocatorPasses, eng.allocatorPasses());
    EXPECT_EQ(snap.simNow, core::ControlLoop::controlPeriod);
    EXPECT_EQ(snap.simNow, digest.simNow);
    // Registered counters the commit must have touched.
    EXPECT_GE(snap.counters.at("control.polls"), 1u);
    EXPECT_GE(snap.counters.at("manager.reallocations"), 1u);
    EXPECT_EQ(snap.counters.at("event.E2-arrival"), 1u);
    // Timers ride along as count/total_us/max_us triplets.
    EXPECT_GE(snap.counters.at("manager.reallocate.count"), 1u);
    EXPECT_TRUE(snap.counters.count("manager.reallocate.total_us"));
    EXPECT_GE(snap.counters.at("cluster.step.count"), 1u);

    // A service-level bus folds into the same emit (gauges win by
    // last write, so the sample survives as published).
    core::Telemetry service_bus;
    service_bus.gauge(trace::EventId::ServeShed, 7);
    serve::StatsSnapshot with_extra;
    eng.fillSnapshot(with_extra, &service_bus);
    EXPECT_EQ(with_extra.counters.at("serve.shed"), 7u);

    // The whole map is the pool's aggregateTelemetry() fold merged
    // with the service bus: counters and gauges by name, each timer
    // as its .count/.total_us/.max_us keys.
    core::Telemetry want_bus = eng.pool().aggregateTelemetry();
    want_bus.merge(service_bus);
    std::map<std::string, std::uint64_t> want = want_bus.counters();
    for (const auto &[name, t] : want_bus.timers()) {
        want[name + ".count"] = t.count;
        want[name + ".total_us"] = t.total * 100;
        want[name + ".max_us"] = t.max * 100;
    }
    EXPECT_EQ(with_extra.counters, want);
}

// --- Record/replay -------------------------------------------------

TEST(ServeReplay, CaptureReplaysBitExact)
{
    const std::string path = "serve_capture_test.bin";
    serve::EngineConfig cfg = smallEngine(2);
    cfg.seedBase = 21;

    serve::DecisionDigest recorded;
    {
        ServeEngine eng(cfg);
        ASSERT_TRUE(eng.startCapture(path));
        EventRequest arrive;
        arrive.op = EventOp::Arrival;
        arrive.node = -1;
        for (std::uint32_t w = 0; w < 3; ++w) {
            arrive.workload = w;
            eng.apply(arrive);
        }
        eng.commit();
        EventRequest cap;
        cap.op = EventOp::CapChange;
        cap.node = -1;
        cap.value = 60.0;
        eng.apply(cap);
        recorded = eng.commit();
        eng.stopCapture();
    }

    serve::Capture capture;
    std::string error;
    ASSERT_TRUE(serve::readCapture(path, capture, error)) << error;
    std::remove(path.c_str());
    EXPECT_EQ(capture.config.nodes, 2);
    EXPECT_EQ(capture.config.seedBase, 21u);
    EXPECT_EQ(capture.steps.size(), 6u); // 4 events + 2 commits
    EXPECT_EQ(capture.commitCount(), 2u);

    serve::ReplayResult res = serve::replayCapture(capture);
    EXPECT_TRUE(res.ok) << res.firstMismatch;
    EXPECT_EQ(res.events, 4u);
    EXPECT_EQ(res.commits, 2u);
    EXPECT_TRUE(res.finalDigest == recorded);
}

TEST(ServeReplay, DivergentCaptureIsReported)
{
    const std::string path = "serve_capture_diverge.bin";
    serve::EngineConfig cfg = smallEngine(1);
    {
        ServeEngine eng(cfg);
        ASSERT_TRUE(eng.startCapture(path));
        EventRequest arrive;
        arrive.op = EventOp::Arrival;
        arrive.workload = 0;
        arrive.node = 0;
        eng.apply(arrive);
        eng.commit();
        eng.stopCapture();
    }
    serve::Capture capture;
    std::string error;
    ASSERT_TRUE(serve::readCapture(path, capture, error)) << error;
    std::remove(path.c_str());

    // Tamper with the recorded digest: replay must flag commit 1.
    for (auto &step : capture.steps) {
        if (step.isCommit)
            step.commit.digest.hash ^= 1;
    }
    serve::ReplayResult res = serve::replayCapture(capture);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.firstMismatch.find("commit 1"), std::string::npos);
}

// --- Capture codec -------------------------------------------------

/** This case's own capture file: ctest runs every case as a process
 * of its own, in parallel under -j, so a shared name would race. */
std::string
caseCapturePath()
{
    return std::string("serve_replay_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".bin";
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::uint8_t *data,
           std::size_t n)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(data),
              static_cast<std::streamsize>(n));
}

/** psm-replay --self-test's scripted run on its config, captured to
 * @p path; @return the file's bytes. */
std::vector<std::uint8_t>
recordScriptedRun(const std::string &path)
{
    serve::EngineConfig cfg;
    cfg.nodes = 2;
    cfg.serverCap = 80.0;
    cfg.seedBase = 11;
    {
        ServeEngine eng(cfg);
        EXPECT_TRUE(eng.startCapture(path));
        serve::scriptedRun(eng);
        eng.stopCapture();
    }
    return readBytes(path);
}

TEST(ServeReplay, OnlyPrefixesEndingOnARecordAreRead)
{
    const std::string path = caseCapturePath();
    const std::vector<std::uint8_t> bytes = recordScriptedRun(path);
    ASSERT_EQ(bytes.size(), 822u);

    // Walk the records by their own [u8 type][u32 length] headers
    // after the 12-byte file header; the first is the Config, and
    // every later one is one tape step.
    ASSERT_EQ(bytes[12], 1);
    std::map<std::size_t, std::size_t> steps_at_end;
    std::size_t pos = 12;
    std::size_t records = 0;
    while (pos + 5 <= bytes.size()) {
        net::WireReader len(bytes.data() + pos + 1, 4);
        pos += 5 + len.u32();
        steps_at_end[pos] = records++;
    }
    ASSERT_EQ(pos, bytes.size());
    ASSERT_EQ(records, 14u); // Config + 8 events + 5 commits

    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        writeBytes(path, bytes.data(), n);
        serve::Capture capture;
        std::string error;
        const bool ok = serve::readCapture(path, capture, error);
        auto end = steps_at_end.find(n);
        if (end != steps_at_end.end()) {
            ASSERT_TRUE(ok) << "prefix " << n << ": " << error;
            EXPECT_EQ(capture.steps.size(), end->second) << n;
        } else {
            ASSERT_FALSE(ok) << "prefix " << n;
            EXPECT_FALSE(error.empty()) << "prefix " << n;
        }
    }
    std::remove(path.c_str());
}

TEST(ServeReplay, SingleByteChangesAreReadOrRefused)
{
    const std::string path = caseCapturePath();
    const std::vector<std::uint8_t> bytes = recordScriptedRun(path);
    ASSERT_EQ(bytes.size(), 822u);
    // The file header, then the Config payload after its 5-byte
    // record header: FNV-1a changes whenever one folded byte does,
    // so no change in either may read.
    auto guarded = [](std::size_t at) {
        return at < 12 || (at >= 17 && at < 17 + 48);
    };

    Rng rng(24);
    int guarded_hits = 0;
    for (int i = 0; i < 3000; ++i) {
        std::vector<std::uint8_t> mutant = bytes;
        const auto at = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bytes.size()) - 1));
        mutant[at] ^= static_cast<std::uint8_t>(rng.uniformInt(1, 255));
        writeBytes(path, mutant.data(), mutant.size());
        serve::Capture capture;
        std::string error;
        const bool ok = serve::readCapture(path, capture, error);
        if (ok) {
            EXPECT_LE(capture.steps.size(), 13u) << "byte " << at;
        } else {
            EXPECT_FALSE(error.empty()) << "byte " << at;
        }
        if (guarded(at)) {
            EXPECT_FALSE(ok) << "byte " << at;
            ++guarded_hits;
        }
    }
    EXPECT_GT(guarded_hits, 0);
    std::remove(path.c_str());
}

TEST(ServeReplay, CleanEndAndCutRecordAreToldApart)
{
    const std::string path = caseCapturePath();
    EventRequest advance;
    advance.op = EventOp::Advance;
    advance.value = 1.5;
    serve::DecisionDigest digest;
    digest.hash = 0x0123456789abcdefULL;
    digest.passes = 3;
    digest.simNow = 15000;
    digest.activeApps = 2;
    digest.objective = 1.25;
    {
        serve::CaptureWriter w;
        ASSERT_TRUE(w.open(path, smallEngine(1)));
        w.event(advance, {ReplyStatus::Rejected, 0, 4});
        w.commit(digest, 9);
        w.close();
    }
    // Clean EOF after a whole record: every field reads back.
    serve::Capture capture;
    std::string error;
    ASSERT_TRUE(serve::readCapture(path, capture, error)) << error;
    ASSERT_EQ(capture.steps.size(), 2u);
    const serve::CapturedEvent &ev = capture.steps[0].event;
    EXPECT_FALSE(capture.steps[0].isCommit);
    EXPECT_EQ(ev.request.op, EventOp::Advance);
    EXPECT_EQ(ev.request.value, 1.5);
    EXPECT_EQ(ev.outcome.status, ReplyStatus::Rejected);
    EXPECT_EQ(ev.outcome.node, 0);
    EXPECT_EQ(ev.outcome.appId, 4);
    EXPECT_TRUE(capture.steps[1].isCommit);
    EXPECT_TRUE(capture.steps[1].commit.digest == digest);
    EXPECT_EQ(capture.steps[1].commit.surfaceEpochSum, 9u);

    // A record cut just after its type byte is an error, not an EOF.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.put(static_cast<char>(3));
    }
    EXPECT_FALSE(serve::readCapture(path, capture, error));
    EXPECT_EQ(error, "truncated or corrupt record header");
    std::remove(path.c_str());
}

TEST(ServeReplay, ArrivalSloAboveTheWireBoundIsRefused)
{
    // An SLO override outside [0, maxSloP99] is a BadRequest in
    // process as on the wire, and so is an op outside EventOp.  The
    // engine leaves such an event out of its capture, since the EVENT
    // decoder would refuse it: the file still reads, holds no Event
    // record for it, and replays bit-exact.
    const std::string path = caseCapturePath();
    for (double slo : {serve::maxSloP99, 2 * serve::maxSloP99, -1.0,
                       std::nan("")}) {
        const bool valid = slo == serve::maxSloP99;
        {
            ServeEngine eng(smallEngine(1));
            ASSERT_TRUE(eng.startCapture(path));
            EventRequest arrive;
            arrive.op = EventOp::Arrival;
            arrive.node = 0;
            arrive.appClass = serve::AppClass::Interactive;
            arrive.sloP99 = slo;
            EXPECT_EQ(eng.apply(arrive).status,
                      valid ? ReplyStatus::Ok : ReplyStatus::BadRequest)
                << "sloP99 " << slo;
            EventRequest bad_op;
            bad_op.op = static_cast<EventOp>(0x7f);
            EXPECT_EQ(eng.apply(bad_op).status, ReplyStatus::BadRequest);
            EXPECT_FALSE(serve::validEventRequest(bad_op));
            eng.commit();
            eng.stopCapture();
        }
        serve::Capture capture;
        std::string error;
        ASSERT_TRUE(serve::readCapture(path, capture, error))
            << "sloP99 " << slo << ": " << error;
        std::size_t events = 0, commits = 0;
        for (const auto &step : capture.steps) {
            if (step.isCommit) {
                ++commits;
                continue;
            }
            ++events;
            EXPECT_EQ(step.event.request.op, EventOp::Arrival);
            EXPECT_EQ(step.event.outcome.status, ReplyStatus::Ok);
        }
        EXPECT_EQ(events, valid ? 1u : 0u) << "sloP99 " << slo;
        EXPECT_EQ(commits, 1u);
        serve::ReplayResult res = serve::replayCapture(capture);
        EXPECT_TRUE(res.ok) << res.firstMismatch;
        EXPECT_EQ(res.commits, 1u);
    }
    std::remove(path.c_str());
}

TEST(ServeReplay, CaptureRefusesSettingsItsConfigCannotRecord)
{
    // The Config record holds no fault plan, allocator or coordinator
    // setting, and a replay rebuilds each at its default, so a run
    // that sets one would not replay: the engine refuses to capture
    // it and opens no file.
    const std::string path = caseCapturePath();
    std::remove(path.c_str());
    using Engine = serve::EngineConfig;
    struct Case
    {
        const char *setting; ///< what unrecordedSetting() names
        void (*set)(Engine &);
    };
    const Case cases[] = {
        {"manager.faults",
         [](Engine &c) { c.manager.faults.setAmbientRate(0.05); }},
        {"manager.allocator",
         [](Engine &c) { c.manager.allocator.granularity = 1.0; }},
        {"manager.coordinator",
         [](Engine &c) {
             c.manager.coordinator.dutyPeriod = toTicks(0.5);
         }},
    };
    for (const Case &k : cases) {
        Engine cfg = smallEngine(2);
        k.set(cfg);
        const char *setting = serve::unrecordedSetting(cfg);
        ASSERT_NE(setting, nullptr) << k.setting;
        EXPECT_STREQ(setting, k.setting);
        ServeEngine eng(cfg);
        EXPECT_FALSE(eng.startCapture(path)) << k.setting;
        EXPECT_FALSE(std::ifstream(path).is_open()) << k.setting;
    }

    // The defaults are what a replay rebuilds, so they capture.
    EXPECT_EQ(serve::unrecordedSetting(smallEngine(2)), nullptr);
    ServeEngine eng(smallEngine(2));
    EXPECT_TRUE(eng.startCapture(path));
    eng.stopCapture();
    std::remove(path.c_str());
}

// --- Thread-pool gauges --------------------------------------------

TEST(ServeGauges, PoolBacklogReturnsToZero)
{
    util::ThreadPool pool(4);
    std::atomic<int> ran{0};
    pool.parallelFor(64, [&](std::size_t) {
        ++ran;
    });
    EXPECT_EQ(ran.load(), 64);
    // All shared-queue work has drained by the time parallelFor
    // returns.
    EXPECT_EQ(pool.queueDepth(), 0u);
    EXPECT_EQ(pool.inflight(), 0u);
}

// --- Logging knob --------------------------------------------------

TEST(ServeLogging, ParseLogLevelSpellings)
{
    LogLevel level = LogLevel::Quiet;
    EXPECT_TRUE(parseLogLevel("2", level));
    EXPECT_EQ(level, LogLevel::Verbose);
    EXPECT_TRUE(parseLogLevel("debug", level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevel("QUIET", level));
    EXPECT_EQ(level, LogLevel::Quiet);
    EXPECT_FALSE(parseLogLevel("5", level));
    EXPECT_FALSE(parseLogLevel("loud", level));
    EXPECT_FALSE(parseLogLevel("", level));
    EXPECT_EQ(level, LogLevel::Quiet); // untouched on failure
}

// --- End-to-end daemon ---------------------------------------------

ServiceConfig
smallService()
{
    ServiceConfig cfg;
    cfg.engine = smallEngine(2);
    cfg.maxQueue = 32;
    cfg.maxBatch = 16;
    return cfg;
}

/** Give the reactor up to ~2 s to queue @p depth requests. */
void
awaitQueueDepth(const ServeService &service, std::size_t depth)
{
    for (int spin = 0; service.queueDepth() < depth && spin < 2000;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(ServeDaemon, HelloHandshake)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    ASSERT_GE(fd, 0);
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));
    EXPECT_EQ(hello.version, net::kProtocolVersion);
    EXPECT_EQ(hello.server, "psm-served");
    service.stop();
}

/**
 * A daemon beside a bare ServeEngine with the same config, the
 * in-process reference.  submit() sends each event over one
 * closed-loop connection, which makes every daemon epoch a batch of
 * one, so the apply/commit sequences are identical step by step and
 * every reply must carry the reference's outcome and digest.
 */
struct DaemonBesideEngine
{
    ServiceConfig cfg = smallService();
    ServeService service{cfg};
    ServeEngine ref{cfg.engine};
    serve::Client cli;

    DaemonBesideEngine()
    {
        cli.adopt(service.openLocalConnection());
        service.start();
        serve::HelloReply hello;
        EXPECT_TRUE(cli.hello("test", hello));
    }

    void
    submit(const EventRequest &ev, std::size_t i, EventReply &reply)
    {
        serve::ApplyOutcome expect = ref.apply(ev);
        serve::DecisionDigest expect_digest =
            expect.status == ReplyStatus::Ok ? ref.commit()
                                             : ref.digest();
        ASSERT_TRUE(cli.submit(ev, reply)) << "event " << i;
        EXPECT_EQ(reply.status, expect.status) << "event " << i;
        EXPECT_EQ(reply.node, expect.node) << "event " << i;
        EXPECT_EQ(reply.appId, expect.appId) << "event " << i;
        EXPECT_TRUE(reply.digest == expect_digest)
            << "digest diverged at event " << i;
        if (reply.status == ReplyStatus::Ok) {
            EXPECT_EQ(reply.batched, 1u);
        }
    }
};

/**
 * A seeded E1-E4 trace in the churn mix: advance 15%, cap 10%,
 * arrival 45%, phase change 5%, kill 25%.  Phase changes and kills
 * pick an app the replies reported placed and not yet killed, so one
 * seed and one reply stream give one trace.
 */
class ChurnTrace
{
  public:
    explicit ChurnTrace(std::uint64_t seed) : rng(seed) {}

    EventRequest
    next()
    {
        EventRequest ev;
        double roll = rng.uniform();
        if ((roll -= 0.15) < 0 || live.empty()) {
            if (roll < 0 || rng.uniform() < 0.5) {
                ev.op = EventOp::Advance;
                ev.value = rng.uniform(0.02, 0.08);
            } else {
                ev.op = EventOp::Arrival;
                ev.workload =
                    static_cast<std::uint32_t>(rng.uniformInt(0, 11));
            }
            return ev;
        }
        if ((roll -= 0.10) < 0) {
            ev.op = EventOp::CapChange;
            ev.value = rng.uniform(60.0, 140.0);
            return ev;
        }
        if ((roll -= 0.45) < 0) {
            ev.op = EventOp::Arrival;
            ev.workload =
                static_cast<std::uint32_t>(rng.uniformInt(0, 11));
            return ev;
        }
        std::tie(ev.node, ev.appId) = live[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(live.size()) - 1))];
        if ((roll -= 0.05) < 0) {
            ev.op = EventOp::PhaseChange;
            ev.cpuScale = rng.uniform(0.5, 2.0);
            ev.memScale = rng.uniform(0.5, 2.0);
        } else {
            ev.op = EventOp::Kill;
        }
        return ev;
    }

    /** Track placements and kills from an event's reply. */
    void
    observe(const EventRequest &ev, const EventReply &reply)
    {
        if (reply.status != ReplyStatus::Ok)
            return;
        std::pair app{reply.node, reply.appId};
        if (ev.op == EventOp::Arrival)
            live.push_back(app);
        else if (ev.op == EventOp::Kill)
            std::erase(live, app);
    }

  private:
    Rng rng;
    std::vector<std::pair<std::int32_t, std::int32_t>> live;
};

TEST(ServeDaemon, DecisionsBitExactAgainstInProcessReplay)
{
    // Input 1: a scripted arrival pair, advances and a cap change.
    DaemonBesideEngine scripted;
    std::vector<EventRequest> trace;
    {
        EventRequest ev;
        ev.op = EventOp::Arrival;
        ev.workload = 0;
        ev.node = -1;
        trace.push_back(ev);
        ev.workload = 4;
        trace.push_back(ev);
        ev = {};
        ev.op = EventOp::Advance;
        ev.value = 0.3;
        trace.push_back(ev);
        ev = {};
        ev.op = EventOp::CapChange;
        ev.node = -1;
        ev.value = 70.0;
        trace.push_back(ev);
        ev = {};
        ev.op = EventOp::Advance;
        ev.value = 0.2;
        trace.push_back(ev);
    }

    for (std::size_t i = 0; i < trace.size(); ++i) {
        EventReply reply;
        ASSERT_NO_FATAL_FAILURE(scripted.submit(trace[i], i, reply));
    }

    // Input 2: 150 events of a seeded churn trace, generated from the
    // daemon's replies.  It must use every op and apply at least a
    // quarter of its events, or it says little.
    DaemonBesideEngine churn;
    ChurnTrace gen(0x5eed0001ULL);
    const std::size_t events = 150;
    std::set<EventOp> ops;
    std::size_t applied = 0;
    for (std::size_t i = 0; i < events; ++i) {
        EventRequest ev = gen.next();
        EventReply reply;
        ASSERT_NO_FATAL_FAILURE(churn.submit(ev, i, reply));
        ops.insert(ev.op);
        applied += reply.status == ReplyStatus::Ok;
        gen.observe(ev, reply);
    }
    EXPECT_EQ(ops.size(), 5u);
    EXPECT_GE(applied, events / 4);
}

TEST(ServeDaemon, HeldBurstCoalescesAndShedsDeterministically)
{
    ServiceConfig cfg = smallService();
    cfg.maxQueue = 4; // force shedding past four queued events
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));

    service.holdBatching(true);
    const std::size_t burst = 7;
    for (std::size_t i = 0; i < burst; ++i) {
        EventRequest ev;
        ev.op = EventOp::CapChange;
        ev.node = -1;
        ev.value = 60.0 + static_cast<double>(i);
        ASSERT_TRUE(cli.send(ev));
    }
    // The reactor admits exactly maxQueue and sheds the rest, in
    // arrival order (single connection, single reactor thread).
    std::size_t shed = 0, ok = 0;
    std::uint64_t max_batched = 0;
    // Shed replies arrive while the hold is still on.
    for (std::size_t i = 0; i < burst - cfg.maxQueue; ++i) {
        EventReply reply;
        ASSERT_TRUE(cli.readEventReply(reply, 10000));
        EXPECT_EQ(reply.status, ReplyStatus::Shed);
        ++shed;
    }
    service.holdBatching(false);
    for (std::size_t i = 0; i < cfg.maxQueue; ++i) {
        EventReply reply;
        ASSERT_TRUE(cli.readEventReply(reply, 10000));
        EXPECT_EQ(reply.status, ReplyStatus::Ok);
        max_batched = std::max(
            max_batched, static_cast<std::uint64_t>(reply.batched));
        ++ok;
    }
    EXPECT_EQ(shed, burst - cfg.maxQueue);
    EXPECT_EQ(ok, cfg.maxQueue);
    // The whole admitted burst resolved in one allocator epoch.
    EXPECT_EQ(max_batched, cfg.maxQueue);

    auto snap = service.snapshot();
    EXPECT_EQ(snap->shed, shed);
    EXPECT_GE(snap->maxBatch, 2u);
    service.stop();
}

TEST(ServeDaemon, ConcurrentConnectionsEachGetTheirOwnReplies)
{
    // Four connections with requests in flight at once.  Batching is
    // held while they take turns, one event each per round, so the
    // queue interleaves them and every batch mixes connections; the
    // last round finds the 32-deep queue full and is shed.  Each
    // request must get exactly one reply, on its own connection, and
    // the Ok and Shed replies must add up to the requests sent.
    ServiceConfig cfg = smallService();
    ServeService service(cfg);
    const std::size_t connections = 4;
    std::vector<serve::Client> clients(connections);
    for (serve::Client &cli : clients)
        cli.adopt(service.openLocalConnection());
    service.start();

    service.holdBatching(true);
    const std::size_t rounds = cfg.maxQueue / connections + 1;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t c = 0; c < connections; ++c) {
            EventRequest ev;
            if ((r + c) % 2 == 0) {
                ev.op = EventOp::Advance;
                ev.value = 0.02;
            } else {
                ev.op = EventOp::CapChange;
                ev.value = 60.0 + static_cast<double>(r * connections + c);
            }
            ASSERT_TRUE(clients[c].send(ev));
        }
        // Queue the next round behind this one.
        if (r + 1 < rounds)
            awaitQueueDepth(service, (r + 1) * connections);
    }
    // A Client's request ids count up from 1.
    std::vector<std::vector<int>> replies_by_id(
        connections, std::vector<int>(rounds + 1, 0));
    std::size_t ok = 0, shed = 0;
    auto read_reply = [&](std::size_t c) {
        EventReply reply;
        std::uint32_t id = 0;
        ASSERT_TRUE(clients[c].readEventReply(reply, 10000, &id))
            << "connection " << c;
        ASSERT_GE(id, 1u) << "connection " << c;
        ASSERT_LE(id, rounds) << "connection " << c;
        ++replies_by_id[c][id];
        ok += reply.status == ReplyStatus::Ok;
        shed += reply.status == ReplyStatus::Shed;
    };
    // The shed round is answered while the hold is on, the queued
    // rounds once it is released.
    for (std::size_t c = 0; c < connections; ++c)
        ASSERT_NO_FATAL_FAILURE(read_reply(c));
    EXPECT_EQ(shed, connections);
    service.holdBatching(false);
    for (std::size_t c = 0; c < connections; ++c)
        for (std::size_t i = 1; i < rounds; ++i)
            ASSERT_NO_FATAL_FAILURE(read_reply(c));
    for (std::size_t c = 0; c < connections; ++c)
        for (std::size_t id = 1; id <= rounds; ++id)
            EXPECT_EQ(replies_by_id[c][id], 1)
                << "connection " << c << " request " << id;
    EXPECT_EQ(ok + shed, rounds * connections);
    EXPECT_EQ(service.snapshot()->eventsApplied, ok);
    service.stop();
}

TEST(ServeDaemon, StatsAndQueryServedFromSnapshot)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));

    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 1;
    arrive.node = -1;
    EventReply reply;
    ASSERT_TRUE(cli.submit(arrive, reply));
    ASSERT_EQ(reply.status, ReplyStatus::Ok);

    serve::StatsSnapshot stats;
    ASSERT_TRUE(cli.stats(stats));
    EXPECT_EQ(stats.nodes, 2u);
    EXPECT_EQ(stats.activeApps, 1u);
    EXPECT_EQ(stats.eventsApplied, 1u);
    EXPECT_EQ(stats.digestHash, reply.digest.hash);
    EXPECT_EQ(stats.counters.at("event.E2-arrival"), 1u);

    serve::QueryReply q;
    ASSERT_TRUE(cli.query("serve.batches", q));
    EXPECT_TRUE(q.found);
    EXPECT_EQ(q.value, 1u);
    // The snapshot is built from the trace core: registered timers
    // are reachable by name too, as count/total_us/max_us triplets.
    ASSERT_TRUE(cli.query("manager.reallocate.count", q));
    EXPECT_TRUE(q.found);
    EXPECT_GE(q.value, 1u);
    ASSERT_TRUE(cli.query("pool.queue_depth", q));
    EXPECT_TRUE(q.found);
    ASSERT_TRUE(cli.query("no.such.counter", q));
    EXPECT_FALSE(q.found);
    service.stop();
}

TEST(ServeDaemon, GarbageStreamDropsConnection)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    service.start();

    std::vector<std::uint8_t> junk(64, 0x55);
    ASSERT_EQ(::write(fd, junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    // The reactor drops the desynchronized connection; the client
    // side observes EOF.
    std::uint8_t buf[16];
    ssize_t n = ::read(fd, buf, sizeof(buf));
    EXPECT_EQ(n, 0);
    ::close(fd);
    service.stop();
    EXPECT_EQ(service.connectionCount(), 0u);
}

TEST(ServeDaemon, ExpiredDeadlineNotApplied)
{
    ServiceConfig cfg = smallService();
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));

    service.holdBatching(true);
    EventRequest ev;
    ev.op = EventOp::CapChange;
    ev.node = -1;
    ev.value = 90.0;
    ev.deadlineUs = 1; // lapses while the queue is held
    ASSERT_TRUE(cli.send(ev));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.holdBatching(false);

    EventReply reply;
    ASSERT_TRUE(cli.readEventReply(reply, 10000));
    EXPECT_EQ(reply.status, ReplyStatus::Expired);
    EXPECT_EQ(service.snapshot()->eventsApplied, 0u);
    service.stop();
}

TEST(ServeDaemon, ShutdownFrameAcksThenFlagsService)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    EXPECT_FALSE(service.shutdownRequested());
    ASSERT_TRUE(cli.shutdownServer());
    EXPECT_TRUE(service.shutdownRequested());
    service.stop();
}

TEST(ServeDaemon, StopShedsQueuedRequests)
{
    ServiceConfig cfg = smallService();
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    service.holdBatching(true);
    EventRequest ev;
    ev.op = EventOp::CapChange;
    ev.node = -1;
    ev.value = 75.0;
    ASSERT_TRUE(cli.send(ev));
    // Let the reactor enqueue, then tear the service down with the
    // request still held in the queue.
    awaitQueueDepth(service, 1);
    service.stop();

    EventReply reply;
    ASSERT_TRUE(cli.readEventReply(reply, 10000));
    EXPECT_EQ(reply.status, ReplyStatus::Shed);
}

} // namespace
} // namespace psm
