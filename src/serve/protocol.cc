#include "protocol.hh"

#include <cmath>

namespace psm::serve
{

using net::WireReader;
using net::WireWriter;

bool
validCap(double watts)
{
    return std::isfinite(watts) && watts >= 0.0;
}

bool
validSloP99(double seconds)
{
    // Written so that NaN fails it.
    return seconds >= 0.0 && seconds <= maxSloP99;
}

std::string
eventOpName(EventOp op)
{
    switch (op) {
      case EventOp::Advance:
        return "advance";
      case EventOp::CapChange:
        return "E1-cap-change";
      case EventOp::Arrival:
        return "E2-arrival";
      case EventOp::PhaseChange:
        return "E4-phase-change";
      case EventOp::Kill:
        return "E3-kill";
    }
    return "unknown";
}

std::string
appClassName(AppClass cls)
{
    switch (cls) {
      case AppClass::Batch:
        return "batch";
      case AppClass::Interactive:
        return "interactive";
    }
    return "unknown";
}

std::string
replyStatusName(ReplyStatus status)
{
    switch (status) {
      case ReplyStatus::Ok:
        return "ok";
      case ReplyStatus::Shed:
        return "shed";
      case ReplyStatus::Expired:
        return "expired";
      case ReplyStatus::Rejected:
        return "rejected";
      case ReplyStatus::BadRequest:
        return "bad-request";
    }
    return "unknown";
}

bool
validEventRequest(const EventRequest &ev)
{
    return ev.op >= EventOp::Advance && ev.op <= EventOp::Kill &&
           ev.appClass <= AppClass::Interactive &&
           validSloP99(ev.sloP99);
}

void
putEventRequest(WireWriter &w, const EventRequest &ev)
{
    w.putU8(static_cast<std::uint8_t>(ev.op));
    w.putI32(ev.node);
    w.putI32(ev.appId);
    w.putU32(ev.workload);
    w.putF64(ev.value);
    w.putF64(ev.cpuScale);
    w.putF64(ev.memScale);
    w.putU32(ev.deadlineUs);
    w.putU8(static_cast<std::uint8_t>(ev.appClass));
    w.putF64(ev.sloP99);
}

bool
getEventRequest(WireReader &r, EventRequest &out)
{
    out.op = static_cast<EventOp>(r.u8());
    out.node = r.i32();
    out.appId = r.i32();
    out.workload = r.u32();
    out.value = r.f64();
    out.cpuScale = r.f64();
    out.memScale = r.f64();
    out.deadlineUs = r.u32();
    out.appClass = static_cast<AppClass>(r.u8());
    out.sloP99 = r.f64();
    return validEventRequest(out);
}

void
putDigest(WireWriter &w, const DecisionDigest &d)
{
    w.putU64(d.hash);
    w.putU64(d.passes);
    w.putU64(d.simNow);
    w.putU32(d.activeApps);
    w.putF64(d.objective);
}

DecisionDigest
getDigest(WireReader &r)
{
    DecisionDigest d;
    d.hash = r.u64();
    d.passes = r.u64();
    d.simNow = r.u64();
    d.activeApps = r.u32();
    d.objective = r.f64();
    return d;
}

bool
getReplyStatus(WireReader &r, ReplyStatus &out)
{
    std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(ReplyStatus::BadRequest))
        return false;
    out = static_cast<ReplyStatus>(raw);
    return true;
}

std::vector<std::uint8_t>
encodeEventRequest(const EventRequest &ev)
{
    WireWriter w;
    putEventRequest(w, ev);
    return w.take();
}

bool
decodeEventRequest(const std::vector<std::uint8_t> &payload,
                   EventRequest &out)
{
    WireReader r(payload);
    return getEventRequest(r, out) && r.good() && r.atEnd();
}

std::vector<std::uint8_t>
encodeEventReply(const EventReply &reply)
{
    WireWriter w;
    w.putU8(static_cast<std::uint8_t>(reply.status));
    w.putI32(reply.node);
    w.putI32(reply.appId);
    w.putU32(reply.batched);
    putDigest(w, reply.digest);
    return w.take();
}

bool
decodeEventReply(const std::vector<std::uint8_t> &payload,
                 EventReply &out)
{
    WireReader r(payload);
    if (!getReplyStatus(r, out.status))
        return false;
    out.node = r.i32();
    out.appId = r.i32();
    out.batched = r.u32();
    out.digest = getDigest(r);
    return r.good() && r.atEnd();
}

std::vector<std::uint8_t>
encodeHelloRequest(const HelloRequest &req)
{
    WireWriter w;
    w.putU8(req.version);
    w.putString(req.client);
    return w.take();
}

bool
decodeHelloRequest(const std::vector<std::uint8_t> &payload,
                   HelloRequest &out)
{
    WireReader r(payload);
    out.version = r.u8();
    out.client = r.str();
    return r.good() && r.atEnd();
}

std::vector<std::uint8_t>
encodeHelloReply(const HelloReply &reply)
{
    WireWriter w;
    w.putU8(reply.version);
    w.putU8(reply.accepted ? 1 : 0);
    w.putString(reply.server);
    return w.take();
}

bool
decodeHelloReply(const std::vector<std::uint8_t> &payload,
                 HelloReply &out)
{
    WireReader r(payload);
    out.version = r.u8();
    out.accepted = r.u8() != 0;
    out.server = r.str();
    return r.good() && r.atEnd();
}

std::vector<std::uint8_t>
encodeStatsSnapshot(const StatsSnapshot &s)
{
    WireWriter w;
    w.putU64(s.simNow);
    w.putU32(s.nodes);
    w.putU32(s.activeApps);
    w.putU32(s.freeSockets);
    w.putU64(s.allocatorPasses);
    w.putU64(s.eventsApplied);
    w.putU64(s.batches);
    w.putU64(s.maxBatch);
    w.putU64(s.shed);
    w.putU64(s.expired);
    w.putU64(s.rejected);
    w.putU32(s.queueDepth);
    w.putU32(s.poolQueueDepth);
    w.putU32(s.poolInflight);
    w.putU64(s.digestHash);
    w.putU32(static_cast<std::uint32_t>(s.counters.size()));
    for (const auto &[name, value] : s.counters) {
        w.putString(name);
        w.putU64(value);
    }
    return w.take();
}

bool
decodeStatsSnapshot(const std::vector<std::uint8_t> &payload,
                    StatsSnapshot &out)
{
    WireReader r(payload);
    out.simNow = r.u64();
    out.nodes = r.u32();
    out.activeApps = r.u32();
    out.freeSockets = r.u32();
    out.allocatorPasses = r.u64();
    out.eventsApplied = r.u64();
    out.batches = r.u64();
    out.maxBatch = r.u64();
    out.shed = r.u64();
    out.expired = r.u64();
    out.rejected = r.u64();
    out.queueDepth = r.u32();
    out.poolQueueDepth = r.u32();
    out.poolInflight = r.u32();
    out.digestHash = r.u64();
    std::uint32_t entries = r.u32();
    out.counters.clear();
    for (std::uint32_t i = 0; i < entries && r.good(); ++i) {
        std::string name = r.str();
        std::uint64_t value = r.u64();
        out.counters.emplace(std::move(name), value);
    }
    return r.good() && r.atEnd();
}

std::vector<std::uint8_t>
encodeQueryRequest(const QueryRequest &req)
{
    WireWriter w;
    w.putString(req.name);
    return w.take();
}

bool
decodeQueryRequest(const std::vector<std::uint8_t> &payload,
                   QueryRequest &out)
{
    WireReader r(payload);
    out.name = r.str();
    return r.good() && r.atEnd();
}

std::vector<std::uint8_t>
encodeQueryReply(const QueryReply &reply)
{
    WireWriter w;
    w.putU8(reply.found ? 1 : 0);
    w.putU64(reply.value);
    return w.take();
}

bool
decodeQueryReply(const std::vector<std::uint8_t> &payload,
                 QueryReply &out)
{
    WireReader r(payload);
    out.found = r.u8() != 0;
    out.value = r.u64();
    return r.good() && r.atEnd();
}

std::vector<std::uint8_t>
encodeErrorMessage(const std::string &msg)
{
    WireWriter w;
    w.putString(msg);
    return w.take();
}

bool
decodeErrorMessage(const std::vector<std::uint8_t> &payload,
                   std::string &out)
{
    WireReader r(payload);
    out = r.str();
    return r.good() && r.atEnd();
}

} // namespace psm::serve
