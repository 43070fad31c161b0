/**
 * @file
 * Payload schemas of the serving protocol: what travels inside the
 * EVENT/QUERY/STATS/HELLO frames of src/net/frame.hh.
 *
 * The event vocabulary mirrors Section III-C seen from outside the
 * simulation loop: clients submit E1 cap changes, E2 arrivals, E4
 * phase changes and external E3 kills, plus an explicit clock advance
 * (the daemon hosts a simulated cluster, so time is a resource the
 * protocol controls rather than wall clock).  Replies carry a
 * DecisionDigest — a order-sensitive FNV-1a fold of every node's
 * control-plane state — which is what the bench compares bit-exactly
 * against an in-process replay.
 */

#ifndef PSM_SERVE_PROTOCOL_HH
#define PSM_SERVE_PROTOCOL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/frame.hh"
#include "util/units.hh"

namespace psm::serve
{

/** Operations an EVENT frame can carry. */
enum class EventOp : std::uint8_t
{
    Advance = 1, ///< run the simulated cluster for `value` seconds
    CapChange,   ///< E1: set node's cap to `value` watts
    Arrival,     ///< E2: admit workloadLibrary()[workload]
    PhaseChange, ///< E4 cause: rescale an app's compute/memory phase
    Kill,        ///< external E3: terminate an app
};

/** Printable op name. */
std::string eventOpName(EventOp op);

/**
 * Workload class of an E2 arrival: which library the `workload` index
 * selects.  Added in protocol version 2 together with the per-request
 * SLO override.
 */
enum class AppClass : std::uint8_t
{
    Batch = 0,       ///< perf::workloadLibrary() index
    Interactive = 1, ///< perf::interactiveLibrary() index
};

/** Printable class name. */
std::string appClassName(AppClass cls);

/**
 * Largest p99 SLO override an Arrival may carry, in seconds.  An hour
 * is far past any latency-critical tail target, and it keeps the
 * request queue's histogram span (32 x SLO) and the microsecond p99
 * gauge finite; validSloP99() refuses anything larger.
 */
constexpr double maxSloP99 = 3600.0;

/**
 * Largest node count an engine accepts: a sanity bound, twice the
 * 2048-server tree of README's cluster example.  A capture Config and
 * psm-served's --nodes both refuse more, so a corrupt or hostile
 * count cannot size the node vector before one server is built.
 */
constexpr int maxNodes = 4096;

/**
 * Largest factor a PhaseChange may scale an app's compute or memory
 * work by, either way: both scales must lie in
 * [1/maxPhaseScale, maxPhaseScale], and the engine answers BadRequest
 * otherwise, NaN and infinities included.  The bound keeps the perf
 * model's time per heartbeat a positive normal number: an infinite
 * scale makes it infinite (and the served bandwidth inf x 0 = NaN),
 * and a subnormal one underflows it to zero.  A thousandfold phase
 * shift is far past any workload phase.
 */
constexpr double maxPhaseScale = 1e3;

/**
 * Whether @p watts is a power cap the engine accepts: finite and
 * non-negative.  A CapChange event, a capture Config's serverCap and
 * psm-served's --cap all apply this rule; NaN passes a plain `< 0`.
 */
bool validCap(double watts);

/**
 * Whether @p seconds is an SLO override an Arrival may carry: in
 * [0, maxSloP99], NaN excluded.  The engine answers BadRequest
 * otherwise, and the EVENT decoder (wire and capture) refuses it.
 */
bool validSloP99(double seconds);

/** Status of an EVENT's reply. */
enum class ReplyStatus : std::uint8_t
{
    Ok = 0,     ///< applied; digest reflects it
    Shed,       ///< admission control refused (queue saturated)
    Expired,    ///< deadline passed while queued; not applied
    Rejected,   ///< semantically impossible (no socket, dup name, ...)
    BadRequest, ///< malformed (unknown node/op/workload)
};

/** Printable status name. */
std::string replyStatusName(ReplyStatus status);

/** One client-submitted event. */
struct EventRequest
{
    EventOp op = EventOp::Advance;
    /** Target node; -1 lets the daemon route (Arrival only). */
    std::int32_t node = -1;
    std::int32_t appId = -1;  ///< PhaseChange/Kill target
    std::uint32_t workload = 0; ///< Arrival: workloadLibrary() index
    double value = 0.0;       ///< seconds (Advance) or watts (E1)
    /** PhaseChange compute and memory multipliers, each within
     * [1/maxPhaseScale, maxPhaseScale]. */
    double cpuScale = 1.0;
    double memScale = 1.0;
    /** Wall-clock budget in microseconds; 0 = no deadline.  A request
     * still queued when it lapses is answered Expired, not applied. */
    std::uint32_t deadlineUs = 0;
    /** Arrival: which workload library `workload` indexes (v2). */
    AppClass appClass = AppClass::Batch;
    /** Arrival: p99 SLO override in seconds for interactive arrivals;
     * 0 keeps the profile's calibrated SLO (v2).  See validSloP99(). */
    double sloP99 = 0.0;
};

/**
 * Whether getEventRequest() reads back what putEventRequest() writes
 * for @p ev: its op and class name an enumerator and its sloP99 passes
 * validSloP99().  The EVENT decoder (wire and capture) refuses every
 * other event, and the engine captures only events that pass.
 */
bool validEventRequest(const EventRequest &ev);

/**
 * 64-bit FNV-1a, fed a byte at a time: the fold behind
 * DecisionDigest::hash and the capture Config fingerprint.  Integers
 * go in as their eight little-endian bytes and doubles as their
 * IEEE-754 bit pattern, so a hash never depends on the host.
 */
class Fnv1a
{
  public:
    void
    byte(std::uint8_t b)
    {
        h = (h ^ b) * 1099511628211ULL;
    }

    void
    bytes(const std::uint8_t *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            byte(data[i]);
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (i * 8)));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /** The length as a u64, then the characters. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 14695981039346656037ULL;
};

/** Bit-exact summary of the cluster's decision state. */
struct DecisionDigest
{
    std::uint64_t hash = 0;     ///< FNV-1a over all per-node state
    std::uint64_t passes = 0;   ///< allocator passes, cluster total
    Tick simNow = 0;            ///< node-0 simulated clock
    std::uint32_t activeApps = 0; ///< cluster-wide live apps
    double objective = 0.0;     ///< sum of last-allocation objectives

    bool
    operator==(const DecisionDigest &o) const
    {
        return hash == o.hash && passes == o.passes &&
               simNow == o.simNow && activeApps == o.activeApps &&
               objective == o.objective;
    }
};

/** Reply to one EVENT. */
struct EventReply
{
    ReplyStatus status = ReplyStatus::Ok;
    std::int32_t node = -1;  ///< node that handled the op
    std::int32_t appId = -1; ///< assigned id (Arrival) or echo
    /** Events coalesced into the allocator epoch that answered this
     * request (>= 1 when status == Ok). */
    std::uint32_t batched = 0;
    DecisionDigest digest;
};

/** HELLO handshake. */
struct HelloRequest
{
    std::uint8_t version = net::kProtocolVersion;
    std::string client;
};

struct HelloReply
{
    std::uint8_t version = net::kProtocolVersion;
    bool accepted = false;
    std::string server;
};

/**
 * The read-only service snapshot: rebuilt by the control thread after
 * every batch, served to STATS/QUERY frames by the reactor thread
 * without touching the engine.
 */
struct StatsSnapshot
{
    Tick simNow = 0;
    std::uint32_t nodes = 0;
    std::uint32_t activeApps = 0;
    std::uint32_t freeSockets = 0;
    std::uint64_t allocatorPasses = 0;
    std::uint64_t eventsApplied = 0;
    std::uint64_t batches = 0;
    std::uint64_t maxBatch = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t rejected = 0;
    std::uint32_t queueDepth = 0;     ///< admission queue, at publish
    std::uint32_t poolQueueDepth = 0; ///< util::ThreadPool backlog
    std::uint32_t poolInflight = 0;   ///< util::ThreadPool executing
    std::uint64_t digestHash = 0;     ///< last committed digest
    /** Selected control-plane counters folded across nodes. */
    std::map<std::string, std::uint64_t> counters;

    /** Mean events coalesced per committed batch. */
    double
    eventsPerBatch() const
    {
        return batches
                   ? static_cast<double>(eventsApplied) /
                         static_cast<double>(batches)
                   : 0.0;
    }
};

/** QUERY: look one counter up by name. */
struct QueryRequest
{
    std::string name;
};

struct QueryReply
{
    bool found = false;
    std::uint64_t value = 0;
};

// --- Payload codecs ------------------------------------------------
//
// Every decode returns false on malformed payloads (truncated,
// trailing bytes, out-of-range enums) and leaves the output in an
// unspecified state.
//
// The put/get helpers are the field-level codecs the whole-payload
// ones are built from; the capture file (serve/replay.hh) writes its
// records with them too.  A get returns false on an out-of-range
// field; a truncated read latches the reader's fail flag, which the
// caller checks once with good().

/** The EVENT payload's fields, in wire order. */
void putEventRequest(net::WireWriter &w, const EventRequest &ev);
/** Refuses an event that fails validEventRequest(). */
bool getEventRequest(net::WireReader &r, EventRequest &out);

void putDigest(net::WireWriter &w, const DecisionDigest &d);
DecisionDigest getDigest(net::WireReader &r);

/** One status byte; refuses a value that names no ReplyStatus. */
bool getReplyStatus(net::WireReader &r, ReplyStatus &out);

std::vector<std::uint8_t> encodeEventRequest(const EventRequest &ev);
bool decodeEventRequest(const std::vector<std::uint8_t> &payload,
                        EventRequest &out);

std::vector<std::uint8_t> encodeEventReply(const EventReply &reply);
bool decodeEventReply(const std::vector<std::uint8_t> &payload,
                      EventReply &out);

std::vector<std::uint8_t> encodeHelloRequest(const HelloRequest &req);
bool decodeHelloRequest(const std::vector<std::uint8_t> &payload,
                        HelloRequest &out);

std::vector<std::uint8_t> encodeHelloReply(const HelloReply &reply);
bool decodeHelloReply(const std::vector<std::uint8_t> &payload,
                      HelloReply &out);

std::vector<std::uint8_t> encodeStatsSnapshot(const StatsSnapshot &s);
bool decodeStatsSnapshot(const std::vector<std::uint8_t> &payload,
                         StatsSnapshot &out);

std::vector<std::uint8_t> encodeQueryRequest(const QueryRequest &req);
bool decodeQueryRequest(const std::vector<std::uint8_t> &payload,
                        QueryRequest &out);

std::vector<std::uint8_t> encodeQueryReply(const QueryReply &reply);
bool decodeQueryReply(const std::vector<std::uint8_t> &payload,
                      QueryReply &out);

std::vector<std::uint8_t> encodeErrorMessage(const std::string &msg);
bool decodeErrorMessage(const std::vector<std::uint8_t> &payload,
                        std::string &out);

} // namespace psm::serve

#endif // PSM_SERVE_PROTOCOL_HH
