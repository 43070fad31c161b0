/**
 * @file
 * Deterministic record/replay for the serving engine.
 *
 * A capture is one binary file holding everything one ServeEngine run
 * consumed and decided.  This module alone writes and reads it, and
 * every field goes through the wire protocol's codecs
 * (net::WireWriter/WireReader and the serve/protocol.hh helpers), so
 * a capture and an EVENT frame cannot drift apart.  Layout, all
 * little-endian:
 *
 *   [u64 magic "PSMTRLOG"] [u32 version 1]
 *   repeated: [u8 type] [u32 length] [length bytes payload]
 *
 *   Config (1) — version 3: node count, server cap, ESD flag, seed
 *                base, policy, oracle flag, guard band and manager
 *                seed, then an FNV-1a fingerprint over those bytes
 *                that guards against version drift.  The allocator,
 *                coordinator and fault plan are not recorded: a
 *                replay rebuilds them at their defaults, so
 *                ServeEngine::startCapture refuses a config that sets
 *                one (unrecordedSetting()).
 *   Event (2)  — one applied EventRequest, encoded as the EVENT frame
 *                payload, then the ApplyOutcome the original run
 *                observed (status u8, node i32, app i32).
 *   Commit (3) — one control-period commit: the DecisionDigest as an
 *                EVENT reply carries it, then the cluster-wide
 *                surface-epoch sum (u64; the learning layer's logical
 *                clock — catching divergence even when the decision
 *                hash collides).
 *
 * Because the engine is deterministic (seeded managers, attempt-keyed
 * fault rolls, one telemetry bus per node on the parallel step),
 * re-running the captured event stream against the captured config
 * must reproduce every digest bit-exactly.  replayCapture() is that
 * check; the psm-replay tool wraps it for the command line.
 */

#ifndef PSM_SERVE_REPLAY_HH
#define PSM_SERVE_REPLAY_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "engine.hh"
#include "protocol.hh"

namespace psm::serve
{

/** One applied event with the outcome the original run observed. */
struct CapturedEvent
{
    EventRequest request;
    ApplyOutcome outcome;
};

/** One commit with everything the original run decided. */
struct CapturedCommit
{
    DecisionDigest digest;
    std::uint64_t surfaceEpochSum = 0;
};

// --- writing -------------------------------------------------------

/**
 * Appends one engine run to a capture file: open() writes the file
 * header and the Config record, then event() and commit() append one
 * record each.  ServeEngine::startCapture drives it.
 */
class CaptureWriter
{
  public:
    /** Create @p path and write the header and @p cfg's Config
     * record.  @return false on I/O failure (the writer stays
     * closed). */
    bool open(const std::string &path, const EngineConfig &cfg);

    void event(const EventRequest &request, const ApplyOutcome &outcome);
    void commit(const DecisionDigest &digest,
                std::uint64_t surfaceEpochSum);

    /** Flush and close (no-op when closed). */
    void close();

  private:
    std::ofstream out;
};

/**
 * The first setting of @p cfg a Config record does not hold and a
 * replay would therefore rebuild differently: "manager.faults" when
 * the fault plan is enabled, "manager.allocator" or
 * "manager.coordinator" when either differs from its default.  Null
 * when the record holds the whole config.
 */
const char *unrecordedSetting(const EngineConfig &cfg);

std::vector<std::uint8_t> encodeCaptureConfig(const EngineConfig &cfg);
/**
 * Decode and validate a Config payload.  The policy byte is checked
 * against the live registry — a capture recorded by a newer build
 * with policies this build does not know fails here rather than
 * being cast blindly.  On failure, @p error (when non-null) gets the
 * reason.
 */
bool decodeCaptureConfig(const std::vector<std::uint8_t> &payload,
                         EngineConfig &out,
                         std::string *error = nullptr);

// --- whole-file view ------------------------------------------------

/** A parsed capture: the config plus the ordered event/commit tape. */
struct Capture
{
    EngineConfig config;

    /** One tape step: an event application or a commit. */
    struct Step
    {
        bool isCommit = false;
        CapturedEvent event;   ///< valid when !isCommit
        CapturedCommit commit; ///< valid when isCommit
    };

    std::vector<Step> steps;

    std::size_t
    commitCount() const
    {
        std::size_t n = 0;
        for (const Step &s : steps)
            n += s.isCommit ? 1 : 0;
        return n;
    }
};

/**
 * Parse @p path into @p out.
 * @return false (with @p error set) on I/O errors, corrupt or cut
 *         records, or a missing leading Config record.  The file
 *         may end only after a whole record.
 */
bool readCapture(const std::string &path, Capture &out,
                 std::string &error);

/**
 * The scripted run psm-replay --self-test captures: four arrivals, a
 * cap change, an advance, a phase change and a kill (8 events) over 5
 * commits.  On psm-replay's 2-node config it captures 822 bytes.
 */
void scriptedRun(ServeEngine &engine);

// --- replay ---------------------------------------------------------

/** What re-running a capture produced. */
struct ReplayResult
{
    bool ok = false;           ///< every step reproduced bit-exactly
    std::size_t events = 0;    ///< events re-applied
    std::size_t commits = 0;   ///< commits re-run
    std::size_t mismatches = 0;
    /** Human-readable description of the first divergence (empty when
     * ok). */
    std::string firstMismatch;
    DecisionDigest finalDigest;
    std::uint64_t finalSurfaceEpochSum = 0;
};

/**
 * Re-run @p capture's event tape against a fresh engine built from
 * its config and compare every ApplyOutcome, DecisionDigest and
 * surface-epoch sum against the recorded ones.
 */
ReplayResult replayCapture(const Capture &capture);

} // namespace psm::serve

#endif // PSM_SERVE_REPLAY_HH
