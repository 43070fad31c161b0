/**
 * @file
 * The ServeEngine: the deterministic decision core behind the daemon.
 *
 * It hosts a NodePool of managed servers (one by default — the
 * paper's shared server — or many for a small cluster) and translates
 * decoded wire events into ControlLoop entry points: E1 cap changes,
 * E2 arrivals (with a most-free-sockets routing rule when the client
 * does not pin a node), E4-provoking phase changes, external E3
 * kills, and explicit clock advances.  commit() runs one control
 * period (ControlLoop::controlPeriod, the period every node polls
 * at), so however many events were applied since the last commit,
 * the Accountant's next poll folds them into ONE reallocate() pass —
 * the coalescing the batching stage above exploits.
 *
 * Everything is deterministic: the same event sequence against the
 * same config yields bit-identical decisions whether the events came
 * over a socket or from an in-process loop.  DecisionDigest is the
 * proof — an FNV-1a fold of every node's decision state that the
 * bench compares across both paths.
 */

#ifndef PSM_SERVE_ENGINE_HH
#define PSM_SERVE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/node_pool.hh"
#include "core/manager.hh"
#include "protocol.hh"
#include "util/units.hh"

namespace psm::serve
{

class CaptureWriter;

/** How to build the served cluster. */
struct EngineConfig
{
    /** Managed servers behind this daemon. */
    int nodes = 1;
    /** Initial per-server power cap. */
    Watts serverCap = 100.0;
    /** Per-server control-plane template (node i runs with
     * seed = seedBase + i). */
    core::ManagerConfig manager;
    /** Attach a lead-acid UPS to every node. */
    bool esd = false;
    std::uint64_t seedBase = 7;
};

/** What applying one event did (before any commit). */
struct ApplyOutcome
{
    ReplyStatus status = ReplyStatus::Ok;
    std::int32_t node = -1;
    std::int32_t appId = -1;
};

class ServeEngine
{
  public:
    explicit ServeEngine(const EngineConfig &config);
    ~ServeEngine();

    /**
     * Apply one event without deciding.  Advance runs the cluster
     * immediately (order inside a batch is preserved); the other ops
     * only mutate state the next commit() resolves.
     */
    ApplyOutcome apply(const EventRequest &ev);

    /**
     * Run one control period across all nodes: every event applied
     * since the last commit is consumed by a single Accountant poll
     * per node — one allocator pass, however many events queued.
     *
     * @return The post-commit digest.
     */
    DecisionDigest commit();

    /** Digest of the current decision state (no stepping). */
    DecisionDigest digest() const;

    /** Allocator passes so far, cluster-wide. */
    std::uint64_t allocatorPasses() const;

    int nodeCount() const
    {
        return static_cast<int>(pool_.size());
    }

    /**
     * Fill the simulation-side fields of a service snapshot: scalar
     * rollups plus every registered trace counter the cluster touched
     * (timers as name.count/.total_us/.max_us triplets), read from
     * the pool's aggregateTelemetry() fold.
     *
     * @param extra Optional service-level bus (serve.* and pool.*
     *        gauges) folded into the same emit.
     */
    void fillSnapshot(StatsSnapshot &snap,
                      const core::Telemetry *extra = nullptr) const;

    /**
     * Cluster-wide sum of every node's learning-layer surface epoch:
     * a cheap logical clock over calibration progress, captured with
     * each commit so replay divergence is caught even on a digest
     * hash collision.
     */
    std::uint64_t surfaceEpochSum() const;

    /**
     * Start recording every apply() and commit() to a binary capture
     * at @p path (see serve/replay.hh).  Begin before the first event
     * — the capture replays against a FRESH engine built from this
     * config.
     *
     * @return false, opening no file, when the config sets what a
     *         capture does not record (unrecordedSetting()), and
     *         false on I/O failure; the engine keeps running
     *         uncaptured.
     */
    bool startCapture(const std::string &path);

    /** Flush and close the capture (no-op when none is open). */
    void stopCapture();

    cluster::NodePool &pool() { return pool_; }
    const EngineConfig &config() const { return cfg; }

  private:
    EngineConfig cfg;
    cluster::NodePool pool_;
    std::unique_ptr<CaptureWriter> capture_;

    core::ServerManager &managerAt(int ix);
    const core::ServerManager &managerAt(int ix) const;

    bool validNode(std::int32_t node) const;
    /** True when an unfinished app of this name runs on the node. */
    bool nameActiveOn(int node, const std::string &name) const;
    /** Arrival routing: most free sockets without a name clash. */
    int routeArrival(const std::string &name) const;

    ApplyOutcome applyAdvance(const EventRequest &ev);
    ApplyOutcome applyCapChange(const EventRequest &ev);
    ApplyOutcome applyArrival(const EventRequest &ev);
    ApplyOutcome applyPhaseChange(const EventRequest &ev);
    ApplyOutcome applyKill(const EventRequest &ev);
};

} // namespace psm::serve

#endif // PSM_SERVE_ENGINE_HH
