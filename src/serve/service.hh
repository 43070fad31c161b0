/**
 * @file
 * The ServeService: admission control and batching between the
 * reactor (transport) thread and the ServeEngine.
 *
 * Two threads split the daemon:
 *
 *   reactor thread  — owns all socket I/O.  Decodes frames; answers
 *                     HELLO/STATS/QUERY straight from the published
 *                     snapshot (never touching the engine); enqueues
 *                     EVENTs into a bounded queue, replying Shed
 *                     immediately when the queue is full (admission
 *                     control happens before any simulation work).
 *   control thread  — drains the queue in batches of up to maxBatch,
 *                     applies every event, then runs ONE control
 *                     period: the Accountant coalesces the whole
 *                     batch into a single allocator pass.  Each reply
 *                     carries the post-epoch digest and how many
 *                     events shared its pass.
 *
 * A request with a deadline that lapsed while queued is answered
 * Expired and never applied.
 */

#ifndef PSM_SERVE_SERVICE_HH
#define PSM_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine.hh"
#include "net/reactor.hh"
#include "protocol.hh"

namespace psm::serve
{

struct ServiceConfig
{
    EngineConfig engine;
    /** Admission bound (>= 1): EVENTs queued beyond this are shed. */
    std::size_t maxQueue = 256;
    /** Most events coalesced into one allocator epoch (>= 1). */
    std::size_t maxBatch = 64;
    /** Server name sent in HELLO-ACK. */
    std::string name = "psm-served";
};

class ServeService : private net::Reactor::Handler
{
  public:
    explicit ServeService(const ServiceConfig &config);
    ~ServeService() override;

    ServeService(const ServeService &) = delete;
    ServeService &operator=(const ServeService &) = delete;

    /** Spawn the reactor and control threads. */
    void start();

    /**
     * Stop both threads.  Queued, unanswered EVENTs are replied Shed
     * before the control thread exits.  Idempotent; also runs from
     * the destructor.
     */
    void stop();

    /**
     * Make an in-process connection: one end of a socketpair is
     * adopted by the reactor, the other is returned for a Client.
     * This is how CI exercises the daemon without touching the
     * network.
     *
     * @return The client-side fd, or -1 on failure.
     */
    int openLocalConnection();

    /** Adopt an already-connected stream fd (e.g. from accept()). */
    std::uint64_t serveFd(int fd);

    /**
     * Listen on a TCP port (IPv4, loopback-reachable); the reactor
     * accepts from it.  Call before start().
     *
     * @return false when the socket cannot be bound.
     */
    bool listenTcp(std::uint16_t port);

    /**
     * Pause (true) or resume (false) batch draining.  While held,
     * EVENTs accumulate in the queue (shedding past maxQueue as
     * usual); release drains them in maxBatch-sized epochs.  Lets
     * tests build a burst of known size deterministically instead of
     * racing the control thread.
     */
    void holdBatching(bool hold);

    /** The published read-only snapshot (never null after start). */
    std::shared_ptr<const StatsSnapshot> snapshot() const;

    /** True once a client asked for SHUTDOWN (the ack is sent before
     * this flips, so the requester sees it). */
    bool shutdownRequested() const
    {
        return shutdown_req.load(std::memory_order_acquire);
    }

    /** EVENTs currently queued (gauge). */
    std::size_t queueDepth() const;

    /** Pre-start access for seeding scenarios in tests. */
    ServeEngine &engine() { return eng; }

    std::size_t connectionCount() const
    {
        return reactor.connectionCount();
    }

  private:
    using Clock = std::chrono::steady_clock;

    /** One queued EVENT. */
    struct Request
    {
        std::uint64_t conn = 0;
        std::uint32_t requestId = 0;
        EventRequest ev;
        Clock::time_point enqueued;
    };

    ServiceConfig cfg;
    ServeEngine eng;
    net::Reactor reactor;

    std::thread reactor_thread;
    std::thread control_thread;
    bool started = false;
    std::atomic<bool> shutdown_req{false};

    mutable std::mutex qmtx;
    std::condition_variable qcv;
    std::deque<Request> queue;
    bool stopping = false; ///< guarded by qmtx
    bool held = false;     ///< guarded by qmtx

    // Service counters: reactor thread bumps shed, control thread the
    // rest; snapshot publication reads them all.
    std::atomic<std::uint64_t> n_shed{0};
    std::uint64_t n_applied = 0; ///< control thread only
    std::uint64_t n_batches = 0;
    std::uint64_t n_max_batch = 0;
    std::uint64_t n_expired = 0;
    std::uint64_t n_rejected = 0;

    /** Service-level gauge bus (serve.*, pool.*); control thread
     * only, folded into each published snapshot. */
    core::Telemetry service_tel;

    mutable std::mutex snap_mtx;
    std::shared_ptr<const StatsSnapshot> snap;
    DecisionDigest last_digest; ///< guarded by snap_mtx

    // net::Reactor::Handler
    void onFrame(std::uint64_t conn, net::Frame &&frame) override;
    void onDisconnect(std::uint64_t conn) override;

    void controlLoop();
    /** Apply one batch, run one epoch, reply to every request. */
    void processBatch(const std::vector<Request> &batch);

    void handleHello(std::uint64_t conn, const net::Frame &frame);
    void handleEvent(std::uint64_t conn, net::Frame &&frame);
    void handleStats(std::uint64_t conn, const net::Frame &frame);
    void handleQuery(std::uint64_t conn, const net::Frame &frame);
    void handleShutdown(std::uint64_t conn, const net::Frame &frame);

    void sendError(std::uint64_t conn, std::uint32_t request_id,
                   const std::string &message);
    void sendEventReply(std::uint64_t conn, std::uint32_t request_id,
                        const EventReply &reply);

    /** Rebuild and publish the snapshot (control thread). */
    void publishSnapshot();
    DecisionDigest lastDigest() const;

    int listen_fd = -1;
};

} // namespace psm::serve

#endif // PSM_SERVE_SERVICE_HH
