#include "service.hh"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace psm::serve
{

ServeService::ServeService(const ServiceConfig &config)
    : cfg(config), eng(config.engine), reactor(*this)
{
    psm_assert(cfg.maxQueue >= 1 && cfg.maxBatch >= 1);
}

ServeService::~ServeService()
{
    stop();
    if (listen_fd >= 0)
        ::close(listen_fd);
}

void
ServeService::start()
{
    if (started)
        return;
    started = true;
    publishSnapshot();
    reactor_thread = std::thread([this] { reactor.run(); });
    control_thread = std::thread([this] { controlLoop(); });
    inform(LogLevel::Normal,
           "serve: started (queue=%zu batch=%zu nodes=%d)",
           cfg.maxQueue, cfg.maxBatch, eng.nodeCount());
}

void
ServeService::stop()
{
    if (!started)
        return;
    started = false;
    {
        std::lock_guard lk(qmtx);
        stopping = true;
        held = false;
    }
    qcv.notify_all();
    if (control_thread.joinable())
        control_thread.join();
    reactor.stop();
    if (reactor_thread.joinable())
        reactor_thread.join();
}

int
ServeService::openLocalConnection()
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return -1;
    reactor.addConnection(fds[0]);
    return fds[1];
}

std::uint64_t
ServeService::serveFd(int fd)
{
    return reactor.addConnection(fd);
}

bool
ServeService::listenTcp(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        ::close(fd);
        return false;
    }
    listen_fd = fd;
    reactor.setListener(fd);
    return true;
}

void
ServeService::holdBatching(bool hold)
{
    {
        std::lock_guard lk(qmtx);
        held = hold;
    }
    if (!hold)
        qcv.notify_all();
}

std::shared_ptr<const StatsSnapshot>
ServeService::snapshot() const
{
    std::lock_guard lk(snap_mtx);
    return snap;
}

std::size_t
ServeService::queueDepth() const
{
    std::lock_guard lk(qmtx);
    return queue.size();
}

DecisionDigest
ServeService::lastDigest() const
{
    std::lock_guard lk(snap_mtx);
    return last_digest;
}

// --- Reactor-thread handlers ---------------------------------------

void
ServeService::onFrame(std::uint64_t conn, net::Frame &&frame)
{
    switch (frame.type) {
      case net::FrameType::Hello:
        handleHello(conn, frame);
        return;
      case net::FrameType::Event:
        handleEvent(conn, std::move(frame));
        return;
      case net::FrameType::Stats:
        handleStats(conn, frame);
        return;
      case net::FrameType::Query:
        handleQuery(conn, frame);
        return;
      case net::FrameType::Shutdown:
        handleShutdown(conn, frame);
        return;
      default:
        // Reply types arriving at the server are protocol misuse.
        sendError(conn, frame.requestId,
                  "unexpected frame type " +
                      net::frameTypeName(frame.type));
        return;
    }
}

void
ServeService::onDisconnect(std::uint64_t conn)
{
    (void)conn;
    // Queued requests from this connection still process; their
    // replies fail silently in Reactor::send().
}

void
ServeService::handleHello(std::uint64_t conn,
                          const net::Frame &frame)
{
    HelloRequest req;
    if (!decodeHelloRequest(frame.payload, req)) {
        sendError(conn, frame.requestId, "malformed HELLO");
        return;
    }
    HelloReply reply;
    reply.version = net::kProtocolVersion;
    reply.accepted = req.version == net::kProtocolVersion;
    reply.server = cfg.name;
    std::vector<std::uint8_t> out;
    net::encodeFrame(net::FrameType::HelloAck, frame.requestId,
                     encodeHelloReply(reply), out);
    reactor.send(conn, std::move(out));
}

void
ServeService::handleEvent(std::uint64_t conn, net::Frame &&frame)
{
    EventRequest ev;
    if (!decodeEventRequest(frame.payload, ev)) {
        sendError(conn, frame.requestId, "malformed EVENT");
        return;
    }
    bool admitted = false;
    {
        std::lock_guard lk(qmtx);
        if (!stopping && queue.size() < cfg.maxQueue) {
            queue.push_back({conn, frame.requestId, ev, Clock::now()});
            admitted = true;
        }
    }
    if (admitted) {
        qcv.notify_one();
        return;
    }
    // Admission control: refuse before any simulation work so the
    // decision path never sees overload it did not choose to absorb.
    n_shed.fetch_add(1, std::memory_order_relaxed);
    EventReply reply;
    reply.status = ReplyStatus::Shed;
    reply.digest = lastDigest();
    sendEventReply(conn, frame.requestId, reply);
}

void
ServeService::handleStats(std::uint64_t conn,
                          const net::Frame &frame)
{
    std::shared_ptr<const StatsSnapshot> s = snapshot();
    std::vector<std::uint8_t> out;
    net::encodeFrame(net::FrameType::StatsReply, frame.requestId,
                     encodeStatsSnapshot(*s), out);
    reactor.send(conn, std::move(out));
}

void
ServeService::handleQuery(std::uint64_t conn,
                          const net::Frame &frame)
{
    QueryRequest req;
    if (!decodeQueryRequest(frame.payload, req)) {
        sendError(conn, frame.requestId, "malformed QUERY");
        return;
    }
    std::shared_ptr<const StatsSnapshot> s = snapshot();
    QueryReply reply;
    auto it = s->counters.find(req.name);
    if (it != s->counters.end()) {
        reply.found = true;
        reply.value = it->second;
    }
    std::vector<std::uint8_t> out;
    net::encodeFrame(net::FrameType::QueryReply, frame.requestId,
                     encodeQueryReply(reply), out);
    reactor.send(conn, std::move(out));
}

void
ServeService::handleShutdown(std::uint64_t conn,
                             const net::Frame &frame)
{
    std::vector<std::uint8_t> out;
    net::encodeFrame(net::FrameType::ShutdownAck, frame.requestId,
                     {}, out);
    reactor.send(conn, std::move(out));
    shutdown_req.store(true, std::memory_order_release);
    inform(LogLevel::Normal,
           "serve: shutdown requested by connection %llu",
           static_cast<unsigned long long>(conn));
}

void
ServeService::sendError(std::uint64_t conn, std::uint32_t request_id,
                        const std::string &message)
{
    std::vector<std::uint8_t> out;
    net::encodeFrame(net::FrameType::Error, request_id,
                     encodeErrorMessage(message), out);
    reactor.send(conn, std::move(out));
}

void
ServeService::sendEventReply(std::uint64_t conn,
                             std::uint32_t request_id,
                             const EventReply &reply)
{
    std::vector<std::uint8_t> out;
    net::encodeFrame(net::FrameType::EventReply, request_id,
                     encodeEventReply(reply), out);
    reactor.send(conn, std::move(out));
}

// --- Control thread ------------------------------------------------

void
ServeService::controlLoop()
{
    std::vector<Request> batch;
    batch.reserve(cfg.maxBatch);
    for (;;) {
        {
            std::unique_lock lk(qmtx);
            qcv.wait(lk, [this] {
                return stopping || (!held && !queue.empty());
            });
            if (stopping && queue.empty())
                return;
            if (stopping) {
                // Drain leftovers as Shed: the daemon is going away
                // and will not decide on them.
                while (!queue.empty()) {
                    Request req = queue.front();
                    queue.pop_front();
                    lk.unlock();
                    n_shed.fetch_add(1, std::memory_order_relaxed);
                    EventReply reply;
                    reply.status = ReplyStatus::Shed;
                    reply.digest = lastDigest();
                    sendEventReply(req.conn, req.requestId, reply);
                    lk.lock();
                }
                return;
            }
            while (!queue.empty() && batch.size() < cfg.maxBatch) {
                batch.push_back(queue.front());
                queue.pop_front();
            }
        }
        processBatch(batch);
        batch.clear();
    }
}

void
ServeService::processBatch(const std::vector<Request> &batch)
{
    struct Pending
    {
        std::uint64_t conn;
        std::uint32_t requestId;
        EventReply reply;
    };
    std::vector<Pending> pending;
    pending.reserve(batch.size());

    Clock::time_point now = Clock::now();
    std::uint32_t applied = 0;
    for (const Request &req : batch) {
        Pending p{req.conn, req.requestId, {}};
        if (req.ev.deadlineUs > 0 &&
            now - req.enqueued >=
                std::chrono::microseconds(req.ev.deadlineUs)) {
            // The client's wall-clock budget lapsed while queued; do
            // not apply a decision nobody is waiting for.
            p.reply.status = ReplyStatus::Expired;
            ++n_expired;
        } else {
            ApplyOutcome outcome = eng.apply(req.ev);
            p.reply.status = outcome.status;
            p.reply.node = outcome.node;
            p.reply.appId = outcome.appId;
            if (outcome.status == ReplyStatus::Ok)
                ++applied;
            else
                ++n_rejected;
        }
        pending.push_back(std::move(p));
    }

    // One allocator epoch resolves the whole batch.  When nothing was
    // applied there is nothing to decide — reply with the unstepped
    // digest instead of burning a control period.
    DecisionDigest digest =
        applied > 0 ? eng.commit() : eng.digest();
    if (applied > 0) {
        n_applied += applied;
        ++n_batches;
        if (applied > n_max_batch)
            n_max_batch = applied;
    }

    // Publish before replying: a client that requests STATS right
    // after seeing its reply must observe a snapshot that already
    // includes this batch.
    publishSnapshot();

    for (Pending &p : pending) {
        p.reply.batched =
            p.reply.status == ReplyStatus::Ok ? applied : 0;
        p.reply.digest = digest;
        sendEventReply(p.conn, p.requestId, p.reply);
    }
}

void
ServeService::publishSnapshot()
{
    auto next = std::make_shared<StatsSnapshot>();
    next->eventsApplied = n_applied;
    next->batches = n_batches;
    next->maxBatch = n_max_batch;
    next->shed = n_shed.load(std::memory_order_relaxed);
    next->expired = n_expired;
    next->rejected = n_rejected;
    next->queueDepth = static_cast<std::uint32_t>(queueDepth());
    util::ThreadPool &pool = util::ThreadPool::global();
    next->poolQueueDepth =
        static_cast<std::uint32_t>(pool.queueDepth());
    next->poolInflight = static_cast<std::uint32_t>(pool.inflight());

    DecisionDigest digest = eng.digest();
    next->digestHash = digest.hash;

    // Service-level gauges ride the trace bus and fold into the same
    // snapshot emit as the engine's counters, so QUERY can reach
    // everything by name.
    service_tel.gauge(trace::EventId::ServeEventsApplied, n_applied);
    service_tel.gauge(trace::EventId::ServeBatches, n_batches);
    service_tel.gauge(trace::EventId::ServeMaxBatch, n_max_batch);
    service_tel.gauge(trace::EventId::ServeShed, next->shed);
    service_tel.gauge(trace::EventId::ServeExpired, n_expired);
    service_tel.gauge(trace::EventId::ServeRejected, n_rejected);
    service_tel.gauge(trace::EventId::ServeQueueDepth,
                      next->queueDepth);
    service_tel.gauge(trace::EventId::ServeConnections,
                      reactor.connectionCount());
    service_tel.gauge(trace::EventId::PoolQueueDepth,
                      next->poolQueueDepth);
    service_tel.gauge(trace::EventId::PoolInflight,
                      next->poolInflight);
    eng.fillSnapshot(*next, &service_tel);

    std::lock_guard lk(snap_mtx);
    last_digest = digest;
    snap = std::move(next);
}

} // namespace psm::serve
