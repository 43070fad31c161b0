#include "reactor.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.hh"

namespace psm::net
{

namespace
{

constexpr std::uint64_t kWakeId = 0;
constexpr std::uint64_t kListenId = 1;

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        fatal("cannot make fd %d non-blocking: %s", fd,
              std::strerror(errno));
    }
}

} // namespace

Reactor::Reactor(Handler &h) : handler(h)
{
    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd < 0)
        fatal("epoll_create1: %s", std::strerror(errno));
    wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wakefd < 0)
        fatal("eventfd: %s", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev) < 0)
        fatal("epoll_ctl(wakefd): %s", std::strerror(errno));
}

Reactor::~Reactor()
{
    for (auto &[id, conn] : conns)
        ::close(conn->fd);
    conns.clear();
    if (listenfd >= 0)
        ::close(listenfd);
    ::close(wakefd);
    ::close(epfd);
}

void
Reactor::wake()
{
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakefd, &one, sizeof(one));
}

std::uint64_t
Reactor::addConnection(int fd)
{
    setNonBlocking(fd);
    std::uint64_t id;
    {
        std::lock_guard lk(mtx);
        id = next_id++;
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = id;
        conns.emplace(id, std::move(conn));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) < 0)
        fatal("epoll_ctl(add conn): %s", std::strerror(errno));
    return id;
}

void
Reactor::setListener(int fd)
{
    setNonBlocking(fd);
    listenfd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenId;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) < 0)
        fatal("epoll_ctl(listener): %s", std::strerror(errno));
}

bool
Reactor::send(std::uint64_t id, std::vector<std::uint8_t> bytes)
{
    {
        std::lock_guard lk(mtx);
        auto it = conns.find(id);
        if (it == conns.end())
            return false;
        it->second->outq.push_back(std::move(bytes));
        flush_pending.push_back(id);
    }
    wake();
    return true;
}

std::size_t
Reactor::connectionCount() const
{
    std::lock_guard lk(mtx);
    return conns.size();
}

void
Reactor::stop()
{
    {
        std::lock_guard lk(mtx);
        stop_flag = true;
    }
    wake();
}

void
Reactor::updateInterest(Conn &conn, bool want_write)
{
    if (conn.want_write == want_write)
        return;
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    ev.data.u64 = conn.id;
    if (::epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev) < 0)
        fatal("epoll_ctl(mod): %s", std::strerror(errno));
}

bool
Reactor::flushLocked(Conn &conn)
{
    while (!conn.outq.empty()) {
        const std::vector<std::uint8_t> &chunk = conn.outq.front();
        while (conn.out_off < chunk.size()) {
            ssize_t n = ::write(conn.fd, chunk.data() + conn.out_off,
                                chunk.size() - conn.out_off);
            if (n > 0) {
                conn.out_off += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                updateInterest(conn, true);
                return true;
            }
            if (n < 0 && errno == EINTR)
                continue;
            return false; // EPIPE & friends: peer is gone
        }
        conn.outq.pop_front();
        conn.out_off = 0;
    }
    updateInterest(conn, false);
    return true;
}

void
Reactor::closeConn(std::uint64_t id)
{
    int fd = -1;
    {
        std::lock_guard lk(mtx);
        auto it = conns.find(id);
        if (it == conns.end())
            return;
        fd = it->second->fd;
        conns.erase(it);
    }
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    handler.onDisconnect(id);
}

void
Reactor::acceptPending()
{
    for (;;) {
        int fd = ::accept4(listenfd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            warn("accept failed: %s", std::strerror(errno));
            return;
        }
        addConnection(fd);
    }
}

void
Reactor::handleReadable(std::uint64_t id)
{
    // The fd and reader are only touched on this (the reactor)
    // thread; the lock is needed just to look the connection up.
    Conn *conn;
    {
        std::lock_guard lk(mtx);
        auto it = conns.find(id);
        if (it == conns.end())
            return;
        conn = it->second.get();
    }

    std::uint8_t buf[16384];
    bool peer_gone = false;
    for (;;) {
        ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n > 0) {
            conn->reader.feed(buf, static_cast<std::size_t>(n));
            if (n < static_cast<ssize_t>(sizeof(buf)))
                break; // short read: the socket is drained
            continue;
        }
        if (n == 0) {
            peer_gone = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        peer_gone = true;
        break;
    }

    Frame frame;
    for (;;) {
        DecodeResult r = conn->reader.next(frame);
        if (r == DecodeResult::Frame) {
            handler.onFrame(id, std::move(frame));
            continue;
        }
        if (r == DecodeResult::Error) {
            warn("dropping connection %llu: %s",
                 static_cast<unsigned long long>(id),
                 conn->reader.error().c_str());
            peer_gone = true;
        }
        break;
    }

    if (peer_gone)
        closeConn(id);
}

void
Reactor::handleWritable(std::uint64_t id)
{
    bool ok = true;
    {
        std::lock_guard lk(mtx);
        auto it = conns.find(id);
        if (it == conns.end())
            return;
        ok = flushLocked(*it->second);
    }
    if (!ok)
        closeConn(id);
}

void
Reactor::run()
{
    epoll_event events[64];
    for (;;) {
        {
            std::lock_guard lk(mtx);
            if (stop_flag) {
                // Best-effort final flush: replies queued just before
                // stop() (e.g. stop-time sheds) must still reach
                // their sockets; a full kernel buffer gives up.
                flush_pending.clear();
                for (auto &[id, conn] : conns)
                    flushLocked(*conn);
                return;
            }
        }

        int n = ::epoll_wait(epfd, events, 64, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("epoll_wait: %s", std::strerror(errno));
        }

        for (int i = 0; i < n; ++i) {
            std::uint64_t id = events[i].data.u64;
            std::uint32_t what = events[i].events;
            if (id == kWakeId) {
                std::uint64_t drain;
                while (::read(wakefd, &drain, sizeof(drain)) > 0) {
                }
                continue;
            }
            if (id == kListenId) {
                acceptPending();
                continue;
            }
            if (what & (EPOLLHUP | EPOLLERR)) {
                closeConn(id);
                continue;
            }
            if (what & EPOLLIN)
                handleReadable(id);
            if (what & EPOLLOUT)
                handleWritable(id);
        }

        // Flush replies queued by other threads since the last pass.
        std::vector<std::uint64_t> pending;
        {
            std::lock_guard lk(mtx);
            pending.swap(flush_pending);
        }
        std::vector<std::uint64_t> dead;
        {
            std::lock_guard lk(mtx);
            for (std::uint64_t id : pending) {
                auto it = conns.find(id);
                if (it == conns.end())
                    continue;
                if (!flushLocked(*it->second))
                    dead.push_back(id);
            }
        }
        for (std::uint64_t id : dead)
            closeConn(id);
    }
}

} // namespace psm::net
