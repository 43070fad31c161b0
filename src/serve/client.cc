#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/logging.hh"

namespace psm::serve
{

Client::~Client() { close(); }

void
Client::adopt(int fd)
{
    close();
    sock = fd;
    reader.reset();
}

bool
Client::connectTcp(const std::string &host, std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false;
    }
    adopt(fd);
    return true;
}

void
Client::close()
{
    if (sock >= 0) {
        ::close(sock);
        sock = -1;
    }
}

bool
Client::writeAll(const std::vector<std::uint8_t> &bytes)
{
    if (sock < 0)
        return false;
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(sock, bytes.data() + off,
                            bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Client::readFrame(net::Frame &out, int timeout_ms)
{
    if (sock < 0)
        return false;
    // Whatever is already buffered may hold a complete frame.
    switch (reader.next(out)) {
      case net::DecodeResult::Frame:
        return true;
      case net::DecodeResult::Error:
        return false;
      case net::DecodeResult::NeedMore:
        break;
    }
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    std::uint8_t buf[16 * 1024];
    for (;;) {
        auto left = std::chrono::duration_cast<
                        std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        if (left <= 0)
            return false;
        pollfd pfd{sock, POLLIN, 0};
        int ready = ::poll(&pfd, 1, static_cast<int>(left));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (ready == 0)
            return false; // timeout
        ssize_t n = ::read(sock, buf, sizeof(buf));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false; // EOF or error
        }
        reader.feed(buf, static_cast<std::size_t>(n));
        switch (reader.next(out)) {
          case net::DecodeResult::Frame:
            return true;
          case net::DecodeResult::Error:
            return false;
          case net::DecodeResult::NeedMore:
            break;
        }
    }
}

bool
Client::awaitReply(net::FrameType type, std::uint32_t request_id,
                   net::Frame &out, int timeout_ms)
{
    for (;;) {
        if (!readFrame(out, timeout_ms))
            return false;
        if (out.type == type && out.requestId == request_id)
            return true;
        if (out.type == net::FrameType::Error) {
            std::string msg;
            decodeErrorMessage(out.payload, msg);
            warn("serve client: server error reply: %s",
                 msg.c_str());
            return false;
        }
        // A stale reply from an earlier fire-and-forget burst; skip.
    }
}

bool
Client::hello(const std::string &name, HelloReply &out,
              int timeout_ms)
{
    HelloRequest req;
    req.client = name;
    std::uint32_t id = next_id++;
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(net::FrameType::Hello, id,
                     encodeHelloRequest(req), bytes);
    if (!writeAll(bytes))
        return false;
    net::Frame frame;
    if (!awaitReply(net::FrameType::HelloAck, id, frame, timeout_ms))
        return false;
    return decodeHelloReply(frame.payload, out) && out.accepted;
}

bool
Client::submit(const EventRequest &ev, EventReply &out,
               int timeout_ms)
{
    std::uint32_t id = next_id++;
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(net::FrameType::Event, id,
                     encodeEventRequest(ev), bytes);
    if (!writeAll(bytes))
        return false;
    net::Frame frame;
    if (!awaitReply(net::FrameType::EventReply, id, frame,
                    timeout_ms))
        return false;
    return decodeEventReply(frame.payload, out);
}

bool
Client::send(const EventRequest &ev)
{
    std::uint32_t id = next_id++;
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(net::FrameType::Event, id,
                     encodeEventRequest(ev), bytes);
    return writeAll(bytes);
}

bool
Client::readEventReply(EventReply &out, int timeout_ms,
                       std::uint32_t *request_id)
{
    net::Frame frame;
    for (;;) {
        if (!readFrame(frame, timeout_ms))
            return false;
        if (frame.type == net::FrameType::EventReply) {
            if (request_id)
                *request_id = frame.requestId;
            return decodeEventReply(frame.payload, out);
        }
    }
}

bool
Client::stats(StatsSnapshot &out, int timeout_ms)
{
    std::uint32_t id = next_id++;
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(net::FrameType::Stats, id, {}, bytes);
    if (!writeAll(bytes))
        return false;
    net::Frame frame;
    if (!awaitReply(net::FrameType::StatsReply, id, frame,
                    timeout_ms))
        return false;
    return decodeStatsSnapshot(frame.payload, out);
}

bool
Client::query(const std::string &name, QueryReply &out,
              int timeout_ms)
{
    QueryRequest req;
    req.name = name;
    std::uint32_t id = next_id++;
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(net::FrameType::Query, id,
                     encodeQueryRequest(req), bytes);
    if (!writeAll(bytes))
        return false;
    net::Frame frame;
    if (!awaitReply(net::FrameType::QueryReply, id, frame,
                    timeout_ms))
        return false;
    return decodeQueryReply(frame.payload, out);
}

bool
Client::shutdownServer(int timeout_ms)
{
    std::uint32_t id = next_id++;
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(net::FrameType::Shutdown, id, {}, bytes);
    if (!writeAll(bytes))
        return false;
    net::Frame frame;
    return awaitReply(net::FrameType::ShutdownAck, id, frame,
                      timeout_ms);
}

} // namespace psm::serve
