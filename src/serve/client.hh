/**
 * @file
 * A small blocking client for the serving protocol.
 *
 * One socket, synchronous request/reply with poll()-based timeouts,
 * request ids counting up from 1.  Built for the tests and the
 * example tool — clean and predictable rather than pipelined; the
 * daemon side is where the async machinery lives.  submit() is the
 * closed-loop primitive (write, wait for the matching EVENT-REPLY);
 * send() plus readEventReply() is the open-loop pair (fire a burst,
 * then drain replies as they come).
 */

#ifndef PSM_SERVE_CLIENT_HH
#define PSM_SERVE_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hh"
#include "net/message_reader.hh"
#include "protocol.hh"

namespace psm::serve
{

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Adopt a connected stream fd (e.g. from
     * ServeService::openLocalConnection()). */
    void adopt(int fd);

    /** Connect to a TCP daemon. @return false on failure. */
    bool connectTcp(const std::string &host, std::uint16_t port);

    bool connected() const { return sock >= 0; }
    void close();

    /** Handshake. @return false on transport error, rejected
     * version, or timeout. */
    bool hello(const std::string &name, HelloReply &out,
               int timeout_ms = 5000);

    /** Closed loop: submit one event and wait for its reply. */
    bool submit(const EventRequest &ev, EventReply &out,
                int timeout_ms = 30000);

    /** Open loop: fire one event without waiting.  The reply arrives
     * later through readEventReply(). */
    bool send(const EventRequest &ev);

    /** Read the next EVENT-REPLY (any request id) and, if asked,
     * which request it answers.  Other reply types arriving first
     * are discarded. */
    bool readEventReply(EventReply &out, int timeout_ms = 30000,
                        std::uint32_t *request_id = nullptr);

    bool stats(StatsSnapshot &out, int timeout_ms = 5000);

    bool query(const std::string &name, QueryReply &out,
               int timeout_ms = 5000);

    /** Ask the daemon to shut down; waits for the ack. */
    bool shutdownServer(int timeout_ms = 5000);

  private:
    int sock = -1;
    std::uint32_t next_id = 1;
    net::FrameReader reader;

    bool writeAll(const std::vector<std::uint8_t> &bytes);
    /** Next complete frame, blocking up to the timeout. */
    bool readFrame(net::Frame &out, int timeout_ms);
    /** Read frames until one matches (type, id); mismatches are
     * dropped. */
    bool awaitReply(net::FrameType type, std::uint32_t request_id,
                    net::Frame &out, int timeout_ms);
};

} // namespace psm::serve

#endif // PSM_SERVE_CLIENT_HH
