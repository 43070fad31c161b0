/**
 * @file
 * What the two serving workloads share: the spinning client side of a
 * socketpair connection, the record of each event and its reply, the
 * in-process Mirror that re-runs the daemon's batches (the correctness
 * gate, and the traced run's spans), and the reporting.
 */

#ifndef PERFBENCH_SERVE_COMMON_HH
#define PERFBENCH_SERVE_COMMON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/power_allocator.hh"
#include "net/message_reader.hh"
#include "report.hh"
#include "serve/service.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

/** Managed servers behind the daemon in both serve workloads. */
constexpr int kServeNodes = 2;
/** The serve latency limit behind slo_met_frac. */
constexpr double kServeLimitUs = 2000.0;
/** Reply wait bound; an event unanswered after it counts as failed. */
constexpr int kReplyTimeoutMs = 30000;

/** Independent seeded streams derived from one --seed. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/** Pause hint for spin loops. */
void cpuRelax();

/** One event as sent, and how the daemon answered it. */
struct Exchange
{
    psm::serve::EventRequest ev;
    psm::serve::EventReply reply;
    bool answered = false;
    std::uint32_t requestId = 0;
    double latencyUs = 0.0;
    /** Latency window: quantiles are taken per window and the median
     * over windows is reported. */
    std::size_t window = 0;
};

/**
 * The client end of one in-process connection, non-blocking.  The
 * closed loop waits for each reply in poll(), as a real client would;
 * the open loop instead spins on poll(F), because a generator that
 * sleeps wakes 100+ us late on a VM and that lag would land in every
 * latency it measures from the due time.
 */
class Conn
{
  public:
    /** Adopt a connected stream fd (closed by the destructor). */
    explicit Conn(int fd);
    ~Conn();
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    /** Write one frame; false on a transport error. */
    bool send(psm::net::FrameType type, std::uint32_t id,
              const std::vector<std::uint8_t> &payload);

    /**
     * Decode whatever is readable now.  Each complete frame goes to
     * @p on_frame with the time its bytes were read.
     *
     * @return false on EOF, a read error or a corrupt stream.
     */
    template <class F>
    bool
    poll(F &&on_frame)
    {
        if (!readSome())
            return false;
        psm::net::Frame frame;
        psm::net::DecodeResult r;
        while ((r = reader.next(frame)) == psm::net::DecodeResult::Frame)
            on_frame(frame, last_read);
        return r != psm::net::DecodeResult::Error;
    }

    /** HELLO handshake. */
    bool hello();

    /** Closed loop: send one event and wait for its reply. */
    Exchange submit(const psm::serve::EventRequest &ev);

  private:
    int fd;
    std::uint32_t next_id = 1;
    psm::net::FrameReader reader;
    std::vector<std::uint8_t> buf;
    Clock::time_point last_read;

    bool readSome();
    /** Wait until the frame answering @p id arrives (or times out). */
    bool await(std::uint32_t id, psm::net::Frame &out,
               Clock::time_point &at);
};

/**
 * Replays the daemon's batches on a fresh ServeEngine built from the
 * same config, making the calls ServeService::processBatch and
 * publishSnapshot make, and compares every reply.  With a recorder
 * attached, each call is a span, the wire codec runs once per event,
 * and a shadow allocator solve follows each commit.
 */
class Mirror
{
  public:
    explicit Mirror(const psm::serve::ServiceConfig &cfg);

    /** Start over on a fresh engine (a new daemon); statistics and
     * the recorder are kept. */
    void restart();

    /** Start (or stop, with nullptr) recording spans. */
    void attach(SpanRecorder *rec);

    /** Replay one batch, events in queue order. */
    void replay(const std::vector<const Exchange *> &batch);

    /** Replay a closed-loop stream: every event its own batch. */
    void replayEach(const std::vector<Exchange> &xs);

    std::size_t mismatches() const { return mismatch_count; }
    std::size_t eventsChecked() const { return checked; }
    const std::string &firstMismatch() const { return first_mismatch; }

    /** Shadow allocator solve times (us), one per node per commit. */
    const std::vector<double> &solveUs() const { return solve_us; }

    /** Mean ALS fit time (us) as the program's timer recorded it. */
    double meanFitUs() const;

  private:
    psm::serve::ServiceConfig cfg;
    std::unique_ptr<psm::serve::ServeEngine> eng;
    SpanRecorder *rec = nullptr;
    psm::core::PowerAllocator allocator;
    std::vector<psm::core::AllocatorCache> caches;
    psm::core::Telemetry service_bus;

    SpanRecorder::NameId n_batch = 0, n_codec = 0, n_commit = 0,
                         n_digest = 0, n_snapshot = 0, n_als = 0,
                         n_shadow = 0;
    SpanRecorder::NameId n_apply[8] = {};

    std::size_t checked = 0;
    std::size_t mismatch_count = 0;
    std::string first_mismatch;
    std::vector<double> solve_us;
    double fit_us_total = 0.0;
    std::size_t fit_spans = 0;

    double alsFitUs();
    void deriveAls(SpanRecorder::Id parent, double fit0_us);
    void publish(SpanRecorder::Id parent, std::uint32_t request);
    void codec(const Exchange &x, SpanRecorder::Id parent);
    void shadowAllocate(SpanRecorder::Id parent);
    void mismatch(const std::string &why);
};

/** What a serve workload measured, for reporting. */
struct ServeRun
{
    bool openLoop = false;
    /** How Exchange::window was assigned (for the report). */
    std::string windows;
    std::vector<double> setupS;
    std::vector<Exchange> warmup;  ///< every set-up's warm-up events
    std::vector<Exchange> measure; ///< every measured event
    /** Wall time of each latency window, and the node-0 simulated
     * time it advanced: rates are taken per window too. */
    std::vector<double> windowWallS;
    std::vector<double> windowSimS;
    /** The generator's lag behind its schedule (open loop) or its own
     * time between a reply and the next send (closed loop). */
    std::vector<double> genLagUs;
    /** Counter growth over the measured phases, from the published
     * snapshots. */
    psm::serve::StatsSnapshot delta;
    std::uint64_t queueDepthMax = 0;
    double aggPerf = 0.0;
    double capViolation = 0.0;
};

/** A program counter from a published snapshot (0 when absent). */
std::uint64_t counterOf(const psm::serve::StatsSnapshot &s,
                        const std::string &name);

/** Add the growth from @p before to @p after to @p acc. */
void addDelta(psm::serve::StatsSnapshot &acc,
              const psm::serve::StatsSnapshot &before,
              const psm::serve::StatsSnapshot &after);

/** Mean over nodes of each manager's normalized throughput. */
double meanNodePerf(psm::serve::ServeEngine &eng);
/** Mean over nodes of the metered cap-violation fraction. */
double meanCapViolation(psm::serve::ServeEngine &eng);

/** End-to-end metrics, phase accounting and the failure gate. */
void reportServe(const ServeRun &run, Report &rep);
/** Per-layer metrics read from the daemon's published snapshots. */
void reportSnapshotLayers(const ServeRun &run, Report &rep);
/** Per-layer metrics and self times from the traced mirror replay;
 * the spans go to @p path when it is not empty. */
void reportSpanLayers(const SpanRecorder &rec, const Mirror &mirror,
                      double span_cost_us, const std::string &path,
                      Report &rep);
/** The mirror's equivalence gate. */
void reportMirror(const Mirror &mirror, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_SERVE_COMMON_HH
