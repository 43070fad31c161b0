/**
 * @file
 * A fixed-size worker pool for the performance layer.
 *
 * The simulator's hot path — stepping N independent cluster nodes
 * through an interval, and building them — is embarrassingly
 * parallel: every node writes disjoint state.  The pool exploits that
 * without giving up reproducibility: parallelFor() partitions an
 * index range and each index writes only its own slice, so results
 * are bit-identical to a serial run regardless of worker count or
 * scheduling.
 *
 * Sizing: the process-wide pool (global()) reads PSM_THREADS, falling
 * back to std::thread::hardware_concurrency() when it is unset or
 * not a count in [1, 256] (the latter with a warning).  With one
 * worker parallelFor() runs inline on the caller — the serial
 * baseline — so PSM_THREADS=1 recovers the pre-pool execution
 * exactly.
 *
 * Nesting: a parallelFor() issued from inside a task that a worker
 * (or a helping caller) dequeued runs inline on that thread, which
 * keeps nested regions deadlock-free and bounds total concurrency at
 * the pool width.  The caller's own first chunk is not such a task:
 * a region nested in it is queued like a top-level one.
 */

#ifndef PSM_UTIL_THREAD_POOL_HH
#define PSM_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psm::util
{

/**
 * Fixed-width pool with a shared task queue.  The caller of the
 * blocking entry point (parallelFor) participates in draining the
 * queue, so a pool of width W applies W threads of compute: W-1
 * workers plus the caller.
 */
class ThreadPool
{
  public:
    /**
     * @param width Total concurrency (caller included).  0 picks the
     *        environment default: PSM_THREADS, else
     *        hardware_concurrency().
     */
    explicit ThreadPool(unsigned width = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency this pool applies (>= 1, caller included). */
    unsigned width() const { return n_width; }

    /**
     * Run body(i) for every i in [0, n), partitioned into contiguous
     * chunks (up to 4 per thread, so early finishers steal the tail)
     * and executed across the pool; returns when all n calls
     * finished.  The caller runs the first chunk itself; n <= 1, a
     * width-1 pool and nested calls run inline.  Each index must
     * write only state no other index touches — then the result is
     * independent of the partitioning and identical to the serial
     * loop.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    // --- Backlog gauges (lock-free reads) ----------------------------
    //
    // The serving layer's admission controller and Telemetry read
    // these to observe pool pressure instead of guessing.  Both count
    // only tasks that went through the shared queue: chunks a blocking
    // caller runs inline on itself are not backlog.

    /** Tasks currently waiting in the shared queue. */
    std::size_t queueDepth() const
    {
        return n_queued.load(std::memory_order_relaxed);
    }

    /** Dequeued tasks currently executing (workers or helping
     * callers). */
    std::size_t inflight() const
    {
        return n_inflight.load(std::memory_order_relaxed);
    }

    /**
     * The process-wide pool, built on first use from PSM_THREADS /
     * hardware_concurrency.
     */
    static ThreadPool &global();

    /**
     * Rebuild the process-wide pool at the given width (0 = the
     * environment default).  Must not race with work on the old pool;
     * intended for benches sweeping thread counts and for tests.
     */
    static void configureGlobal(unsigned width);

    /** The width the environment asks for: PSM_THREADS when it is a
     * count in [1, 256], else hardware_concurrency (warning when the
     * variable is set but invalid). */
    static unsigned envWidth();

  private:
    /** Completion state of one blocking call's set of tasks. */
    struct Batch
    {
        std::mutex mtx;
        std::condition_variable done;
        std::size_t pending = 0;
    };

    unsigned n_width = 1;
    std::atomic<std::size_t> n_queued{0};
    std::atomic<std::size_t> n_inflight{0};
    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mtx;
    std::condition_variable cv_work; ///< workers: queue non-empty/stop
    bool stopping = false;

    void workerLoop();

    /**
     * Caller-side wait: drain queued tasks (own or foreign) until the
     * batch's pending count reaches zero, then return.
     */
    void helpWhilePending(Batch &batch);
};

} // namespace psm::util

#endif // PSM_UTIL_THREAD_POOL_HH
