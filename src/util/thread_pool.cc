#include "thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "logging.hh"
#include "parse.hh"

namespace psm::util
{

namespace
{

/** Set while this thread is executing a pool task: nested parallel
 * regions run inline so total concurrency stays at the pool width. */
thread_local bool in_pool_task = false;

/** Upper bound on configurable width; PSM_THREADS beyond this is a
 * configuration mistake, not a real machine. */
constexpr unsigned maxWidth = 256;

} // namespace

unsigned
ThreadPool::envWidth()
{
    const char *env = std::getenv("PSM_THREADS");
    if (env && *env != '\0') { // PSM_THREADS= means unset
        long v = 0;
        if (parseLongInRange(env, 1, maxWidth, v))
            return static_cast<unsigned>(v);
        warn("ignoring invalid PSM_THREADS '%s' (want a thread count "
             "in [1, %u])",
             env, maxWidth);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, hw);
}

ThreadPool::ThreadPool(unsigned width)
    : n_width(width == 0 ? envWidth() : std::min(width, maxWidth))
{
    // Width counts the caller; spawn one fewer worker thread.
    for (unsigned w = 1; w < n_width; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard lk(mtx);
        stopping = true;
    }
    cv_work.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> fn;
        {
            std::unique_lock lk(mtx);
            cv_work.wait(lk,
                         [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            fn = std::move(queue.front());
            queue.pop_front();
        }
        n_queued.fetch_sub(1, std::memory_order_relaxed);
        n_inflight.fetch_add(1, std::memory_order_relaxed);
        in_pool_task = true;
        fn();
        in_pool_task = false;
        n_inflight.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
ThreadPool::helpWhilePending(Batch &batch)
{
    for (;;) {
        {
            std::lock_guard g(batch.mtx);
            if (batch.pending == 0)
                return;
        }
        std::function<void()> fn;
        {
            std::lock_guard lk(mtx);
            if (!queue.empty()) {
                fn = std::move(queue.front());
                queue.pop_front();
            }
        }
        if (fn) {
            n_queued.fetch_sub(1, std::memory_order_relaxed);
            n_inflight.fetch_add(1, std::memory_order_relaxed);
            in_pool_task = true;
            fn();
            in_pool_task = false;
            n_inflight.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        // Nothing left to steal; the stragglers are on workers.
        std::unique_lock g(batch.mtx);
        batch.done.wait(g, [&batch] { return batch.pending == 0; });
        return;
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    auto run = [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            body(i);
    };
    if (n_width <= 1 || in_pool_task || n <= 1) {
        run(0, n);
        return;
    }

    // Over-decompose (4 chunks per thread) so the caller and any
    // worker finishing early can steal the tail.
    std::size_t chunks =
        std::min(n, static_cast<std::size_t>(n_width) * 4);
    std::size_t chunk = (n + chunks - 1) / chunks;
    chunks = (n + chunk - 1) / chunk;

    Batch batch;
    batch.pending = chunks;
    {
        std::lock_guard lk(mtx);
        for (std::size_t c = 1; c < chunks; ++c) {
            std::size_t lo = c * chunk;
            std::size_t hi = std::min(n, lo + chunk);
            queue.push_back([&run, &batch, lo, hi] {
                run(lo, hi);
                // Notify while holding the lock: the caller destroys
                // the Batch the moment it can observe pending == 0,
                // so nothing may touch it after the unlock.
                std::lock_guard g(batch.mtx);
                --batch.pending;
                batch.done.notify_one();
            });
            n_queued.fetch_add(1, std::memory_order_relaxed);
        }
    }
    // Wake one worker per queued chunk: a 2-index call queues one
    // chunk, and waking every idle worker for it only makes the
    // losers re-check an empty queue and sleep again.
    std::size_t wake = std::min(chunks - 1, workers.size());
    for (std::size_t w = 0; w < wake; ++w)
        cv_work.notify_one();

    // The caller takes the first chunk, then helps with the rest.
    run(0, std::min(n, chunk));
    {
        std::lock_guard g(batch.mtx);
        --batch.pending;
    }
    helpWhilePending(batch);
}

namespace
{
std::unique_ptr<ThreadPool> global_pool;
std::mutex global_mtx;
} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard lk(global_mtx);
    if (!global_pool)
        global_pool = std::make_unique<ThreadPool>();
    return *global_pool;
}

void
ThreadPool::configureGlobal(unsigned width)
{
    std::lock_guard lk(global_mtx);
    global_pool.reset(); // join the old workers first
    global_pool = std::make_unique<ThreadPool>(width);
}

} // namespace psm::util
