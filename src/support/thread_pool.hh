/**
 * @file
 * A small fixed-size thread pool, the one process-wide instance of it
 * (sharedPool), and a blocking parallel-for built on that instance.
 *
 * Every parallel fan-out in the library (batch design, bit-sliced
 * replay, the Figure 5 sweep points, runFigure4 and runFigure5All)
 * goes through parallelFor, so a process starts its workers once and
 * then reuses them however many passes it runs. Tasks are coarse, so the
 * implementation favors simplicity over lock-free cleverness: one
 * mutex-protected queue, dynamic index claiming for load balance, and
 * deterministic exception reporting (the lowest-index failure wins,
 * independent of thread scheduling).
 */

#ifndef AUTOFSM_SUPPORT_THREAD_POOL_HH
#define AUTOFSM_SUPPORT_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "support/failpoint.hh"

namespace autofsm
{

class ThreadPool;

inline ThreadPool &sharedPool();

/**
 * Fixed-size worker pool; jobs are arbitrary void() callables.
 *
 * Jobs are expected to handle their own exceptions (parallelFor's do;
 * see its lowest-index-wins contract). A job that *does* throw is
 * contained rather than terminating the process: the worker swallows
 * the exception, counts it in `autofsm_pool_task_exceptions_total`, and
 * keeps serving the queue. The error itself is lost, which is why
 * higher layers must not rely on this backstop.
 */
class ThreadPool
{
  public:
    /** Hardware concurrency with a floor of 1 (it may report 0). */
    static unsigned
    defaultThreadCount()
    {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }

    /** @param threads Worker count; 0 means defaultThreadCount(). */
    explicit ThreadPool(unsigned threads = 0)
    {
        const unsigned count = threads ? threads : defaultThreadCount();
        workers_.reserve(count);
        for (unsigned i = 0; i < count; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto &worker : workers_)
            worker.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue @p job; it runs on some worker, in FIFO order. */
    void
    submit(std::function<void()> job)
    {
        Job entry;
        entry.fn = std::move(job);
#ifndef AUTOFSM_NO_TELEMETRY
        if (obs::globalMetrics().enabled())
            entry.enqueued = std::chrono::steady_clock::now();
#endif
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(entry));
        }
        wake_.notify_one();
    }

  private:
    friend ThreadPool &sharedPool();

    static void
    publishSharedThreadCount(unsigned count)
    {
        poolMetrics().threads.set(static_cast<double>(count));
    }

    struct Job
    {
        std::function<void()> fn;
        /** Submit time; drives the queue-wait histogram. */
        std::chrono::steady_clock::time_point enqueued{};
    };

    /**
     * Pool-wide telemetry. Task wait/run are histograms, so utilization
     * over a window is run-sum / (threads gauge x wall-clock).
     */
    struct PoolMetrics
    {
        obs::Gauge threads;
        obs::Counter tasks;
        obs::Counter taskExceptions;
        obs::Histogram wait;
        obs::Histogram run;
    };

    static PoolMetrics &
    poolMetrics()
    {
        // Never destroyed: shared-pool workers may still be recording a
        // finished job while the process runs its static destructors.
        static PoolMetrics *const metrics = [] {
            obs::MetricsRegistry &registry = obs::globalMetrics();
            auto *m = new PoolMetrics;
            m->threads = registry.gauge(
                "autofsm_pool_threads",
                "Worker count of the shared pool.");
            m->tasks = registry.counter(
                "autofsm_pool_tasks_total",
                "Jobs executed by thread-pool workers.");
            m->taskExceptions = registry.counter(
                "autofsm_pool_task_exceptions_total",
                "Jobs that threw out of the worker (contract breach; "
                "the exception is swallowed).");
            m->wait = registry.histogram(
                "autofsm_pool_task_wait_millis",
                "Queue wait between submit and dequeue.",
                obs::defaultLatencyBucketsMillis());
            m->run = registry.histogram(
                "autofsm_pool_task_run_millis",
                "Job execution time on a worker.",
                obs::defaultLatencyBucketsMillis());
            return m;
        }();
        return *metrics;
    }

    /** Run a job, containing (and counting) any escaped exception. */
    static void
    runContained(Job &job)
    {
        try {
            job.fn();
        } catch (...) {
            poolMetrics().taskExceptions.inc();
        }
    }

    void
    workerLoop()
    {
        for (;;) {
            Job job;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty())
                    return; // stopping and drained
                job = std::move(queue_.front());
                queue_.pop_front();
            }
#ifndef AUTOFSM_NO_TELEMETRY
            // Only jobs stamped at submit (registry enabled then) report;
            // a zero stamp means telemetry was off when they were queued.
            if (obs::globalMetrics().enabled() &&
                job.enqueued.time_since_epoch().count() != 0) {
                const auto start = std::chrono::steady_clock::now();
                poolMetrics().wait.observe(
                    std::chrono::duration<double, std::milli>(
                        start - job.enqueued)
                        .count());
                runContained(job);
                poolMetrics().run.observe(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
                poolMetrics().tasks.inc();
                continue;
            }
#endif
            runContained(job);
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<Job> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * The process-wide worker pool every parallel fan-out runs on, started
 * on first use with defaultThreadCount() workers and never torn down
 * (idle workers cost nothing, and a pool destroyed during static
 * destruction could outlive statics its jobs touch).
 */
inline ThreadPool &
sharedPool()
{
    static ThreadPool *const pool = [] {
        auto *created = new ThreadPool(ThreadPool::defaultThreadCount());
        ThreadPool::publishSharedThreadCount(created->threadCount());
        return created;
    }();
    return *pool;
}

/**
 * Run fn(0) ... fn(count-1) on the shared pool and block until all are
 * done.
 *
 * The calling thread claims indices alongside up to `threads - 1` pool
 * helpers, so a nested call from inside a pool job always makes
 * progress on its own even when every worker is busy: waiting is only
 * ever for indices some running thread has already claimed. Indices are
 * claimed dynamically, so uneven per-item cost balances across
 * participants. Callers must make fn(i) touch only per-index state (or
 * synchronize themselves). Every index runs even if an earlier one
 * threw; afterwards the exception of the *lowest* failing index is
 * rethrown, deterministic regardless of interleaving.
 *
 * @param threads Cap on the threads running bodies of this call, the
 *        caller included; 0 means defaultThreadCount(). With one thread
 *        (or at most one item) the calls run inline, in order.
 */
template <typename Fn>
void
parallelFor(size_t count, const Fn &fn, unsigned threads = 0)
{
    const unsigned cap =
        threads ? threads : ThreadPool::defaultThreadCount();
    if (cap <= 1 || count <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Jointly owned by the caller and every queued helper: a helper that
    // dequeues after this call returned finds no index left and touches
    // neither `fn` (only dereferenced after claiming a live index, which
    // keeps the caller waiting) nor freed memory.
    struct Shared
    {
        Shared(size_t count, const Fn &fn) : count(count), fn(&fn) {}

        /** Claim and run indices until none are left. */
        void
        drain()
        {
            size_t i;
            while ((i = next.fetch_add(1)) < count) {
                std::exception_ptr failure;
                try {
                    AUTOFSM_FAILPOINT("pool.task");
                    (*fn)(i);
                } catch (...) {
                    failure = std::current_exception();
                }
                std::lock_guard<std::mutex> lock(mutex);
                if (failure && (!error || i < firstBadIndex)) {
                    error = std::move(failure);
                    firstBadIndex = i;
                }
                if (++finished == count)
                    done.notify_all();
            }
        }

        const size_t count;
        const Fn *const fn;
        std::atomic<size_t> next{0};
        std::mutex mutex;
        std::condition_variable done;
        /** Indices run to completion; guarded by mutex. */
        size_t finished = 0;
        size_t firstBadIndex = 0;
        std::exception_ptr error;
    };

    ThreadPool &pool = sharedPool();
    auto shared = std::make_shared<Shared>(count, fn);
    const size_t helpers = std::min<size_t>(
        {size_t{cap} - 1, count - 1, size_t{pool.threadCount()}});
    for (size_t h = 0; h < helpers; ++h)
        pool.submit([shared] { shared->drain(); });

    shared->drain();
    std::unique_lock<std::mutex> lock(shared->mutex);
    shared->done.wait(lock,
                      [&shared, count] { return shared->finished == count; });
    // Move the error out: a late helper may drop the last reference to
    // `shared`, and the exception must not be freed from that thread.
    if (std::exception_ptr error = std::exchange(shared->error, nullptr))
        std::rethrow_exception(error);
}

} // namespace autofsm

#endif // AUTOFSM_SUPPORT_THREAD_POOL_HH
