/**
 * @file
 * Hierarchical scoped spans.
 *
 * A `Tracer` hands out stable, monotonically increasing span ids and
 * collects finished spans into per-thread buffers that `snapshot()`
 * merges and sorts. `SpanScope` is the RAII front end: it always *times*
 * its region (callers like `DesignFlow` build their `FlowTrace` from the
 * measured durations, so timing must survive a disabled tracer), but it
 * only *records* a span when the tracer was enabled at construction.
 *
 * Parentage defaults to the innermost open span on the current thread;
 * work fanned out across a pool passes the parent id explicitly so the
 * span tree stays connected across threads. Spans whose lifetime does
 * not nest in one scope (a serve request that is admitted on one thread
 * and answered from another) use the manual `openSpan`/`closeSpan`
 * pair.
 *
 * Consumers that poll (the serve daemon's slow-request ring) use
 * `drain()`, which consumes everything recorded since the previous
 * drain instead of rescanning the full history like `snapshot()`.
 * Each record carries the request root it belongs to (`SpanRecord::
 * root`), so a drain that catches a request half-finished can still
 * attribute its spans without their parents.
 *
 * Instrumentation sites reach their tracer through `currentTracer()`:
 * the process-wide `globalTracer()` unless a `TracerBinding` installed a
 * thread-local override (how the daemon routes the design flow's spans
 * into its private tracer).
 *
 * With `-DAUTOFSM_NO_TELEMETRY` the tracer machinery compiles out and a
 * SpanScope degrades to a plain steady_clock stopwatch.
 */

#ifndef AUTOFSM_OBS_SPAN_HH
#define AUTOFSM_OBS_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace autofsm::obs
{

/** One finished span. Ids are 1-based in start order; parent 0 = root. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    /** Start offset from the tracer's epoch, milliseconds. */
    double startMillis = 0.0;
    double durationMillis = 0.0;
    /** Ordinal of the recording thread within this tracer (0-based). */
    uint32_t thread = 0;
    /**
     * The request this span belongs to, fixed when the span opens: the
     * root span of the TraceContext bound on the opening thread, else
     * the span's own id when it opens a tree (parent 0), else 0. How
     * the serve daemon partitions one tracer among concurrent requests.
     * In-process only; the wire format does not carry it.
     */
    uint64_t root = 0;
};

class SpanScope;

/** Collects spans; one global instance (globalTracer()), tests may own
 *  private ones. Disabled by default so long runs don't grow buffers. */
class Tracer
{
  public:
    Tracer();
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    bool
    enabled() const
    {
#ifdef AUTOFSM_NO_TELEMETRY
        return false;
#else
        return enabled_.load(std::memory_order_relaxed);
#endif
    }

    /** Innermost open span on the calling thread (0 when none). */
    uint64_t currentSpan() const;

    /**
     * Open a span whose close happens on another thread or in another
     * scope (a request's lifetime span). Returns the span id, or 0 when
     * the tracer is disabled. The span does not join the calling
     * thread's stack; children name it as their explicit parent.
     */
    uint64_t openSpan(std::string_view name, uint64_t parent = 0);

    /** Close a span from openSpan; records it. No-op for id 0/unknown. */
    void closeSpan(uint64_t id);

    /** Every finished span so far, merged across threads, sorted by id. */
    std::vector<SpanRecord> snapshot() const;

    /**
     * Consume-since-last-drain: move every span recorded since the
     * previous drain() out of the per-thread buffers, sorted by id.
     * Unlike snapshot() this never rescans history, so periodic
     * consumers stay O(new spans) per call. Spans returned here no
     * longer appear in snapshot().
     */
    std::vector<SpanRecord> drain();

    /** Drop all recorded spans (open SpanScopes still record on finish). */
    void clear();

  private:
    friend class SpanScope;

    struct Buffer
    {
        std::mutex mutex;
        std::vector<SpanRecord> records;
    };

    struct ThreadState
    {
        std::vector<uint64_t> stack;
        std::shared_ptr<Buffer> buffer;
        /** This thread's ordinal within the tracer (buffer index). */
        uint32_t ordinal = 0;
    };

    /** A manually opened, not yet closed span (openSpan/closeSpan). */
    struct OpenSpan
    {
        std::string name;
        uint64_t parent = 0;
        double startMillis = 0.0;
        std::chrono::steady_clock::time_point start;
        uint32_t thread = 0;
        uint64_t root = 0;
    };

    /** This thread's stack+buffer for this tracer (created on demand). */
    ThreadState &stateForThread() const;

    double millisSinceEpoch() const;

    std::atomic<bool> enabled_{false};
    const uint64_t id_;
    std::atomic<uint64_t> nextSpanId_{1};
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    mutable std::vector<std::shared_ptr<Buffer>> buffers_;
    std::unordered_map<uint64_t, OpenSpan> open_;
};

/** RAII timed region; records into @p tracer if enabled (may be null). */
class SpanScope
{
  public:
    /** Child of the innermost open span on this thread. */
    SpanScope(Tracer *tracer, std::string_view name);

    /** Child of an explicit @p parent id (cross-thread fan-out). */
    SpanScope(Tracer *tracer, std::string_view name, uint64_t parent);

    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /**
     * Stop the clock, record the span (if tracing), and return the
     * elapsed milliseconds. Idempotent; the destructor calls it too.
     */
    double finishMillis();

    /** This span's id (0 when the tracer was disabled or null). */
    uint64_t id() const { return id_; }

  private:
    void start(Tracer *tracer, std::string_view name, uint64_t parent,
               bool parent_from_stack);

    Tracer *tracer_ = nullptr;
    std::string name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t root_ = 0;
    std::chrono::steady_clock::time_point start_;
    double startMillis_ = 0.0;
    bool recording_ = false;
    bool finished_ = false;
    double duration_ = 0.0;
};

/** The process-wide tracer (disabled until a bench/test enables it). */
Tracer &globalTracer();

/**
 * The tracer instrumentation sites should record into: the thread's
 * `TracerBinding` override when one is active, otherwise
 * `globalTracer()`. Never null.
 */
Tracer *currentTracer();

/**
 * Thread-local tracer override, RAII. The serve dispatcher binds its
 * private tracer before running a batch; worker threads re-bind inside
 * the fanned-out item so the flow's spans land in the same tracer
 * regardless of which pool thread runs them.
 */
class TracerBinding
{
  public:
    explicit TracerBinding(Tracer *tracer);
    ~TracerBinding();

    TracerBinding(const TracerBinding &) = delete;
    TracerBinding &operator=(const TracerBinding &) = delete;

  private:
    Tracer *previous_ = nullptr;
};

} // namespace autofsm::obs

#endif // AUTOFSM_OBS_SPAN_HH
