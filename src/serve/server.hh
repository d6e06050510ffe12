/**
 * @file
 * The autofsm-serve daemon: design-as-a-service over framed TCP.
 *
 * Architecture (one process, all in-library so tests can drive it):
 *
 *     accept thread ──▶ connection threads (one per client)
 *                             │  decode frames, admission control
 *                             ▼
 *                 bounded per-class queues (interactive ▶ batch ▶ bulk)
 *                             │
 *                             ▼
 *          dispatcher thread ──▶ up to `workers` batch tasks in flight
 *                             │   on the shared pool, each a
 *                             │   BatchDesigner call fanning its items
 *                             │   over the same pool
 *                             ▼
 *               response frames (per-connection write mutex)
 *
 * Admission maps a request's class onto a FlowBudget (budgetForClass)
 * unless the request carries its own finite budget, and rejects — with
 * a structured DesignResponse, not a dropped connection — when the
 * queue is at maxQueueDepth or the server is draining. The dispatcher
 * pops interactive work first, coalesces up to maxDispatchBatch queued
 * jobs into one batch, and submits it as one pool task, then goes back
 * to popping while fewer than `workers` batches are in flight. So a
 * request waits only for its own batch, never for the slowest item of
 * a batch it is not in. Each task designs its batch, partitions the
 * daemon's spans per request, records the latency histograms and the
 * slow-request ring, and sends the responses.
 *
 * Shutdown is a drain: new admissions are refused immediately, and the
 * dispatcher returns only once the queues are empty and no batch is in
 * flight, so every admitted request still gets its response before the
 * connections close.
 */

#ifndef AUTOFSM_SERVE_SERVER_HH
#define AUTOFSM_SERVE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "flow/api.hh"
#include "flow/batch.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "serve/frame.hh"
#include "serve/net.hh"

namespace autofsm::serve
{

/** Daemon knobs. */
struct ServeOptions
{
    /** TCP port on 127.0.0.1; 0 picks a free one (see Server::port). */
    uint16_t port = 0;
    /** Batches in flight, each fanning its items over the same shared
     *  pool (its BatchOptions::threads cap); 0 means the shared pool's
     *  thread count. */
    unsigned workers = 0;
    /** Admission bound: queued-but-undispatched requests across classes. */
    size_t maxQueueDepth = 256;
    /** Frame payload cap handed to every connection's decoder. */
    uint32_t maxPayloadBytes = kDefaultMaxPayloadBytes;
    /** Max requests coalesced into one BatchDesigner dispatch. */
    size_t maxDispatchBatch = 16;
    /** Per-request retry policy of the dispatcher's BatchDesigner. */
    RetryPolicy retry;
    /**
     * Map request classes onto budgets at admission (budgetForClass). A
     * request carrying its own finite budget always keeps it; disabling
     * this serves every unlimited request unlimited — the test path for
     * comparing daemon artifacts against the direct library path.
     */
    bool applyClassBudgets = true;
    /**
     * A request is "slow" — captured into the debug ring with its full
     * span tree — when its admission-to-response wall clock reaches this
     * fraction of its effective deadline. Requests with no deadline are
     * never slow.
     */
    double slowRequestFraction = 0.75;
    /**
     * Retained slow-request captures (obs::SlowRequestRing), scrapable
     * over the DebugRequest frame. 0 disables the ring — and with it the
     * always-on sampling of untraced requests.
     */
    size_t slowRingCapacity = 32;
    /**
     * Persistent artifact/trace store directory (--store-dir); empty
     * disables the disk tier. start() opens it — which runs the
     * crash-recovery pass: stale temps swept, every entry validated,
     * corrupt ones quarantined — and installs it process-wide
     * (store::setGlobalStore), so the design memo and trace cache read
     * and write through it. Warm-start effectiveness is scrapable as
     * autofsm_store_warm_hits_total in /metrics.
     */
    std::string storeDir;
    /** Store payload cap in bytes (LRU-evicted past it); 0 = unlimited. */
    uint64_t storeMaxBytes = 0;
};

/**
 * The outcome of admission control for one request: either admitted,
 * with the effective (possibly class-budgeted) options the design will
 * run under, or refused with a machine-readable reason.
 */
struct AdmissionDecision
{
    bool admitted = false;
    /** errorKindName-style reason when refused ("budget-exceeded"). */
    std::string reason;
    /** Human detail when refused ("queue full", "draining"). */
    std::string detail;
    /** The options the request will actually run under when admitted. */
    FsmDesignOptions options;
};

/** The class → budget mapping plus the queue/drain refusals. */
class AdmissionController
{
  public:
    explicit AdmissionController(const ServeOptions &options)
        : options_(options)
    {
    }

    /**
     * Decide for @p request given the current @p queueDepth and whether
     * the server is @p draining. Pure: no state is touched, so the unit
     * test drives it without a socket in sight.
     */
    AdmissionDecision admit(const DesignRequest &request, size_t queueDepth,
                            bool draining) const;

  private:
    ServeOptions options_;
};

/**
 * The daemon proper. `start()` binds and spins up the accept,
 * connection and dispatcher threads; `shutdown()` drains and joins.
 * Both are idempotent. The destructor shuts down.
 */
class Server
{
  public:
    explicit Server(ServeOptions options = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind 127.0.0.1 and start serving. @throws NetError on bind. */
    void start();

    /** The bound port (useful with options.port = 0). */
    uint16_t port() const { return port_; }

    /**
     * Drain and stop: refuse new admissions, answer everything already
     * admitted, then close every connection and join every thread.
     */
    void shutdown();

    /** Queued-but-undispatched requests right now (for tests/metrics). */
    size_t queueDepth() const;

  private:
    struct Connection;

    /** One admitted request waiting for the dispatcher. */
    struct QueuedRequest
    {
        /** The request, options already mapped by admission; carries the
         *  TraceContext minted at admission in request.obsContext. */
        DesignRequest request;
        std::shared_ptr<Connection> connection;
        /** Admission time (queue-wait and total-duration baseline). */
        std::chrono::steady_clock::time_point admitted;
    };

    /** Design one popped batch and answer it (runs as a pool task). */
    void runBatch(std::vector<QueuedRequest> batch);
    /**
     * Consume the daemon tracer's finished spans and return, per item
     * of @p batch, its request's span tree (empty when unsampled).
     */
    std::vector<std::vector<obs::SpanRecord>>
    takeRequestSpans(const std::vector<QueuedRequest> &batch);

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> connection);
    void dispatchLoop();
    void handleFrame(const std::shared_ptr<Connection> &connection,
                     Frame frame);
    void sendResponse(const std::shared_ptr<Connection> &connection,
                      const DesignRequest &request,
                      const DesignResponse &response);
    void noteOutcome(const DesignRequest &request,
                     const DesignResponse &response);
    void observeRejected(RequestClass klass,
                         std::chrono::steady_clock::time_point received);
    void setQueueDepthGauge(size_t depth);

    ServeOptions options_;
    AdmissionController admission_;
    /** The daemon's private tracer: request spans land here (not in
     *  globalTracer()) so the dispatcher can drain them destructively. */
    obs::Tracer tracer_;
    obs::SlowRequestRing slowRing_;
    uint16_t port_ = 0;

    Socket listener_;
    std::thread acceptThread_;
    std::thread dispatchThread_;

    /** Guards spansByRoot_; drain and partition happen under it. */
    std::mutex spansMutex_;
    /**
     * Spans of dispatched sampled requests, keyed by root span, kept
     * until the request's own batch takes them: a batch's drain also
     * picks up the finished spans of other requests still in flight.
     */
    std::unordered_map<uint64_t, std::vector<obs::SpanRecord>> spansByRoot_;

    mutable std::mutex mutex_;
    /** Wakes the dispatcher: work queued, a batch done, or draining. */
    std::condition_variable dispatchWake_;
    /** One deque per RequestClass, indexed by its enum value. */
    std::deque<QueuedRequest> queues_[3];
    size_t queued_ = 0;
    /** Batches submitted to the pool and not yet answered. */
    size_t inFlight_ = 0;
    bool draining_ = false;
    bool started_ = false;
    std::vector<std::shared_ptr<Connection>> connections_;
};

/**
 * Install the synthetic branch-workload resolver as the process's
 * TraceRefResolver: "compress" (or "compress:train" / "compress:test")
 * resolves to that benchmark's trace in the workloads trace cache, shared
 * as is. Called by the daemon and bench mains; the flow library itself
 * stays independent of the workloads layer.
 */
void installWorkloadTraceResolver();

} // namespace autofsm::serve

#endif // AUTOFSM_SERVE_SERVER_HH
