#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/export.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "store/store.hh"
#include "support/failpoint.hh"
#include "support/thread_pool.hh"
#include "workloads/trace_cache.hh"

namespace autofsm::serve
{

namespace
{

/** Outcome labels of the request-duration histograms, index-stable. */
constexpr const char *kOutcomeNames[] = {"ok", "degraded", "error",
                                         "rejected"};
constexpr size_t kOutcomeCount = 4;
constexpr size_t kClassCount = 3;

/** Index into kOutcomeNames for a finished response. */
size_t
outcomeIndex(const DesignResponse &response)
{
    if (!response.ok)
        return 2;
    return response.degraded ? 1 : 0;
}

/** Unlabeled serve instrumentation, registered once. */
struct ServeTelemetry
{
    obs::Gauge queueDepth;
    obs::Counter frameErrors;
    obs::Counter acceptFaults;
    obs::Counter droppedResponses;
    obs::Histogram dispatchBatch;
    /** SLO latency: admission-to-response seconds by class and outcome.
     *  Pre-registered so the hot path never hits the labeled-metric
     *  registration (which can throw on slot exhaustion). */
    obs::Histogram requestDuration[kClassCount][kOutcomeCount];
    /** The queue-wait vs. service-time split of the same wall clock. */
    obs::Histogram queueSeconds[kClassCount];
    obs::Histogram serviceSeconds[kClassCount];
};

ServeTelemetry &
serveTelemetry()
{
    static ServeTelemetry telemetry = [] {
        obs::MetricsRegistry &registry = obs::globalMetrics();
        ServeTelemetry t;
        t.queueDepth = registry.gauge(
            "autofsm_serve_queue_depth",
            "Admitted requests waiting for the dispatcher.");
        t.frameErrors = registry.counter(
            "autofsm_serve_frame_errors_total",
            "Connections dropped for malformed framing.");
        t.acceptFaults = registry.counter(
            "autofsm_serve_accept_faults_total",
            "Recovered faults in the accept loop (serve.accept).");
        t.droppedResponses = registry.counter(
            "autofsm_serve_dropped_responses_total",
            "Responses whose client had already disconnected.");
        t.dispatchBatch = registry.histogram(
            "autofsm_serve_dispatch_batch_size",
            "Requests coalesced into one BatchDesigner dispatch.",
            {1, 2, 4, 8, 16, 32, 64});
        for (size_t c = 0; c < kClassCount; ++c) {
            const char *klass =
                requestClassName(static_cast<RequestClass>(c));
            for (size_t o = 0; o < kOutcomeCount; ++o) {
                t.requestDuration[c][o] = registry.histogram(
                    "autofsm_serve_request_duration_seconds",
                    "Admission-to-response latency by class and outcome.",
                    obs::defaultLatencyBucketsSeconds(),
                    {{"class", klass}, {"outcome", kOutcomeNames[o]}});
            }
            t.queueSeconds[c] = registry.histogram(
                "autofsm_serve_request_queue_seconds",
                "Time from admission to the start of the batch task.",
                obs::defaultLatencyBucketsSeconds(),
                {{"class", klass}});
            t.serviceSeconds[c] = registry.histogram(
                "autofsm_serve_request_service_seconds",
                "Time from the start of the batch task to the response.",
                obs::defaultLatencyBucketsSeconds(),
                {{"class", klass}});
        }
        return t;
    }();
    return telemetry;
}

double
secondsSince(std::chrono::steady_clock::time_point start,
             std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/**
 * Bump autofsm_serve_requests_total{tenant,class,outcome}. Labeled
 * registration can throw (slot exhaustion under hostile tenant
 * cardinality); losing a counter tick must never take a request down
 * with it.
 */
void
countRequest(const std::string &tenant, RequestClass klass,
             const char *outcome)
{
    try {
        obs::globalMetrics()
            .counter("autofsm_serve_requests_total",
                     "Serve requests by tenant, class and outcome.",
                     {{"class", requestClassName(klass)},
                      {"outcome", outcome},
                      {"tenant", tenant}})
            .inc();
    } catch (const std::exception &) {
        // out of metric slots: drop the tick, keep serving
    }
}

std::shared_ptr<const PackedTrace>
resolveWorkloadTrace(const std::string &ref, uint64_t approxBranches)
{
    std::string name = ref;
    WorkloadInput input = WorkloadInput::Train;
    if (const size_t colon = ref.find(':'); colon != std::string::npos) {
        name = ref.substr(0, colon);
        const std::string which = ref.substr(colon + 1);
        if (which == "train") {
            input = WorkloadInput::Train;
        } else if (which == "test") {
            input = WorkloadInput::Test;
        } else {
            throw std::invalid_argument("traceRef '" + ref +
                                        "': input must be train or test");
        }
    }
    return cachedBranchTrace(name, input, static_cast<size_t>(approxBranches));
}

} // anonymous namespace

void
installWorkloadTraceResolver()
{
    setTraceRefResolver(&resolveWorkloadTrace);
}

AdmissionDecision
AdmissionController::admit(const DesignRequest &request, size_t queueDepth,
                           bool draining) const
{
    AdmissionDecision decision;
    decision.options = request.options;
    try {
        request.validate();
    } catch (const std::invalid_argument &e) {
        decision.reason = errorKindName(ErrorKind::InvalidInput);
        decision.detail = e.what();
        return decision;
    }
    if (draining) {
        // Retryable by taxonomy: another replica (or a later restart)
        // can serve what this instance is refusing.
        decision.reason = errorKindName(ErrorKind::BudgetExceeded);
        decision.detail = "draining: not accepting new requests";
        return decision;
    }
    if (queueDepth >= options_.maxQueueDepth) {
        decision.reason = errorKindName(ErrorKind::BudgetExceeded);
        decision.detail = "queue full (depth " +
            std::to_string(queueDepth) + " >= " +
            std::to_string(options_.maxQueueDepth) + ")";
        return decision;
    }
    if (options_.applyClassBudgets && request.options.budget.unlimited())
        decision.options.budget = budgetForClass(request.requestClass);
    decision.admitted = true;
    return decision;
}

/** One client connection; shared between its reader and the dispatcher. */
struct Server::Connection
{
    Socket socket;
    /** Serializes response frames (dispatcher vs metrics replies). */
    std::mutex writeMutex;
    std::thread reader;
};

Server::Server(ServeOptions options)
    : options_(options), admission_(options),
      slowRing_(options.slowRingCapacity)
{
}

Server::~Server()
{
    shutdown();
}

void
Server::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return;
    if (!options_.storeDir.empty()) {
        // Opening the store IS the recovery pass: stale temp files from
        // a killed writer are swept, every entry is CRC-validated and
        // corrupt ones are quarantined, before anything can read them.
        store::StoreOptions storeOptions;
        storeOptions.dir = options_.storeDir;
        storeOptions.maxBytes = options_.storeMaxBytes;
        store::setGlobalStore(
            std::make_shared<store::ArtifactStore>(storeOptions));
    }
    listener_ = listenOn(options_.port, &port_);
    // The private tracer is always armed: traced requests need spans on
    // demand and slow requests are only identified after the fact.
    tracer_.enable(true);
    draining_ = false;
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    dispatchThread_ = std::thread([this] { dispatchLoop(); });
}

void
Server::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_)
            return;
        started_ = false;
        draining_ = true;
    }
    dispatchWake_.notify_all();
    // Stop accepting first: shutdown unblocks the accept(2) call.
    listener_.shutdownBoth();
    if (acceptThread_.joinable())
        acceptThread_.join();
    // The dispatcher drains the queue — every admitted request is
    // answered — before it exits.
    if (dispatchThread_.joinable())
        dispatchThread_.join();
    // Now unblock and join the connection readers. Clients racing a
    // request in right now get a draining rejection, not silence.
    std::vector<std::shared_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connections.swap(connections_);
    }
    for (const auto &connection : connections)
        connection->socket.shutdownBoth();
    for (const auto &connection : connections) {
        if (connection->reader.joinable())
            connection->reader.join();
    }
    listener_.close();
    setQueueDepthGauge(0);
}

size_t
Server::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_;
}

void
Server::setQueueDepthGauge(size_t depth)
{
    serveTelemetry().queueDepth.set(static_cast<double>(depth));
}

void
Server::acceptLoop()
{
    for (;;) {
        try {
            AUTOFSM_FAILPOINT("serve.accept");
        } catch (const InjectedFault &e) {
            // Transient accept-path fault: count it and keep serving.
            serveTelemetry().acceptFaults.inc();
            obs::logWarn("serve.accept", "recovered accept-loop fault",
                         {{"detail", e.what()}});
            continue;
        }
        Socket socket = acceptConnection(listener_);
        if (!socket.valid())
            return; // listener shut down
        auto connection = std::make_shared<Connection>();
        connection->socket = std::move(socket);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (draining_) {
                // Raced shutdown: drop the socket; no admission happened.
                connection->socket.shutdownBoth();
                continue;
            }
            connections_.push_back(connection);
        }
        connection->reader = std::thread(
            [this, connection] { connectionLoop(connection); });
    }
}

void
Server::connectionLoop(std::shared_ptr<Connection> connection)
{
    FrameDecoder decoder(options_.maxPayloadBytes);
    std::string chunk;
    while (recvSome(connection->socket, chunk)) {
        try {
            decoder.feed(chunk);
            while (std::optional<Frame> frame = decoder.next())
                handleFrame(connection, std::move(*frame));
        } catch (const FrameError &e) {
            // Framing is unrecoverable per connection: report, drop the
            // connection, and the daemon keeps serving everyone else.
            serveTelemetry().frameErrors.inc();
            obs::logWarn("serve.frame",
                         "dropping connection on malformed frame",
                         {{"detail", e.what()}});
            try {
                std::lock_guard<std::mutex> lock(connection->writeMutex);
                sendAll(connection->socket,
                        encodeFrame(FrameType::Error, e.what()));
            } catch (const NetError &) {
            }
            break;
        }
    }
    connection->socket.shutdownBoth();
}

void
Server::handleFrame(const std::shared_ptr<Connection> &connection,
                    Frame frame)
{
    if (frame.type == FrameType::MetricsRequest) {
        const std::string text = obs::renderPrometheus();
        try {
            std::lock_guard<std::mutex> lock(connection->writeMutex);
            sendAll(connection->socket,
                    encodeFrame(FrameType::MetricsResponse, text));
        } catch (const NetError &) {
            serveTelemetry().droppedResponses.inc();
        }
        return;
    }
    if (frame.type == FrameType::DebugRequest) {
        const std::string text = obs::slowRequestsToJson(
            slowRing_.snapshot(), slowRing_.capacity(),
            slowRing_.dropped());
        try {
            std::lock_guard<std::mutex> lock(connection->writeMutex);
            sendAll(connection->socket,
                    encodeFrame(FrameType::DebugResponse, text));
        } catch (const NetError &) {
            serveTelemetry().droppedResponses.inc();
        }
        return;
    }
    if (frame.type != FrameType::DesignRequest) {
        try {
            std::lock_guard<std::mutex> lock(connection->writeMutex);
            sendAll(connection->socket,
                    encodeFrame(FrameType::Error,
                                std::string("unexpected frame type ") +
                                    frameTypeName(frame.type)));
        } catch (const NetError &) {
        }
        return;
    }

    const auto received = std::chrono::steady_clock::now();
    DesignRequest request;
    try {
        request = designRequestFromJson(frame.payload);
    } catch (const std::invalid_argument &e) {
        DesignResponse response;
        response.error = {"serve.parse",
                          errorKindName(ErrorKind::InvalidInput), e.what()};
        // Count before sending: a synchronous client that scrapes
        // metrics right after its response must see its own tick.
        countRequest(request.tenant, request.requestClass, "rejected");
        observeRejected(request.requestClass, received);
        sendResponse(connection, request, response);
        return;
    }

    AdmissionDecision decision;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        decision = admission_.admit(request, queued_, draining_);
        if (decision.admitted) {
            QueuedRequest item;
            item.request = request;
            item.request.options = decision.options;
            item.connection = connection;
            item.admitted = received;
            // Mint the request's observability identity. Untraced
            // requests are sampled too while the slow ring is armed: a
            // slow request is only identified after it finished, so its
            // spans must already exist by then.
            obs::TraceContext &context = item.request.obsContext;
            context.requestId = request.id;
            context.tenant = request.tenant;
            context.requestClass = requestClassName(request.requestClass);
            context.sampled = item.request.trace ||
                (options_.slowRingCapacity > 0 && tracer_.enabled());
            if (context.sampled)
                context.rootSpan = tracer_.openSpan("serve.request");
            queues_[static_cast<size_t>(request.requestClass)].push_back(
                std::move(item));
            ++queued_;
            setQueueDepthGauge(queued_);
        }
    }
    if (decision.admitted) {
        dispatchWake_.notify_one();
        return;
    }
    DesignResponse response;
    response.id = request.id;
    response.error = {"serve.admit", decision.reason, decision.detail};
    countRequest(request.tenant, request.requestClass, "rejected");
    observeRejected(request.requestClass, received);
    sendResponse(connection, request, response);
}

void
Server::observeRejected(RequestClass klass,
                        std::chrono::steady_clock::time_point received)
{
    serveTelemetry()
        .requestDuration[static_cast<size_t>(klass)][3]
        .observe(secondsSince(received, std::chrono::steady_clock::now()));
}

void
Server::dispatchLoop()
{
    const size_t max_in_flight =
        options_.workers ? options_.workers : sharedPool().threadCount();
    for (;;) {
        std::vector<QueuedRequest> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            dispatchWake_.wait(lock, [&] {
                return (queued_ > 0 && inFlight_ < max_in_flight) ||
                    (draining_ && queued_ == 0 && inFlight_ == 0);
            });
            if (queued_ == 0)
                return; // drained: every admitted request answered
            // Strict priority: interactive first, then batch, then bulk.
            for (auto &queue : queues_) {
                while (!queue.empty() &&
                       batch.size() < options_.maxDispatchBatch) {
                    batch.push_back(std::move(queue.front()));
                    queue.pop_front();
                    --queued_;
                }
                if (batch.size() >= options_.maxDispatchBatch)
                    break;
            }
            setQueueDepthGauge(queued_);
            ++inFlight_;
        }
        serveTelemetry().dispatchBatch.observe(
            static_cast<double>(batch.size()));
        {
            // Registered before the task exists, so another batch's
            // drain keeps these requests' spans instead of dropping them.
            std::lock_guard<std::mutex> lock(spansMutex_);
            for (const QueuedRequest &item : batch) {
                if (item.request.obsContext.rootSpan != 0)
                    spansByRoot_[item.request.obsContext.rootSpan];
            }
        }
        sharedPool().submit([this, batch = std::move(batch)]() mutable {
            try {
                runBatch(std::move(batch));
            } catch (const std::exception &e) {
                // The in-flight count must still drop, or the drain
                // never ends.
                obs::logError("serve.dispatch", "batch task failed",
                              {{"detail", e.what()}});
            }
            // Notify under the lock: once the dispatcher can see the
            // count drop, shutdown may destroy this Server. A freed slot
            // matters only with work queued or a drain waiting.
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (queued_ > 0 || draining_)
                dispatchWake_.notify_one();
        });
    }
}

void
Server::runBatch(std::vector<QueuedRequest> batch)
{
    const auto dispatch_start = std::chrono::steady_clock::now();

    // Per-job dispatch failpoint: an injected fault fails that job
    // with a structured (retryable) error instead of losing it.
    // Failed items keep their response slot so the span/metrics
    // accounting below covers them uniformly.
    std::vector<DesignResponse> responses(batch.size());
    std::vector<size_t> live;
    std::vector<DesignRequest> requests;
    live.reserve(batch.size());
    requests.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        try {
            AUTOFSM_FAILPOINT("serve.dispatch");
        } catch (const InjectedFault &e) {
            responses[i].id = batch[i].request.id;
            responses[i].error = {"serve.dispatch",
                                  errorKindName(ErrorKind::Injected),
                                  e.what()};
            continue;
        }
        live.push_back(i);
        requests.push_back(batch[i].request);
    }

    if (!requests.empty()) {
        BatchOptions batchOptions;
        batchOptions.retry = options_.retry;
        batchOptions.threads = options_.workers;
        BatchDesigner designer({}, batchOptions);
        // Bind the daemon's tracer so the batch engine (and the design
        // flows it fans across the pool) records here.
        obs::TracerBinding bind(&tracer_);
        try {
            const std::vector<BatchItemResult> results =
                designer.designRequests(requests);
            for (size_t r = 0; r < results.size(); ++r) {
                responses[live[r]] = designResponseFromItem(
                    batch[live[r]].request, results[r]);
            }
        } catch (const std::exception &e) {
            // designRequests isolates item failures, but a fault in its
            // pool fan-out (the pool.task failpoint) fails the whole
            // batch, whose requests must still be answered.
            const ErrorKind kind =
                dynamic_cast<const InjectedFault *>(&e) != nullptr
                ? ErrorKind::Injected
                : ErrorKind::Internal;
            for (const size_t i : live) {
                responses[i] = DesignResponse();
                responses[i].id = batch[i].request.id;
                responses[i].error = {"serve.dispatch", errorKindName(kind),
                                      e.what()};
            }
        }
    }

    const std::vector<std::vector<obs::SpanRecord>> spans =
        takeRequestSpans(batch);

    const auto finish = std::chrono::steady_clock::now();
    ServeTelemetry &telemetry = serveTelemetry();
    for (size_t i = 0; i < batch.size(); ++i) {
        const QueuedRequest &item = batch[i];
        DesignResponse &response = responses[i];
        const size_t klass = static_cast<size_t>(item.request.requestClass);
        const double queue_s = secondsSince(item.admitted, dispatch_start);
        const double total_s = secondsSince(item.admitted, finish);
        telemetry.queueSeconds[klass].observe(queue_s);
        telemetry.serviceSeconds[klass].observe(total_s - queue_s);
        telemetry.requestDuration[klass][outcomeIndex(response)].observe(
            total_s);

        if (item.request.trace)
            response.trace = spans[i];

        const double deadline = item.request.options.budget.deadlineMillis;
        const double total_ms = total_s * 1000.0;
        if (deadline > 0.0 &&
            total_ms >= options_.slowRequestFraction * deadline) {
            obs::SlowRequestCapture capture;
            capture.requestId = item.request.id;
            capture.tenant = item.request.tenant;
            capture.requestClass =
                requestClassName(item.request.requestClass);
            capture.outcome = kOutcomeNames[outcomeIndex(response)];
            capture.totalMillis = total_ms;
            capture.queueMillis = queue_s * 1000.0;
            capture.deadlineMillis = deadline;
            capture.degraded = response.degraded;
            capture.fallbacks = response.fallbacks;
            capture.errorStage = response.error.stage;
            capture.errorKind = response.error.kind;
            capture.errorDetail = response.error.detail;
            capture.spans = spans[i];
            slowRing_.add(std::move(capture));
            obs::logWarn(
                "serve.slow", "request blew its deadline fraction",
                {{"requestId", item.request.id},
                 {"tenant", item.request.tenant},
                 {"class", requestClassName(item.request.requestClass)},
                 {"totalMillis", total_ms},
                 {"deadlineMillis", deadline},
                 {"outcome", kOutcomeNames[outcomeIndex(response)]}});
        }

        noteOutcome(item.request, response);
        sendResponse(item.connection, item.request, response);
    }
}

std::vector<std::vector<obs::SpanRecord>>
Server::takeRequestSpans(const std::vector<QueuedRequest> &batch)
{
    for (const QueuedRequest &item : batch)
        tracer_.closeSpan(item.request.obsContext.rootSpan);
    std::vector<std::vector<obs::SpanRecord>> taken(batch.size());
    {
        // Drain and file under one lock: a span another batch drained
        // is filed under its root before that root's own batch takes it.
        std::lock_guard<std::mutex> lock(spansMutex_);
        for (obs::SpanRecord &span : tracer_.drain()) {
            // Spans of no dispatched request (the shared batch
            // bookkeeping, unsampled strays) are dropped here.
            const auto it = spansByRoot_.find(span.root);
            if (it != spansByRoot_.end())
                it->second.push_back(std::move(span));
        }
        for (size_t i = 0; i < batch.size(); ++i) {
            const auto it =
                spansByRoot_.find(batch[i].request.obsContext.rootSpan);
            if (it == spansByRoot_.end())
                continue;
            taken[i] = std::move(it->second);
            spansByRoot_.erase(it);
        }
    }
    // Filed in drain order; a parent finishes, and drains, after its
    // children.
    for (std::vector<obs::SpanRecord> &spans : taken) {
        std::sort(spans.begin(), spans.end(),
                  [](const obs::SpanRecord &a, const obs::SpanRecord &b) {
                      return a.id < b.id;
                  });
    }
    return taken;
}

void
Server::sendResponse(const std::shared_ptr<Connection> &connection,
                     const DesignRequest &request,
                     const DesignResponse &response)
{
    try {
        std::lock_guard<std::mutex> lock(connection->writeMutex);
        sendAll(connection->socket,
                encodeFrame(FrameType::DesignResponse, toJson(response)));
    } catch (const NetError &e) {
        serveTelemetry().droppedResponses.inc();
        obs::logWarn("serve.send",
                     "dropping response for a gone client",
                     {{"requestId", request.id},
                      {"tenant", request.tenant},
                      {"detail", e.what()}});
    }
}

void
Server::noteOutcome(const DesignRequest &request,
                    const DesignResponse &response)
{
    const char *outcome = !response.ok ? "error"
        : response.degraded          ? "degraded"
                                     : "ok";
    countRequest(request.tenant, request.requestClass, outcome);
}

} // namespace autofsm::serve
