#include "obs/span.hh"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/trace_context.hh"

namespace autofsm::obs
{

namespace
{

std::atomic<uint64_t> next_tracer_id{1};

thread_local Tracer *t_bound_tracer = nullptr;

/** SpanRecord::root of span @p id opening now under @p parent. */
uint64_t
rootOf(uint64_t id, uint64_t parent)
{
    const TraceContext *context = currentTraceContext();
    if (context != nullptr && context->rootSpan != 0)
        return context->rootSpan;
    return parent == 0 ? id : 0;
}

} // anonymous namespace

Tracer::Tracer()
    : id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now())
{
}

Tracer::~Tracer() = default;

Tracer::ThreadState &
Tracer::stateForThread() const
{
    thread_local std::unordered_map<uint64_t,
                                    std::unique_ptr<ThreadState>>
        state_of_thread;
    std::unique_ptr<ThreadState> &entry = state_of_thread[id_];
    if (!entry) {
        entry = std::make_unique<ThreadState>();
        entry->buffer = std::make_shared<Buffer>();
        std::lock_guard<std::mutex> lock(mutex_);
        entry->ordinal = static_cast<uint32_t>(buffers_.size());
        buffers_.push_back(entry->buffer);
    }
    return *entry;
}

double
Tracer::millisSinceEpoch() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

uint64_t
Tracer::currentSpan() const
{
    const ThreadState &state = stateForThread();
    return state.stack.empty() ? 0 : state.stack.back();
}

uint64_t
Tracer::openSpan(std::string_view name, uint64_t parent)
{
    if (!enabled())
        return 0;
    // Resolve this thread's state before taking mutex_: creating the
    // state on first use locks mutex_ itself.
    const ThreadState &state = stateForThread();
    OpenSpan span;
    span.name = std::string(name);
    span.parent = parent;
    span.start = std::chrono::steady_clock::now();
    span.startMillis = millisSinceEpoch();
    span.thread = state.ordinal;
    const uint64_t id =
        nextSpanId_.fetch_add(1, std::memory_order_relaxed);
    span.root = rootOf(id, parent);
    std::lock_guard<std::mutex> lock(mutex_);
    open_.emplace(id, std::move(span));
    return id;
}

void
Tracer::closeSpan(uint64_t id)
{
    if (id == 0)
        return;
    OpenSpan span;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = open_.find(id);
        if (it == open_.end())
            return;
        span = std::move(it->second);
        open_.erase(it);
    }
    SpanRecord record;
    record.id = id;
    record.parent = span.parent;
    record.name = std::move(span.name);
    record.startMillis = span.startMillis;
    record.durationMillis = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                span.start)
                                .count();
    record.thread = span.thread;
    record.root = span.root;
    ThreadState &state = stateForThread();
    std::lock_guard<std::mutex> lock(state.buffer->mutex);
    state.buffer->records.push_back(std::move(record));
}

std::vector<SpanRecord>
Tracer::snapshot() const
{
    std::vector<SpanRecord> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        out.insert(out.end(), buffer->records.begin(),
                   buffer->records.end());
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return out;
}

std::vector<SpanRecord>
Tracer::drain()
{
    std::vector<SpanRecord> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            if (out.empty()) {
                out = std::move(buffer->records);
            } else {
                out.insert(out.end(),
                           std::make_move_iterator(
                               buffer->records.begin()),
                           std::make_move_iterator(buffer->records.end()));
            }
            buffer->records.clear();
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return out;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        buffer->records.clear();
    }
}

SpanScope::SpanScope(Tracer *tracer, std::string_view name)
{
    start(tracer, name, 0, true);
}

SpanScope::SpanScope(Tracer *tracer, std::string_view name, uint64_t parent)
{
    start(tracer, name, parent, false);
}

void
SpanScope::start(Tracer *tracer, std::string_view name, uint64_t parent,
                 bool parent_from_stack)
{
    start_ = std::chrono::steady_clock::now();
#ifdef AUTOFSM_NO_TELEMETRY
    (void)tracer;
    (void)name;
    (void)parent;
    (void)parent_from_stack;
#else
    if (tracer == nullptr || !tracer->enabled())
        return;
    tracer_ = tracer;
    name_ = std::string(name);
    recording_ = true;
    Tracer::ThreadState &state = tracer->stateForThread();
    parent_ = parent_from_stack
        ? (state.stack.empty() ? 0 : state.stack.back())
        : parent;
    id_ = tracer->nextSpanId_.fetch_add(1, std::memory_order_relaxed);
    root_ = rootOf(id_, parent_);
    startMillis_ = tracer->millisSinceEpoch();
    state.stack.push_back(id_);
#endif
}

SpanScope::~SpanScope() { finishMillis(); }

double
SpanScope::finishMillis()
{
    if (finished_)
        return duration_;
    finished_ = true;
    duration_ = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    if (recording_) {
        Tracer::ThreadState &state = tracer_->stateForThread();
        // Pop this span; tolerate out-of-order destruction defensively.
        if (!state.stack.empty() && state.stack.back() == id_)
            state.stack.pop_back();
        SpanRecord record;
        record.id = id_;
        record.parent = parent_;
        record.name = name_;
        record.startMillis = startMillis_;
        record.durationMillis = duration_;
        record.thread = state.ordinal;
        record.root = root_;
        std::lock_guard<std::mutex> lock(state.buffer->mutex);
        state.buffer->records.push_back(std::move(record));
    }
    return duration_;
}

Tracer &
globalTracer()
{
    static Tracer tracer;
    return tracer;
}

Tracer *
currentTracer()
{
    return t_bound_tracer != nullptr ? t_bound_tracer : &globalTracer();
}

TracerBinding::TracerBinding(Tracer *tracer) : previous_(t_bound_tracer)
{
    t_bound_tracer = tracer;
}

TracerBinding::~TracerBinding()
{
    t_bound_tracer = previous_;
}

} // namespace autofsm::obs
