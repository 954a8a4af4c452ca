#include "serve/inference_engine.hpp"

#include <stdexcept>
#include <string>

#include "nn/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/time_utils.hpp"

namespace mirage::serve {

/// Process-wide backpressure counter (also surfaced per-engine via
/// EngineStats::rejected); registered once, bumped lock-free.
obs::Counter& engine_rejected_counter() {
  static obs::Counter* c = obs::registry().counter(
      "mirage_serve_engine_rejected_total",
      "engine submissions rejected by bounded-queue backpressure");
  return *c;
}

obs::Counter& engine_served_counter() {
  static obs::Counter* c = obs::registry().counter(
      "mirage_serve_engine_served_total",
      "decisions successfully served by the batched engine");
  return *c;
}

obs::Histogram& decision_latency_histogram() {
  static obs::Histogram* h = obs::registry().histogram(
      "mirage_serve_decision_latency_seconds",
      "enqueue-to-served decision latency (buckets carry request-id exemplars)");
  return *h;
}

namespace {
/// Journey breadcrumb: request `id` landed in engine ring slot `slot`.
void record_enqueue_event(std::uint64_t id, std::size_t slot, double enqueue_seconds) {
  obs::TraceEvent ev;
  ev.kind = obs::TraceEventKind::kRequestEnqueue;
  ev.ts = static_cast<std::int64_t>(enqueue_seconds * 1e6);
  ev.arg0 = static_cast<std::int64_t>(id);
  ev.arg1 = static_cast<std::int64_t>(slot);
  ev.tid = static_cast<std::uint32_t>(obs::detail::thread_shard());
  obs::global_trace().record(ev);
}
}  // namespace

// ------------------------------------------------ TokenPool / AsyncDecision

namespace detail {

TokenPool::~TokenPool() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (CompletionToken* token : free_) delete token;
  free_.clear();
}

CompletionToken* TokenPool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      CompletionToken* token = free_.back();
      free_.pop_back();
      return token;
    }
    ++created_;
  }
  return new CompletionToken();  // cold start only; recycled forever after
}

void TokenPool::release(CompletionToken* token) {
  token->done = false;
  token->error = nullptr;
  token->hook.reset();
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(token);
}

std::size_t TokenPool::created() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return created_;
}

}  // namespace detail

AsyncDecision::AsyncDecision(AsyncDecision&& other) noexcept
    : token_(other.token_), pool_(other.pool_) {
  other.token_ = nullptr;
  other.pool_ = nullptr;
}

AsyncDecision& AsyncDecision::operator=(AsyncDecision&& other) noexcept {
  if (this != &other) {
    abandon();
    token_ = other.token_;
    pool_ = other.pool_;
    other.token_ = nullptr;
    other.pool_ = nullptr;
  }
  return *this;
}

AsyncDecision::~AsyncDecision() { abandon(); }

void AsyncDecision::abandon() {
  if (token_ == nullptr) return;
  {
    // The engine thread may still be about to touch the token; wait for
    // completion before recycling it.
    std::unique_lock<std::mutex> lock(token_->mutex);
    token_->cv.wait(lock, [this] { return token_->done; });
  }
  pool_->release(token_);
  token_ = nullptr;
}

Decision AsyncDecision::get() {
  if (token_ == nullptr) {
    throw std::runtime_error("AsyncDecision: no pending decision (moved-from or already got)");
  }
  Decision decision;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(token_->mutex);
    token_->cv.wait(lock, [this] { return token_->done; });
    error = token_->error;
    decision = token_->decision;
  }
  detail::CompletionToken* token = token_;
  token_ = nullptr;
  pool_->release(token);
  if (error) std::rethrow_exception(error);
  return decision;
}

BatchedInferenceEngine::BatchedInferenceEngine(ModelResolver resolver, EngineConfig config)
    : resolver_(std::move(resolver)), config_(config) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.max_queue == 0) config_.max_queue = 1;
  ring_.resize(config_.max_queue);
  batch_.resize(config_.max_batch);
  observations_.reserve(config_.max_batch);
  row_pool_.reserve(config_.max_batch);
  decisions_.reserve(config_.max_batch);
}

BatchedInferenceEngine::BatchedInferenceEngine(const ModelRegistry& registry, ModelKey key,
                                               EngineConfig config)
    : BatchedInferenceEngine([&registry, key = std::move(key)] { return registry.lookup(key); },
                             config) {}

BatchedInferenceEngine::~BatchedInferenceEngine() { drain(); }

void BatchedInferenceEngine::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_ || draining_) return;
  started_ = true;
  worker_ = std::thread([this] { run(); });
}

BatchedInferenceEngine::Request* BatchedInferenceEngine::reserve_slot_locked() {
  if (queued_ == ring_.size()) return nullptr;
  Request& slot = ring_[(head_ + queued_) % ring_.size()];
  ++queued_;
  return &slot;
}

BatchedInferenceEngine::SubmitResult BatchedInferenceEngine::submit_pooled(
    std::vector<float>& observation, AsyncDecision& out, std::shared_ptr<CompletionHook> hook,
    std::uint64_t request_id) {
  detail::CompletionToken* token = token_pool_.acquire();
  token->hook = std::move(hook);
  std::size_t slot_index = 0;
  double enqueue_seconds = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      token_pool_.release(token);
      return SubmitResult::kDraining;
    }
    Request* slot = reserve_slot_locked();
    if (!slot) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      engine_rejected_counter().add();
      token_pool_.release(token);
      return SubmitResult::kRejectedBackpressure;
    }
    slot->observation.swap(observation);  // capacities circulate, no alloc
    slot->token = token;
    slot->enqueue_seconds = enqueue_seconds = util::wall_seconds();
    slot->request_id = request_id;
    slot_index = static_cast<std::size_t>(slot - ring_.data());
  }
  cv_.notify_one();
  if (request_id != 0 && obs::enabled()) {
    record_enqueue_event(request_id, slot_index, enqueue_seconds);
  }
  out = AsyncDecision(token, &token_pool_);
  return SubmitResult::kOk;
}

void BatchedInferenceEngine::drain() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ && !worker_.joinable()) return;
    draining_ = true;
    worker = std::move(worker_);
  }
  cv_.notify_all();
  if (worker.joinable()) worker.join();
  // Never-started engines (or races with start) may still hold requests.
  const auto stopped = std::make_exception_ptr(
      std::runtime_error("BatchedInferenceEngine: stopped before serving"));
  for (;;) {
    Request leftover;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queued_ == 0) break;
      Request& slot = ring_[head_];
      leftover.token = slot.token;
      slot.token = nullptr;
      head_ = (head_ + 1) % ring_.size();
      --queued_;
    }
    fulfill(leftover, nullptr, stopped);
  }
}

bool BatchedInferenceEngine::accepting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !draining_;
}

std::size_t BatchedInferenceEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

EngineStats BatchedInferenceEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  EngineStats s;
  s.requests = requests_;
  s.ticks = ticks_;
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.mean_batch = ticks_ ? static_cast<double>(batch_sum_) / static_cast<double>(ticks_) : 0.0;
  s.max_batch = batch_max_;
  s.busy_seconds = busy_seconds_;
  return s;
}

void BatchedInferenceEngine::run() {
  for (;;) {
    std::size_t take = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return draining_ || queued_ > 0; });
      if (queued_ == 0) return;  // draining with nothing left
      if (!draining_ && queued_ < config_.max_batch && config_.coalesce_wait.count() > 0) {
        cv_.wait_for(lock, config_.coalesce_wait,
                     [this] { return draining_ || queued_ >= config_.max_batch; });
      }
      take = std::min(queued_, config_.max_batch);
      // Move requests out of the ring into the tick scratch. Observation
      // buffers SWAP between ring slots and the reusable rows, so their
      // capacities circulate instead of being reallocated every tick.
      while (observations_.size() < take) {
        if (!row_pool_.empty()) {
          observations_.push_back(std::move(row_pool_.back()));
          row_pool_.pop_back();
        } else {
          observations_.emplace_back();
        }
      }
      while (observations_.size() > take) {
        row_pool_.push_back(std::move(observations_.back()));
        observations_.pop_back();
      }
      for (std::size_t i = 0; i < take; ++i) {
        Request& slot = ring_[head_];
        observations_[i].swap(slot.observation);
        batch_[i].token = slot.token;
        slot.token = nullptr;
        batch_[i].enqueue_seconds = slot.enqueue_seconds;
        batch_[i].request_id = slot.request_id;
        slot.request_id = 0;
        head_ = (head_ + 1) % ring_.size();
        --queued_;
      }
    }
    serve_batch(take);
  }
}

void BatchedInferenceEngine::fulfill(Request& req, const Decision* decision,
                                     const std::exception_ptr& failure) {
  detail::CompletionToken* t = req.token;
  req.token = nullptr;
  std::exception_ptr error = failure;
  if (!error && t->hook) {
    try {
      t->hook->on_served(*decision);
    } catch (...) {
      // A throwing hook must not take down the engine thread or starve
      // the rest of the batch — it fails only its own request.
      error = std::current_exception();
    }
  }
  std::lock_guard<std::mutex> lock(t->mutex);
  if (error) {
    t->error = error;
  } else {
    t->decision = *decision;
  }
  t->done = true;
  // Notify INSIDE the lock: once done is observable the AsyncDecision may
  // release the token to the pool, where another submit can immediately
  // reset it. Holding the mutex across the notify means the waiter cannot
  // get past its wait until this touch of the cv is over.
  t->cv.notify_one();
}

void BatchedInferenceEngine::serve_batch(std::size_t take) {
  OBS_SPAN("serve_batch");
  const std::uint64_t tick_id = ++tick_seq_;
  if (obs::enabled()) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kBatchFormed;
    ev.ts = static_cast<std::int64_t>(util::wall_seconds() * 1e6);
    ev.arg0 = static_cast<std::int64_t>(take);
    ev.arg1 = static_cast<std::int64_t>(tick_id);
    ev.tid = static_cast<std::uint32_t>(obs::detail::thread_shard());
    obs::global_trace().record(ev);
  }
  ModelSnapshot model = resolver_ ? resolver_() : nullptr;
  std::exception_ptr failure;
  const double t0 = util::wall_seconds();
  if (!model) {
    failure = std::make_exception_ptr(
        std::runtime_error("BatchedInferenceEngine: no model resolved for tick"));
  } else {
    try {
      if (config_.use_thread_pool) {
        // One batched forward per tick on the shared compute pool; the
        // engine thread just awaits it. The GEMM thread override is scoped
        // INSIDE the submitted task — nn::ScopedNumThreads is thread-local,
        // so it must wrap the thread that actually runs the forward.
        util::ThreadPool::global()
            .submit([&] {
              nn::ScopedNumThreads gemm_threads(config_.nn_threads);
              model->infer_into(observations_, decisions_);
            })
            .get();
      } else {
        nn::ScopedNumThreads gemm_threads(config_.nn_threads);
        model->infer_into(observations_, decisions_);
      }
      // A model returning the wrong number of decisions (e.g. a
      // hot-reloaded implementation whose infer truncates) must fail the
      // whole batch loudly, never index out of bounds.
      if (decisions_.size() != take) {
        failure = std::make_exception_ptr(std::runtime_error(
            "BatchedInferenceEngine: model returned " + std::to_string(decisions_.size()) +
            " decisions for a batch of " + std::to_string(take) +
            " — refusing to serve a truncated batch"));
      }
    } catch (...) {
      failure = std::current_exception();
    }
  }
  const double t1 = util::wall_seconds();

  const bool tracing = obs::enabled();
  for (std::size_t i = 0; i < take; ++i) {
    Request& req = batch_[i];
    // Latency reflects SERVED decisions only, recorded once and before
    // the waiter wakes: a failed batch must not drag the quantiles, and a
    // caller that has its decision also sees it counted.
    if (!failure) {
      const double latency_seconds = t1 - req.enqueue_seconds;
      engine_served_counter().add();
      // Journey epilogue: the decision-latency octave is stamped with the
      // request id (exemplar), and the [enqueue, served] slice lands in
      // the wall ring tagged with the tick that carried it.
      if (req.request_id != 0) {
        decision_latency_histogram().record(latency_seconds, req.request_id);
        if (tracing) {
          obs::TraceEvent ev;
          ev.kind = obs::TraceEventKind::kRequestComplete;
          ev.ts = static_cast<std::int64_t>(req.enqueue_seconds * 1e6);
          ev.dur = static_cast<std::int64_t>(latency_seconds * 1e6);
          ev.arg0 = static_cast<std::int64_t>(req.request_id);
          ev.arg1 = static_cast<std::int64_t>(tick_id);
          ev.tid = static_cast<std::uint32_t>(obs::detail::thread_shard());
          obs::global_trace().record(ev);
        }
      } else {
        decision_latency_histogram().record(latency_seconds);
      }
    }
    fulfill(req, failure ? nullptr : &decisions_[i], failure);
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  requests_ += take;
  ++ticks_;
  batch_sum_ += take;
  batch_max_ = std::max(batch_max_, take);
  busy_seconds_ += t1 - t0;
}

}  // namespace mirage::serve
