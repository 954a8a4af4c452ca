// Batched decision engine: coalesces per-session "submit now or wait?"
// requests into one [B, k*(m+1)] tensor and runs a single batched
// Foundation forward per tick. Every current offline caller serves at
// B=1 (two rows per Q-pair); amortizing layer temporaries, GEMM setup and
// the model lock over whole batches is the headline throughput win
// (measured by bench_serve_throughput).
//
// The request queue is a BOUNDED preallocated ring (EngineConfig::
// max_queue): when the inference engine saturates, new submissions are
// rejected with BackpressureRejected and counted in EngineStats::rejected
// instead of growing the heap without limit — admission control, not an
// allocation storm.
//
// One submission path: submit_pooled() swaps the caller's observation
// buffer into a ring slot and arms an AsyncDecision over a recycled
// CompletionToken from the engine's token pool. A blocking decision is
// submit_pooled() + get(). The token carries an optional typed
// CompletionHook that runs on the engine thread for each served decision
// (the service's per-session accounting and journaling). Steady-state
// decisions perform ZERO heap allocations end to end (audited by
// bench_serve_soak with a stub model).
//
// Each served decision's enqueue-to-served latency is recorded once, into
// the lock-free decision_latency_histogram(). The tick's forward runs on
// util::ThreadPool::global() when EngineConfig::use_thread_pool is set,
// otherwise on the engine thread itself.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <thread>

#include "serve/model_registry.hpp"
#include "util/stats.hpp"

namespace mirage::obs {
class Counter;
class Histogram;
}  // namespace mirage::obs

namespace mirage::serve {

/// Thrown by the throwing decide calls when the bounded request queue is
/// full — the backpressure signal callers retry or shed load on.
struct BackpressureRejected : std::runtime_error {
  BackpressureRejected()
      : std::runtime_error("BatchedInferenceEngine: queue full, request rejected "
                           "(backpressure)") {}
};

struct EngineConfig {
  std::size_t max_batch = 64;
  /// After the first queued request, wait up to this long for more to
  /// coalesce before running the tick (0 = serve whatever is queued).
  std::chrono::microseconds coalesce_wait{200};
  /// Run each tick's forward on util::ThreadPool::global() (otherwise on
  /// the engine thread itself; useful under sanitizers or in benchmarks
  /// that want isolated timing).
  bool use_thread_pool = true;
  /// Bounded request queue: submissions past this depth are rejected with
  /// BackpressureRejected (admission control when the engine saturates).
  /// The ring is preallocated, so queueing never allocates. Clamped >= 1.
  std::size_t max_queue = 8192;
  /// GEMM threads for the tick's batched forward (nn::ScopedNumThreads
  /// around infer_into). 0 = inherit the process-wide nn::set_num_threads
  /// default. Decisions are bitwise identical for every value — the
  /// parallel-GEMM determinism contract — so this trades latency against
  /// interference with co-resident training work, never results.
  std::size_t nn_threads = 0;
};

struct EngineStats {
  std::uint64_t requests = 0;      ///< fulfilled (including failed) requests
  std::uint64_t ticks = 0;         ///< batched forwards executed
  std::uint64_t rejected = 0;      ///< submissions refused by backpressure
  double mean_batch = 0.0;
  std::size_t max_batch = 0;
  double busy_seconds = 0.0;       ///< wall time spent inside forwards
};

/// Typed completion hook: on_served() runs on the engine thread for each
/// successfully served decision, before the caller's AsyncDecision is
/// released (a drained, rejected or failed request never reaches it). A
/// throwing hook fails only its own request. Held by shared_ptr, so
/// arming a request is a refcount bump that also pins the hook's owner
/// while the request is in flight.
class CompletionHook {
 public:
  CompletionHook() = default;
  CompletionHook(const CompletionHook&) = delete;
  CompletionHook& operator=(const CompletionHook&) = delete;
  virtual ~CompletionHook() = default;
  virtual void on_served(const Decision& decision) = 0;
};

namespace detail {
/// Recycled completion state: plays the role of a promise/future shared
/// state, but lives in the engine's TokenPool and circulates instead of
/// being heap-allocated per call.
struct CompletionToken {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Decision decision;
  std::exception_ptr error;
  std::shared_ptr<CompletionHook> hook;
};

/// Freelist of CompletionTokens. Tokens are created on demand (cold
/// start) and recycled forever after; `created()` is the audit hook — in
/// a warmed steady state it must stop growing.
class TokenPool {
 public:
  ~TokenPool();
  TokenPool() = default;
  TokenPool(const TokenPool&) = delete;
  TokenPool& operator=(const TokenPool&) = delete;

  CompletionToken* acquire();
  void release(CompletionToken* token);
  std::size_t created() const;

 private:
  mutable std::mutex mutex_;
  std::vector<CompletionToken*> free_;
  std::size_t created_ = 0;
};
}  // namespace detail

/// Move-only handle to one pooled async decision. get() blocks until the
/// batch containing the request runs, rethrows the batch's failure, and
/// returns the token to the pool; an abandoned (destroyed un-got) handle
/// waits for completion first, so a token is never recycled while the
/// engine might still touch it. Must not outlive the engine it came from.
class AsyncDecision {
 public:
  AsyncDecision() = default;
  AsyncDecision(AsyncDecision&& other) noexcept;
  AsyncDecision& operator=(AsyncDecision&& other) noexcept;
  ~AsyncDecision();
  AsyncDecision(const AsyncDecision&) = delete;
  AsyncDecision& operator=(const AsyncDecision&) = delete;

  bool valid() const { return token_ != nullptr; }
  /// Wait, rethrow on failure, release the token. Single-shot.
  Decision get();

 private:
  friend class BatchedInferenceEngine;
  AsyncDecision(detail::CompletionToken* token, detail::TokenPool* pool)
      : token_(token), pool_(pool) {}
  void abandon();

  detail::CompletionToken* token_ = nullptr;
  detail::TokenPool* pool_ = nullptr;
};

class BatchedInferenceEngine {
 public:
  /// Resolve the serving model once per tick — a hot-reloaded registry
  /// entry is picked up at the next tick boundary while in-flight batches
  /// keep their snapshot.
  using ModelResolver = std::function<ModelSnapshot()>;

  BatchedInferenceEngine(ModelResolver resolver, EngineConfig config = {});
  /// Convenience: serve one registry key. The registry must outlive the
  /// engine.
  BatchedInferenceEngine(const ModelRegistry& registry, ModelKey key, EngineConfig config = {});
  ~BatchedInferenceEngine();

  BatchedInferenceEngine(const BatchedInferenceEngine&) = delete;
  BatchedInferenceEngine& operator=(const BatchedInferenceEngine&) = delete;

  /// Launch the engine thread (idempotent).
  void start();

  /// Outcome of a submission.
  enum class SubmitResult { kOk, kRejectedBackpressure, kDraining };

  /// Enqueue one observation (flattened [k*(m+1)], action channel
  /// ignored): swap it into a ring slot (the caller gets the displaced
  /// buffer back for reuse — capacities circulate, nothing is freed) and
  /// arm `out` over a recycled CompletionToken. out.get() waits for the
  /// batch containing the request and rethrows its failure (no model,
  /// short decision vector, bad input dim, a throwing hook). `hook`, when
  /// set, runs on the engine thread for the served decision. Nonzero
  /// `request_id` threads the caller's journey id through the ring:
  /// enqueue/complete trace events and the latency histogram's exemplar
  /// carry it. On rejection/drain `out` and the observation are left
  /// untouched and the token goes straight back to the pool. Zero
  /// steady-state heap allocations.
  SubmitResult submit_pooled(std::vector<float>& observation, AsyncDecision& out,
                             std::shared_ptr<CompletionHook> hook = nullptr,
                             std::uint64_t request_id = 0);

  /// Completion tokens ever created (the allocation audit: flat in a
  /// warmed steady state).
  std::size_t tokens_created() const { return token_pool_.created(); }

  /// Graceful drain: reject new requests, serve everything queued, then
  /// stop the engine thread (idempotent).
  void drain();

  bool accepting() const;
  std::size_t queue_depth() const;
  EngineStats stats() const;

 private:
  /// One ring slot / in-flight request.
  struct Request {
    std::vector<float> observation;  ///< buffer owned by the slot, reused
    detail::CompletionToken* token = nullptr;
    double enqueue_seconds = 0.0;
    std::uint64_t request_id = 0;    ///< journey id (0 = untraced caller)
  };

  void run();
  void serve_batch(std::size_t take);
  /// Deliver one fulfilled request (engine thread). Success runs the
  /// token's hook then resolves; failure resolves with `failure`.
  static void fulfill(Request& req, const Decision* decision, const std::exception_ptr& failure);
  /// Reserve the next ring slot or report why not (caller holds mutex_).
  Request* reserve_slot_locked();

  ModelResolver resolver_;
  EngineConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Request> ring_;      ///< bounded queue, preallocated
  std::size_t head_ = 0;           ///< oldest queued request
  std::size_t queued_ = 0;         ///< live entries in the ring
  bool draining_ = false;
  bool started_ = false;
  std::thread worker_;
  std::atomic<std::uint64_t> rejected_{0};
  detail::TokenPool token_pool_;   ///< recycled completion tokens

  // Engine-thread tick scratch (no locks needed): extracted requests and
  // the reusable observation/decision buffers for the batched forward.
  std::uint64_t tick_seq_ = 0;                     ///< engine-thread tick id
  std::vector<Request> batch_;                     ///< metadata, <= max_batch
  std::vector<std::vector<float>> observations_;   ///< rows for infer_into
  std::vector<std::vector<float>> row_pool_;       ///< spare row capacities
  std::vector<Decision> decisions_;

  // Stats (guarded by stats_mutex_ so snapshots don't contend with the
  // request path).
  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t batch_sum_ = 0;
  std::size_t batch_max_ = 0;
  double busy_seconds_ = 0.0;
};

/// Process-wide decision-latency histogram
/// ("mirage_serve_decision_latency_seconds"): log-linear buckets with
/// EXEMPLARS — each octave remembers the last request id that landed in
/// it, so a p99.9 reading links back to one concrete journey in the trace
/// ring. Every engine records each served decision here exactly once; the
/// serve SLO engine's latency objective, metrics_text() and the benches'
/// latency quantiles all read it. Reset it to scope a per-run count.
obs::Histogram& decision_latency_histogram();

/// Process-wide served-decision counter ("mirage_serve_engine_served_total"),
/// the "good" leg of the reject-rate SLO (its "bad" leg is
/// "mirage_serve_engine_rejected_total").
obs::Counter& engine_served_counter();

/// The rejected-submission counter behind "mirage_serve_engine_rejected_total".
obs::Counter& engine_rejected_counter();

}  // namespace mirage::serve
