// Concurrent provisioning service: the online face of a trained agent.
// Clients open one session per predecessor/successor pair, stream
// sim::StateSample snapshots into the session's k-frame history ring
// (rl::StateEncoder — the same encoder training used, so serving and
// training see identical inputs), and ask for submit/wait decisions.
// Decisions from all sessions funnel through one BatchedInferenceEngine,
// so a thousand concurrent sessions cost a handful of batched forwards
// per decision interval instead of a thousand B=1 passes.
//
// Million-session scaling: the session table is SHARDED. Each of the N
// shards (default hardware_concurrency; session_id % N) owns its mutex,
// session map and served/submit/eviction counters, so open/observe/decide
// on different sessions never contend on one lock and completed decisions
// never funnel through a global counters mutex — report()/metrics_text()
// aggregate the shards at read time. shards=1 reproduces the original
// single-map service exactly.
//
// Idle sessions are evicted by TTL (session_ttl_seconds > 0): lazily on
// access — a lookup that finds an expired session erases it and throws
// std::out_of_range, exactly like a closed session — plus a background
// sweeper. The TTL is uniform and a touch only pushes expiry later, so
// each shard keeps its sessions in an intrusive list in access order,
// which is also expiry order: the sweeper pops expired heads in
// O(expired) and sleeps until the earliest head can expire.
//
// Backpressure: the engine queue is bounded (EngineConfig::max_queue);
// when the engine saturates, decide paths fail fast with
// BackpressureRejected (counted in EngineStats::rejected) instead of
// growing an unbounded backlog.
//
// Shutdown is a graceful drain: new decisions are rejected, everything
// in flight completes, then the engine thread and TTL sweeper stop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/slo.hpp"
#include "rl/state_encoder.hpp"
#include "serve/inference_engine.hpp"
#include "util/wal.hpp"

namespace mirage::serve {

using SessionId = std::uint64_t;

/// Session-state journaling (ISSUE 10): when `dir` is set the service
/// appends every session-visible mutation (open, frame, decision, close,
/// eviction) to a WAL segment store, and a restarted service replays the
/// journal before serving — restored sessions carry their full k-frame
/// history rings, so the first post-restart decision is bitwise identical
/// to the decision an uninterrupted service would have made.
struct ServiceWalConfig {
  /// Journal directory; empty disables journaling entirely.
  std::string dir;
  /// Durability knobs. Default sync level is kNone — the serve hot path
  /// trades crash-durability of the last buffer for zero fsyncs; group
  /// commit on the sweeper tick bounds the exposure window. Use kOnCommit
  /// for per-record durability (every decide/observe fsyncs).
  util::wal::WalOptions wal{util::wal::SyncLevel::kNone};
  /// Replay the existing journal at construction (warm restart). false
  /// starts journaling into `dir` without replaying — fresh-start use
  /// only; stale records left in `dir` will confuse a later restore.
  bool restore = true;
};

/// What a warm restart recovered from the session journal.
struct WalRestoreInfo {
  bool replayed = false;          ///< a journal replay ran at construction
  std::size_t sessions = 0;       ///< live sessions restored (open at crash)
  std::uint64_t sessions_opened = 0;  ///< kOpen records replayed
  std::uint64_t frames = 0;       ///< kFrame records replayed
  std::uint64_t decisions = 0;    ///< kDecision records replayed
  std::uint64_t submits = 0;      ///< replayed decisions that said submit
  std::uint64_t evictions = 0;    ///< kEvict records replayed
  std::uint64_t closes = 0;       ///< kClose records replayed
  std::uint64_t records = 0;      ///< total WAL records scanned
  std::uint64_t truncated_bytes = 0;  ///< torn bytes discarded by recovery
  bool torn_tail = false;         ///< recovery truncated a torn tail
};

/// Declarative serving SLOs (ISSUE 8): when enabled, start() registers a
/// latency-quantile objective over the process-wide decision-latency
/// histogram and a reject-rate objective over the served/rejected
/// counters, and the sweeper thread ticks the burn-rate evaluator every
/// min(0.1 s, short_window_seconds / 10), so each short window holds at
/// least 10 samples. health_text() renders the verdicts.
struct ServiceSloConfig {
  bool enabled = false;
  /// "p<latency_quantile> of decisions under latency_target_seconds".
  double latency_target_seconds = 0.25;
  double latency_quantile = 99.0;
  /// Tolerated backpressure-reject fraction of all submissions.
  double reject_budget = 0.01;
  double short_window_seconds = 2.0;
  double long_window_seconds = 10.0;
  double burn_threshold = 1.0;
  double pending_seconds = 0.0;  ///< `for` duration before firing
  double resolve_seconds = 2.0;  ///< clear hold-down before resolved
  /// Dump a flight-recorder bundle when an SLO transitions to firing.
  bool dump_on_fire = true;
};

struct ServiceConfig {
  /// Frames per session history ring; must match the served checkpoint's
  /// history_len (a mismatch fails every decide() with
  /// std::invalid_argument rather than silently mis-serving).
  std::size_t history_len = 24;
  /// Partition count of the cluster the sessions observe; must match the
  /// served checkpoint's frame width (rl::frame_dim(partition_count)).
  /// 1 = classic single-pool frames (exactly rl::kFrameDim wide).
  std::size_t partition_count = 1;
  /// Session shards (0 = hardware_concurrency). Shard = session_id % N.
  /// 1 gives the original single-map behavior.
  std::size_t shards = 0;
  /// Evict sessions idle (no open/observe/decide/history access) longer
  /// than this; 0 disables eviction. Expired sessions behave exactly like
  /// closed ones: any access throws std::out_of_range. The background
  /// sweeper wakes when the earliest session can expire, not on a timer.
  double session_ttl_seconds = 0.0;
  EngineConfig engine;
  ServiceSloConfig slo;
  ServiceWalConfig wal;
};

struct ServiceReport {
  std::size_t open_sessions = 0;
  std::size_t shards = 0;
  std::uint64_t total_sessions = 0;
  std::uint64_t decisions = 0;
  std::uint64_t submits = 0;       ///< decisions that said "submit now"
  std::uint64_t evictions = 0;     ///< sessions reaped by the idle TTL
  /// Times the background sweeper woke: at a session expiry, or at the
  /// SLO/group-commit tick when either is configured. Never on a poll.
  std::uint64_t sweep_wakeups = 0;
  EngineStats engine;
  double uptime_seconds = 0.0;
  double decisions_per_second = 0.0;
};

class ProvisioningService {
 public:
  ProvisioningService(const ModelRegistry& registry, ModelKey key, ServiceConfig config = {});
  /// Serve a fixed snapshot (tests/benches without a registry).
  ProvisioningService(ModelSnapshot model, ServiceConfig config = {});
  ~ProvisioningService();

  ProvisioningService(const ProvisioningService&) = delete;
  ProvisioningService& operator=(const ProvisioningService&) = delete;

  void start();
  /// Graceful drain: stop admitting decisions, complete in-flight ones,
  /// stop the engine and the TTL sweeper (idempotent).
  void drain_and_stop();

  SessionId open_session();
  void close_session(SessionId id);

  /// Append one state frame to the session's history ring. Zero
  /// steady-state heap allocations.
  void observe(SessionId id, const sim::StateSample& sample, const rl::JobPairContext& ctx);

  /// Blocking decision: try_decide_async + get(). Zero steady-state heap
  /// allocations per call (audited by bench_serve_soak). Throws
  /// BackpressureRejected when the engine queue is full.
  Decision decide(SessionId id);
  /// Non-throwing blocking variant for load-shedding callers (the soak
  /// bench's hot loop): kOk fills `out`; rejection/drain report status
  /// without exception traffic. Unknown/expired sessions still throw
  /// std::out_of_range, and a failed batch rethrows its error.
  BatchedInferenceEngine::SubmitResult try_decide(SessionId id, Decision& out);

  /// Async decision on the session's current history over the engine's
  /// recycled completion tokens: zero steady-state heap allocations
  /// (audited by bench_serve_soak). kOk arms `out`; rejection/drain leave
  /// it invalid. Every decide call lands here, and served-decision
  /// accounting and journaling run only in the session's completion hook
  /// on the engine thread, before `out` is released.
  BatchedInferenceEngine::SubmitResult try_decide_async(SessionId id, AsyncDecision& out);
  /// Throwing convenience over try_decide_async (BackpressureRejected on
  /// a full queue, std::runtime_error when draining).
  AsyncDecision decide_async_pooled(SessionId id);

  /// The session's flattened history (action channel zeroed) — the exact
  /// tensor row the next decision would see. Test/debug hook.
  std::vector<float> session_history(SessionId id) const;
  std::size_t session_frames_seen(SessionId id) const;

  std::size_t session_count() const;
  /// Evict every shard's expired sessions now; returns the number
  /// evicted. Test hook — production relies on the lazy check plus the
  /// background sweeper.
  std::size_t evict_expired();
  ServiceReport report() const;

  /// Prometheus text exposition: service counters/gauges and engine batch
  /// stats, followed by the process-wide obs registry dump (the decision
  /// latency histogram, span histograms, scenario counters).
  /// This is the scrape endpoint body for an HTTP layer above the service.
  std::string metrics_text() const;

  /// Plain-text health verdict (the SLO engine's burn rates + alert
  /// states, prefixed with service vitals). With SLOs disabled the body
  /// reports "status: unconfigured". This is the health endpoint the
  /// future lab canary daemon polls.
  std::string health_text() const;

  /// Machine-readable alert states (empty when SLOs are disabled).
  std::vector<obs::SloStatus> slo_statuses() const;

  /// What the constructor's journal replay restored (all-zero / replayed
  /// == false when journaling is off or `restore` was false).
  const WalRestoreInfo& wal_restore_info() const { return wal_restore_; }
  /// True once any journal append/commit has failed since construction.
  /// Journal failures never fail the decision path — durability degrades,
  /// serving does not — but they must be observable.
  bool wal_failed() const { return wal_failed_.load(std::memory_order_relaxed); }

 private:
  /// A session is its own completion hook: the engine calls on_served()
  /// for each of its served decisions, and the hook's shared_ptr pins the
  /// session while a request is in flight.
  struct Session final : CompletionHook {
    Session(const ProvisioningService& svc, SessionId sid, std::size_t k,
            std::size_t partition_count)
        : service(svc), id(sid), encoder(k, partition_count) {}
    void on_served(const Decision& d) override { service.record_served(*this, d); }
    const ProvisioningService& service;
    const SessionId id;  ///< immutable; lets completion hooks journal by id
    mutable std::mutex mutex;
    rl::StateEncoder encoder;
    std::atomic<std::uint64_t> decisions{0};
    // Guarded by the owning shard's mutex: the access-order list links
    // and the last open/touch instant (util::wall_seconds).
    Session* older = nullptr;
    Session* newer = nullptr;
    double last_access_seconds = 0.0;
  };

  /// One shard: its own lock, session map and counters. The counters are
  /// relaxed atomics so the engine-thread completion hook never
  /// serializes on a shard (or global) mutex.
  ///
  /// Every mapped session is also on an intrusive list in access order
  /// (guarded by mutex). The clock is read under the mutex when a session
  /// is linked or touched, so stamps never decrease from oldest to newest:
  /// with one TTL for all sessions the list is in expiry order.
  struct Shard {
    using Map = std::map<SessionId, std::shared_ptr<Session>>;
    mutable std::mutex mutex;
    Map sessions;
    Session* oldest = nullptr;  ///< the next session to expire
    Session* newest = nullptr;  ///< the most recently accessed session
    std::uint64_t total_sessions = 0;  ///< guarded by mutex
    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::uint64_t> submits{0};
    std::atomic<std::uint64_t> evictions{0};

    void link_newest(Session& s) {
      s.older = newest;
      s.newer = nullptr;
      (newest ? newest->newer : oldest) = &s;
      newest = &s;
    }
    void unlink(Session& s) {
      (s.older ? s.older->newer : oldest) = s.newer;
      (s.newer ? s.newer->older : newest) = s.older;
      s.older = s.newer = nullptr;
    }
    void erase(Map::iterator it) {
      unlink(*it->second);
      sessions.erase(it);
    }
  };

  Shard& shard_of(SessionId id) const { return shards_[id % shards_.size()]; }
  /// Locate a live session; refresh its TTL clock. Expired sessions are
  /// erased here (lazy expiry) and reported exactly like closed ones.
  std::shared_ptr<Session> find_session(SessionId id) const;
  /// Evict and journal the shard's expired list heads, O(expired); adds
  /// the count to `*evicted` when non-null. Returns the instant the
  /// shard's next session can expire (now + TTL when it is empty: a
  /// session opened later cannot expire sooner). TTL must be on.
  double pop_expired(Shard& shard, double now, std::size_t* evicted = nullptr) const;
  /// Sleeps until the earliest of the next tick and the next expiry; each
  /// wake pops every shard's expired sessions, then runs the tick work
  /// (SLO evaluate, gauges, group commit) once the tick is due.
  void sweeper_loop();
  void record_served(Session& session, const Decision& d) const;
  // --- Session journaling (no-ops when ServiceWalConfig::dir is empty).
  // Lock order: session/shard mutex -> wal_mutex_; the WAL never takes a
  // session or shard lock. Appends are allocation-free in steady state
  // (stack headers into the writer's preallocated buffer); failures set
  // wal_failed_ instead of throwing — serving outlives its journal.
  void init_wal();
  void replay_wal();
  void journal_append(const util::wal::Chunk* chunks, std::size_t count) const;
  void journal_open(SessionId id) const;
  void journal_close(SessionId id) const;
  void journal_frame(SessionId id, const float* frame, std::size_t size) const;
  void journal_decision(SessionId id, int action) const;
  void journal_evict(SessionId id) const;
  /// Group commit (sweeper tick / drain): flush + segment-roll + fsync per
  /// the configured sync level.
  void journal_commit() const;
  /// Mint a journey id and record kRequestBegin (0 when tracing is off).
  std::uint64_t begin_request_trace(SessionId id) const;
  /// Push live operational gauges (queue depth, per-shard sessions,
  /// reject rate) into the obs registry. Sweeper-tick cadence; also run
  /// by metrics_text() so scrapes are current without a sweeper.
  void refresh_gauges() const;
  void configure_slos();
  void init_gauges();

  ServiceConfig config_;
  BatchedInferenceEngine engine_;
  std::atomic<double> started_seconds_{0.0};

  mutable std::vector<Shard> shards_;  ///< fixed size after construction
  std::atomic<SessionId> next_session_{1};
  mutable std::atomic<std::uint64_t> next_request_id_{1};

  obs::SloEngine slos_;
  std::atomic<bool> slos_configured_{false};
  bool providers_registered_ = false;  ///< guarded by sweeper_mutex_

  std::atomic<std::uint64_t> sweep_wakeups_{0};
  // Live operational gauges (registered once at construction; refreshed
  // on sweeper ticks and by metrics_text()).
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* reject_rate_gauge_ = nullptr;
  std::vector<obs::Gauge*> shard_session_gauges_;
  // Reject-rate sampling state (relaxed: a racing refresh only smears one
  // diagnostic reading).
  mutable std::atomic<std::uint64_t> last_rejected_{0};
  mutable std::atomic<double> last_reject_sample_seconds_{0.0};

  std::thread sweeper_;
  std::mutex sweeper_mutex_;
  std::condition_variable sweeper_cv_;
  bool sweeper_stop_ = false;

  // Session journal (ISSUE 10). wal_on_ is set once in the constructor
  // and never changes; the writer itself is guarded by wal_mutex_ (and
  // closed on drain). Mutable: journaling happens on const paths too
  // (record_served, sweeps).
  bool wal_on_ = false;
  mutable std::mutex wal_mutex_;
  mutable util::wal::Writer wal_;
  WalRestoreInfo wal_restore_;
  mutable std::atomic<bool> wal_failed_{false};
};

}  // namespace mirage::serve
