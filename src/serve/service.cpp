#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/time_utils.hpp"

namespace mirage::serve {

namespace {

std::size_t resolve_shards(std::size_t configured) {
  if (configured > 0) return configured;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

[[noreturn]] void throw_unknown_session(SessionId id) {
  throw std::out_of_range("ProvisioningService: unknown session " + std::to_string(id));
}

obs::Counter& sweeper_wakeups_counter() {
  static obs::Counter* c = obs::registry().counter(
      "mirage_serve_sweeper_wakeups_total", "background sweeper ticks");
  return *c;
}

obs::Counter& sweeper_skipped_counter() {
  static obs::Counter* c = obs::registry().counter(
      "mirage_serve_sweeper_skipped_total",
      "sweep scans skipped by the idle-aware cadence");
  return *c;
}

obs::Counter& sweeper_stretches_counter() {
  static obs::Counter* c = obs::registry().counter(
      "mirage_serve_sweeper_stretches_total",
      "sweeper wakeup-interval doublings on quiet tables");
  return *c;
}

// Session-journal record encodings (all little-endian; RecordReader
// bounds-checks replay so a foreign or truncated payload is skipped, not
// trusted).
constexpr std::uint8_t kRecOpen = 1;      ///< u64 id | u32 k | u32 partitions
constexpr std::uint8_t kRecClose = 2;     ///< u64 id
constexpr std::uint8_t kRecFrame = 3;     ///< u64 id | u32 n | n float32
constexpr std::uint8_t kRecDecision = 4;  ///< u64 id | u8 action
constexpr std::uint8_t kRecEvict = 5;     ///< u64 id

}  // namespace

ProvisioningService::ProvisioningService(const ModelRegistry& registry, ModelKey key,
                                         ServiceConfig config)
    : config_(config),
      engine_(registry, std::move(key), config.engine),
      shards_(resolve_shards(config.shards)) {
  init_gauges();
  init_wal();
}

ProvisioningService::ProvisioningService(ModelSnapshot model, ServiceConfig config)
    : config_(config),
      engine_([model = std::move(model)] { return model; }, config.engine),
      shards_(resolve_shards(config.shards)) {
  init_gauges();
  init_wal();
}

ProvisioningService::~ProvisioningService() { drain_and_stop(); }

void ProvisioningService::init_gauges() {
  auto& reg = obs::registry();
  queue_depth_gauge_ = reg.gauge("mirage_serve_engine_queue_depth",
                                 "live engine ring occupancy");
  reject_rate_gauge_ = reg.gauge("mirage_serve_reject_rate",
                                 "backpressure rejections per second (last interval)");
  shard_session_gauges_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_session_gauges_.push_back(
        reg.gauge("mirage_serve_shard_sessions_" + std::to_string(i),
                  "live sessions owned by shard " + std::to_string(i)));
  }
  // Register the sweeper's counters now: their first bump can land inside
  // a zero-allocation window (the first idle-skipped scan only happens
  // once evictions shrink a shard), and registration allocates.
  sweeper_wakeups_counter();
  sweeper_skipped_counter();
  sweeper_stretches_counter();
}

void ProvisioningService::configure_slos() {
  if (slos_configured_.load(std::memory_order_relaxed) || !config_.slo.enabled) return;
  const ServiceSloConfig& c = config_.slo;

  obs::SloSpec latency;
  latency.name = "serve_latency";
  latency.kind = obs::SloKind::kLatencyQuantile;
  latency.latency = &decision_latency_histogram();
  latency.quantile = c.latency_quantile;
  latency.target_seconds = c.latency_target_seconds;
  latency.short_window_seconds = c.short_window_seconds;
  latency.long_window_seconds = c.long_window_seconds;
  latency.burn_threshold = c.burn_threshold;
  latency.pending_seconds = c.pending_seconds;
  latency.resolve_seconds = c.resolve_seconds;
  slos_.add(std::move(latency));

  obs::SloSpec reject;
  reject.name = "serve_reject";
  reject.kind = obs::SloKind::kErrorRate;
  reject.bad = &engine_rejected_counter();
  reject.good = &engine_served_counter();
  reject.budget = c.reject_budget;
  reject.short_window_seconds = c.short_window_seconds;
  reject.long_window_seconds = c.long_window_seconds;
  reject.burn_threshold = c.burn_threshold;
  reject.pending_seconds = c.pending_seconds;
  reject.resolve_seconds = c.resolve_seconds;
  slos_.add(std::move(reject));

  if (c.dump_on_fire) {
    // Runs on the sweeper thread AFTER the SLO engine releases its lock,
    // so the dump's health provider can re-enter health_text() safely.
    slos_.on_fire([](const obs::SloStatus& status) {
      obs::flight_recorder().dump("slo_" + status.name);
    });
  }
  slos_configured_.store(true, std::memory_order_release);
}

void ProvisioningService::start() {
  double expected = 0.0;
  started_seconds_.compare_exchange_strong(expected, util::wall_seconds());
  engine_.start();
  std::lock_guard<std::mutex> lock(sweeper_mutex_);
  configure_slos();
  if (!providers_registered_) {
    providers_registered_ = true;
    // Flight-recorder documents: dumps triggered anywhere in the process
    // (SLO fire, fatal signal, operator request) capture this service's
    // verdicts and scrape body. Unregistered on drain (they capture
    // `this`).
    obs::flight_recorder().register_provider("health.txt",
                                             [this] { return health_text(); });
    obs::flight_recorder().register_provider("serve_metrics.prom",
                                             [this] { return metrics_text(); });
  }
  // With journaling at a group-commit sync level the sweeper doubles as
  // the commit tick: it flushes the WAL buffer (and rolls segments) every
  // interval, bounding the un-flushed crash-exposure window.
  const bool need_sweeper = config_.session_ttl_seconds > 0.0 ||
                            slos_configured_.load(std::memory_order_relaxed) ||
                            (wal_on_ && config_.wal.wal.sync != util::wal::SyncLevel::kOnCommit);
  if (need_sweeper && !sweeper_.joinable() && !sweeper_stop_) {
    sweeper_ = std::thread([this] { sweeper_loop(); });
  }
}

void ProvisioningService::drain_and_stop() {
  engine_.drain();
  std::thread sweeper;
  bool unregister = false;
  {
    std::lock_guard<std::mutex> lock(sweeper_mutex_);
    sweeper_stop_ = true;
    sweeper = std::move(sweeper_);
    unregister = providers_registered_;
    providers_registered_ = false;
  }
  sweeper_cv_.notify_all();
  if (sweeper.joinable()) sweeper.join();
  if (unregister) {
    obs::flight_recorder().unregister_provider("health.txt");
    obs::flight_recorder().unregister_provider("serve_metrics.prom");
  }
  if (wal_on_) {
    // Engine and sweeper are stopped, so no journal appends race this
    // final flush; close() commits buffered records before releasing fds.
    std::lock_guard<std::mutex> lock(wal_mutex_);
    if (wal_.is_open()) {
      if (!wal_.commit()) wal_failed_.store(true, std::memory_order_relaxed);
      wal_.close();
    }
  }
}

SessionId ProvisioningService::open_session() {
  const SessionId id = next_session_.fetch_add(1, std::memory_order_relaxed);
  auto session = std::make_shared<Session>(*this, id, config_.history_len,
                                           std::max<std::size_t>(1, config_.partition_count));
  session->last_access_seconds.store(util::wall_seconds(), std::memory_order_relaxed);
  // Journal BEFORE the map insert: nothing (not even the sweeper) can
  // touch the id until it is in the table, so the open record is
  // guaranteed to precede every other record for this session.
  journal_open(id);
  Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.sessions.emplace(id, std::move(session));
  ++shard.total_sessions;
  return id;
}

void ProvisioningService::close_session(SessionId id) {
  Shard& shard = shard_of(id);
  bool erased = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    erased = shard.sessions.erase(id) > 0;
  }
  if (erased) journal_close(id);
}

std::shared_ptr<ProvisioningService::Session> ProvisioningService::find_session(
    SessionId id) const {
  Shard& shard = shard_of(id);
  const bool ttl_on = config_.session_ttl_seconds > 0.0;
  const double now = ttl_on ? util::wall_seconds() : 0.0;
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) throw_unknown_session(id);
  if (ttl_on) {
    const double last = it->second->last_access_seconds.load(std::memory_order_relaxed);
    if (now - last > config_.session_ttl_seconds) {
      // Lazy expiry: reap on touch, then report it exactly like a closed
      // session so a late observe/decide fails loudly instead of serving
      // a zombie ring.
      shard.sessions.erase(it);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
      journal_evict(id);
      throw_unknown_session(id);
    }
    it->second->last_access_seconds.store(now, std::memory_order_relaxed);
  }
  return it->second;
}

std::size_t ProvisioningService::sweep_shard(Shard& shard) const {
  if (config_.session_ttl_seconds <= 0.0) return 0;
  const double now = util::wall_seconds();
  std::size_t evicted = 0;
  std::lock_guard<std::mutex> lock(shard.mutex);
  double earliest_last = std::numeric_limits<double>::infinity();
  for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
    const double last = it->second->last_access_seconds.load(std::memory_order_relaxed);
    if (now - last > config_.session_ttl_seconds) {
      journal_evict(it->first);
      it = shard.sessions.erase(it);
      ++evicted;
    } else {
      earliest_last = std::min(earliest_last, last);
      ++it;
    }
  }
  // Refresh the idle hint: nothing surviving this scan can expire before
  // earliest_last + ttl, sessions opened later expire later still, and a
  // touch only pushes expiry out — so skipping until then is safe.
  shard.sweep_hint_valid = true;
  shard.last_sweep_size = shard.sessions.size();
  shard.next_expiry_hint = shard.sessions.empty()
                               ? std::numeric_limits<double>::infinity()
                               : earliest_last + config_.session_ttl_seconds;
  if (evicted) shard.evictions.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

std::size_t ProvisioningService::sweep_shard_idle_aware(Shard& shard, bool* skipped) const {
  if (skipped) *skipped = false;
  if (config_.session_ttl_seconds <= 0.0) return 0;
  const double now = util::wall_seconds();
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Quiet-table fast path: unchanged size at or below the idle
    // threshold, and the earliest possible expiry still ahead — a scan
    // would provably evict nothing, so the tick costs a size check.
    if (shard.sweep_hint_valid && shard.sessions.size() == shard.last_sweep_size &&
        shard.sessions.size() <= config_.sweep_idle_threshold &&
        now < shard.next_expiry_hint) {
      sweep_skipped_.fetch_add(1, std::memory_order_relaxed);
      sweeper_skipped_counter().add();
      if (skipped) *skipped = true;
      return 0;
    }
  }
  return sweep_shard(shard);
}

void ProvisioningService::sweeper_loop() {
  const double base_seconds = std::max(1e-4, config_.sweep_interval_seconds);
  const bool ttl_on = config_.session_ttl_seconds > 0.0;
  const double max_factor = std::max(1.0, config_.sweep_backoff_max_factor);
  double backoff = 1.0;        ///< current interval multiplier
  std::size_t quiet_streak = 0;  ///< consecutive hint-skipped ticks
  std::unique_lock<std::mutex> lock(sweeper_mutex_);
  while (!sweeper_stop_) {
    const auto interval = std::chrono::duration<double>(base_seconds * backoff);
    if (sweeper_cv_.wait_for(lock, interval, [this] { return sweeper_stop_; })) break;
    // Amortized background expiry: one shard per tick, round-robin, so
    // sweep cost stays O(sessions / shards) per wakeup no matter how
    // large the table grows (lazy expiry covers touched sessions).
    std::size_t cursor = 0;
    if (ttl_on) {
      cursor = sweep_cursor_;
      sweep_cursor_ = (sweep_cursor_ + 1) % shards_.size();
    }
    lock.unlock();
    sweep_wakeups_.fetch_add(1, std::memory_order_relaxed);
    sweeper_wakeups_counter().add();
    bool skipped = false;
    if (ttl_on) sweep_shard_idle_aware(shards_[cursor], &skipped);
    // The sweeper doubles as the SLO evaluator and gauge-refresh tick —
    // both allocation-free in steady state, so the thread can run inside
    // the soak bench's zero-allocation audit window.
    const bool slos_on = slos_configured_.load(std::memory_order_acquire);
    if (slos_on) slos_.evaluate(util::wall_seconds());
    refresh_gauges();
    // Group commit: at sync levels below kOnCommit the sweeper tick is
    // the journal's flush point (and segment-roll point), so a crash
    // loses at most one tick's worth of buffered records.
    if (wal_on_ && config_.wal.wal.sync != util::wal::SyncLevel::kOnCommit) {
      journal_commit();
    }
    // Quiet-table backoff, pure-TTL configurations only: with SLOs
    // configured the evaluator needs its steady base cadence. Once every
    // shard in a full rotation has declined its scan via the min-expiry
    // hint, the table is provably quiet until the earliest hint, so the
    // wakeup interval doubles (bounded); the first real scan — any
    // activity invalidates a hint — snaps it back to base.
    if (ttl_on && !slos_on && max_factor > 1.0) {
      if (skipped) {
        ++quiet_streak;
        if (quiet_streak % shards_.size() == 0 && backoff < max_factor) {
          backoff = std::min(max_factor, backoff * 2.0);
          sweep_stretches_.fetch_add(1, std::memory_order_relaxed);
          sweeper_stretches_counter().add();
        }
      } else {
        quiet_streak = 0;
        backoff = 1.0;
      }
    }
    lock.lock();
  }
}

void ProvisioningService::refresh_gauges() const {
  queue_depth_gauge_->set(static_cast<double>(engine_.queue_depth()));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::size_t count = 0;
    {
      std::lock_guard<std::mutex> lock(shards_[i].mutex);
      count = shards_[i].sessions.size();
    }
    shard_session_gauges_[i]->set(static_cast<double>(count));
  }
  const double now = util::wall_seconds();
  const std::uint64_t rejected = engine_rejected_counter().value();
  const double prev_t = last_reject_sample_seconds_.exchange(now, std::memory_order_relaxed);
  const std::uint64_t prev_r = last_rejected_.exchange(rejected, std::memory_order_relaxed);
  if (prev_t > 0.0 && now > prev_t && rejected >= prev_r) {
    reject_rate_gauge_->set(static_cast<double>(rejected - prev_r) / (now - prev_t));
  }
}

std::size_t ProvisioningService::evict_expired() {
  std::size_t evicted = 0;
  for (auto& shard : shards_) evicted += sweep_shard(shard);
  return evicted;
}

void ProvisioningService::observe(SessionId id, const sim::StateSample& sample,
                                  const rl::JobPairContext& ctx) {
  const auto session = find_session(id);
  std::lock_guard<std::mutex> lock(session->mutex);
  session->encoder.push(sample, ctx);
  // Journaled under the session mutex so the record order matches the
  // ring order exactly — replay reproduces the ring bit for bit.
  if (wal_on_) {
    const std::vector<float>& frame = session->encoder.last_frame();
    journal_frame(id, frame.data(), frame.size());
  }
}

void ProvisioningService::record_served(Session& session, const Decision& d) const {
  Shard& shard = shard_of(session.id);
  session.decisions.fetch_add(1, std::memory_order_relaxed);
  shard.decisions.fetch_add(1, std::memory_order_relaxed);
  if (d.action == 1) shard.submits.fetch_add(1, std::memory_order_relaxed);
  journal_decision(session.id, d.action);
}

std::uint64_t ProvisioningService::begin_request_trace(SessionId id) const {
  if (!obs::enabled()) return 0;
  const std::uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  // Journey prologue: the id minted here is threaded through the engine
  // ring (kRequestEnqueue), the batch (kRequestComplete) and the latency
  // histogram's exemplars — tid is the owning session shard.
  obs::TraceEvent ev;
  ev.kind = obs::TraceEventKind::kRequestBegin;
  ev.ts = static_cast<std::int64_t>(util::wall_seconds() * 1e6);
  ev.arg0 = static_cast<std::int64_t>(request_id);
  ev.arg1 = static_cast<std::int64_t>(id);
  ev.tid = static_cast<std::uint32_t>(id % shards_.size());
  obs::global_trace().record(ev);
  return request_id;
}

Decision ProvisioningService::decide(SessionId id) {
  Decision out;
  switch (try_decide(id, out)) {
    case BatchedInferenceEngine::SubmitResult::kOk:
      return out;
    case BatchedInferenceEngine::SubmitResult::kRejectedBackpressure:
      throw BackpressureRejected();
    case BatchedInferenceEngine::SubmitResult::kDraining:
      break;
  }
  throw std::runtime_error("ProvisioningService: draining, decision rejected");
}

BatchedInferenceEngine::SubmitResult ProvisioningService::try_decide(SessionId id,
                                                                     Decision& out) {
  AsyncDecision pending;
  const auto result = try_decide_async(id, pending);
  if (result == BatchedInferenceEngine::SubmitResult::kOk) out = pending.get();
  return result;
}

BatchedInferenceEngine::SubmitResult ProvisioningService::try_decide_async(SessionId id,
                                                                           AsyncDecision& out) {
  const auto session = find_session(id);
  // Reused per calling thread: flatten_into + the engine's slot swap keep
  // the steady-state decide path free of heap allocations (the hook
  // below is a refcount bump, not an alloc).
  thread_local std::vector<float> observation;
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    session->encoder.flatten_into(observation, 0.0f);
  }
  // The session is the completion hook: served accounting and journaling
  // run on the engine thread only when the request produced a decision —
  // a drained, rejected or failed request never inflates the counters.
  return engine_.submit_pooled(observation, out, session, begin_request_trace(id));
}

AsyncDecision ProvisioningService::decide_async_pooled(SessionId id) {
  AsyncDecision out;
  switch (try_decide_async(id, out)) {
    case BatchedInferenceEngine::SubmitResult::kOk:
      return out;
    case BatchedInferenceEngine::SubmitResult::kRejectedBackpressure:
      throw BackpressureRejected();
    case BatchedInferenceEngine::SubmitResult::kDraining:
      break;
  }
  throw std::runtime_error("ProvisioningService: draining, decision rejected");
}

// ------------------------------------------------------ session journaling

void ProvisioningService::init_wal() {
  if (config_.wal.dir.empty()) return;
  wal_on_ = true;
  if (config_.wal.restore) replay_wal();
  std::string error;
  std::lock_guard<std::mutex> lock(wal_mutex_);
  if (!wal_.open(config_.wal.dir, config_.wal.wal, &error)) {
    throw std::runtime_error("ProvisioningService: cannot open session journal: " + error);
  }
}

void ProvisioningService::replay_wal() {
  namespace wal = util::wal;
  const std::size_t partitions = std::max<std::size_t>(1, config_.partition_count);
  const std::size_t width = rl::frame_vars(partitions);
  std::map<SessionId, std::shared_ptr<Session>> live;
  std::vector<float> frame(width);
  SessionId max_id = 0;
  std::string mismatch;  // deferred: throwing through recover would leak its FILE*
  WalRestoreInfo& info = wal_restore_;

  const auto replay = [&](const void* data, std::size_t size) {
    wal::RecordReader r(data, size);
    switch (r.u8()) {
      case kRecOpen: {
        const SessionId id = r.u64();
        const std::uint32_t k = r.u32();
        const std::uint32_t parts = r.u32();
        if (!r.ok) return;
        if (k != config_.history_len || parts != partitions) {
          if (mismatch.empty()) {
            mismatch = "journaled session " + std::to_string(id) + " has k=" +
                       std::to_string(k) + "/partitions=" + std::to_string(parts) +
                       ", service configured k=" + std::to_string(config_.history_len) +
                       "/partitions=" + std::to_string(partitions);
          }
          return;
        }
        auto session = std::make_shared<Session>(*this, id, config_.history_len, partitions);
        Shard& shard = shard_of(id);
        ++shard.total_sessions;  // single-threaded: constructor, pre-start
        live[id] = std::move(session);
        max_id = std::max(max_id, id);
        ++info.sessions_opened;
        break;
      }
      case kRecClose: {
        const SessionId id = r.u64();
        if (!r.ok) return;
        live.erase(id);
        ++info.closes;
        break;
      }
      case kRecFrame: {
        const SessionId id = r.u64();
        const std::uint32_t n = r.u32();
        if (!r.ok || n != width) return;
        if (!r.take(frame.data(), static_cast<std::size_t>(n) * sizeof(float))) return;
        const auto it = live.find(id);
        // Frames for closed/evicted sessions are legal history (a late
        // observe can race a close in the live service) — count, skip.
        if (it != live.end()) it->second->encoder.push_encoded(frame.data(), width);
        ++info.frames;
        break;
      }
      case kRecDecision: {
        const SessionId id = r.u64();
        const std::uint8_t action = r.u8();
        if (!r.ok) return;
        Shard& shard = shard_of(id);
        shard.decisions.fetch_add(1, std::memory_order_relaxed);
        if (action == 1) {
          shard.submits.fetch_add(1, std::memory_order_relaxed);
          ++info.submits;
        }
        const auto it = live.find(id);
        if (it != live.end()) it->second->decisions.fetch_add(1, std::memory_order_relaxed);
        ++info.decisions;
        break;
      }
      case kRecEvict: {
        const SessionId id = r.u64();
        if (!r.ok) return;
        live.erase(id);
        shard_of(id).evictions.fetch_add(1, std::memory_order_relaxed);
        ++info.evictions;
        break;
      }
      default:
        break;  // future record kinds: skip, don't trust
    }
  };

  wal::RecoveryInfo rinfo;
  std::string error;
  if (!wal::recover(config_.wal.dir, replay, &rinfo, &error)) {
    throw std::runtime_error("ProvisioningService: session journal replay failed: " + error);
  }
  if (!mismatch.empty()) {
    throw std::runtime_error("ProvisioningService: session journal mismatch: " + mismatch);
  }
  const double now = util::wall_seconds();
  for (auto& [id, session] : live) {
    session->last_access_seconds.store(now, std::memory_order_relaxed);
    shard_of(id).sessions.emplace(id, std::move(session));
  }
  info.replayed = true;
  info.sessions = live.size();
  info.records = rinfo.records;
  info.truncated_bytes = rinfo.truncated_bytes;
  info.torn_tail = rinfo.torn_tail;
  if (max_id >= next_session_.load(std::memory_order_relaxed)) {
    next_session_.store(max_id + 1, std::memory_order_relaxed);
  }
}

void ProvisioningService::journal_append(const util::wal::Chunk* chunks,
                                         std::size_t count) const {
  std::lock_guard<std::mutex> lock(wal_mutex_);
  if (!wal_.is_open()) return;  // drained: durability is over, serving isn't
  bool ok = wal_.append(chunks, count);
  if (ok && config_.wal.wal.sync == util::wal::SyncLevel::kOnCommit) ok = wal_.commit();
  if (!ok) wal_failed_.store(true, std::memory_order_relaxed);
}

void ProvisioningService::journal_open(SessionId id) const {
  if (!wal_on_) return;
  std::uint8_t head[17];
  head[0] = kRecOpen;
  util::wal::store_u64_le(head + 1, id);
  util::wal::store_u32_le(head + 9, static_cast<std::uint32_t>(config_.history_len));
  util::wal::store_u32_le(head + 13, static_cast<std::uint32_t>(std::max<std::size_t>(
                                         1, config_.partition_count)));
  const util::wal::Chunk chunk{head, sizeof(head)};
  journal_append(&chunk, 1);
}

void ProvisioningService::journal_close(SessionId id) const {
  if (!wal_on_) return;
  std::uint8_t head[9];
  head[0] = kRecClose;
  util::wal::store_u64_le(head + 1, id);
  const util::wal::Chunk chunk{head, sizeof(head)};
  journal_append(&chunk, 1);
}

void ProvisioningService::journal_frame(SessionId id, const float* frame,
                                        std::size_t size) const {
  if (!wal_on_) return;
  std::uint8_t head[13];
  head[0] = kRecFrame;
  util::wal::store_u64_le(head + 1, id);
  util::wal::store_u32_le(head + 9, static_cast<std::uint32_t>(size));
  const util::wal::Chunk chunks[] = {
      {head, sizeof(head)},
      {frame, size * sizeof(float)},
  };
  journal_append(chunks, 2);
}

void ProvisioningService::journal_decision(SessionId id, int action) const {
  if (!wal_on_) return;
  std::uint8_t head[10];
  head[0] = kRecDecision;
  util::wal::store_u64_le(head + 1, id);
  head[9] = static_cast<std::uint8_t>(action == 1 ? 1 : 0);
  const util::wal::Chunk chunk{head, sizeof(head)};
  journal_append(&chunk, 1);
}

void ProvisioningService::journal_evict(SessionId id) const {
  if (!wal_on_) return;
  std::uint8_t head[9];
  head[0] = kRecEvict;
  util::wal::store_u64_le(head + 1, id);
  const util::wal::Chunk chunk{head, sizeof(head)};
  journal_append(&chunk, 1);
}

void ProvisioningService::journal_commit() const {
  std::lock_guard<std::mutex> lock(wal_mutex_);
  if (!wal_.is_open()) return;
  if (!wal_.commit()) wal_failed_.store(true, std::memory_order_relaxed);
}

std::vector<float> ProvisioningService::session_history(SessionId id) const {
  const auto session = find_session(id);
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->encoder.flatten(0.0f);
}

std::size_t ProvisioningService::session_frames_seen(SessionId id) const {
  const auto session = find_session(id);
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->encoder.frames_seen();
}

std::size_t ProvisioningService::session_count() const {
  std::size_t count = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    count += shard.sessions.size();
  }
  return count;
}

ServiceReport ProvisioningService::report() const {
  ServiceReport r;
  r.shards = shards_.size();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      r.open_sessions += shard.sessions.size();
      r.total_sessions += shard.total_sessions;
    }
    r.decisions += shard.decisions.load(std::memory_order_relaxed);
    r.submits += shard.submits.load(std::memory_order_relaxed);
    r.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  r.sweep_wakeups = sweep_wakeups_.load(std::memory_order_relaxed);
  r.sweep_skipped = sweep_skipped_.load(std::memory_order_relaxed);
  r.sweep_stretches = sweep_stretches_.load(std::memory_order_relaxed);
  r.engine = engine_.stats();
  const double started = started_seconds_.load();
  if (started > 0.0) {
    r.uptime_seconds = util::wall_seconds() - started;
    if (r.uptime_seconds > 0.0) {
      r.decisions_per_second = static_cast<double>(r.decisions) / r.uptime_seconds;
    }
  }
  return r;
}

std::string ProvisioningService::metrics_text() const {
  // Live gauges (queue depth, shard sessions, reject rate) refresh on the
  // sweeper tick; refreshing here too keeps sweeper-less configurations
  // current. They are emitted by the registry dump below, NOT by the
  // explicit block — each family must carry exactly one TYPE line.
  refresh_gauges();
  const ServiceReport r = report();
  std::string out;
  out.reserve(1 << 12);
  char line[160];
  const auto emit = [&](const char* name, const char* help, const char* type, double value) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    std::snprintf(line, sizeof(line), "%s %.17g\n", name, value);
    out += line;
  };
  emit("mirage_serve_open_sessions", "currently open sessions", "gauge",
       static_cast<double>(r.open_sessions));
  emit("mirage_serve_session_shards", "session table shard count", "gauge",
       static_cast<double>(r.shards));
  emit("mirage_serve_sessions_total", "sessions opened since start", "counter",
       static_cast<double>(r.total_sessions));
  emit("mirage_serve_decisions_total", "decisions served", "counter",
       static_cast<double>(r.decisions));
  emit("mirage_serve_submits_total", "decisions that said submit", "counter",
       static_cast<double>(r.submits));
  emit("mirage_serve_evictions_total", "sessions evicted by the idle TTL", "counter",
       static_cast<double>(r.evictions));
  emit("mirage_serve_rejected_backpressure_total",
       "decision requests rejected by engine backpressure", "counter",
       static_cast<double>(r.engine.rejected));
  emit("mirage_serve_requests_total", "engine requests served", "counter",
       static_cast<double>(r.engine.requests));
  emit("mirage_serve_ticks_total", "engine batch ticks", "counter",
       static_cast<double>(r.engine.ticks));
  emit("mirage_serve_mean_batch", "mean batch size", "gauge", r.engine.mean_batch);
  emit("mirage_serve_busy_seconds", "engine busy time", "counter", r.engine.busy_seconds);
  emit("mirage_serve_uptime_seconds", "seconds since start()", "gauge", r.uptime_seconds);
  // Process-wide instruments (decision latency and span histograms,
  // scenario/serve counters).
  out += obs::registry().to_prometheus();
  return out;
}

std::string ProvisioningService::health_text() const {
  std::string out;
  out.reserve(512);
  out += "# mirage serve health\n";
  if (!slos_configured_.load(std::memory_order_acquire)) {
    out += "status: unconfigured\n";
  } else {
    out += slos_.health_text();
  }
  const ServiceReport r = report();
  char line[128];
  std::snprintf(line, sizeof(line), "uptime_seconds: %.3f\n", r.uptime_seconds);
  out += line;
  std::snprintf(line, sizeof(line), "open_sessions: %llu\n",
                static_cast<unsigned long long>(r.open_sessions));
  out += line;
  std::snprintf(line, sizeof(line), "queue_depth: %llu\n",
                static_cast<unsigned long long>(engine_.queue_depth()));
  out += line;
  std::snprintf(line, sizeof(line), "rejected_total: %llu\n",
                static_cast<unsigned long long>(r.engine.rejected));
  out += line;
  return out;
}

std::vector<obs::SloStatus> ProvisioningService::slo_statuses() const {
  if (!slos_configured_.load(std::memory_order_acquire)) return {};
  return slos_.statuses();
}

}  // namespace mirage::serve
