#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
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
      "mirage_serve_sweeper_wakeups_total", "background sweeper wakeups");
  return *c;
}

/// Sweeper tick cadence without SLOs: the group-commit flush interval.
constexpr double kTickSeconds = 0.1;

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
  // Register the sweeper's counter now: its first bump can land inside a
  // zero-allocation window, and registration allocates.
  sweeper_wakeups_counter();
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
  // tick, bounding the un-flushed crash-exposure window.
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
  // Journal BEFORE the map insert: nothing (not even the sweeper) can
  // touch the id until it is in the table, so the open record is
  // guaranteed to precede every other record for this session.
  journal_open(id);
  Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  session->last_access_seconds = util::wall_seconds();  // under the lock: list order
  shard.link_newest(*session);
  shard.sessions.emplace(id, std::move(session));
  ++shard.total_sessions;
  return id;
}

void ProvisioningService::close_session(SessionId id) {
  Shard& shard = shard_of(id);
  bool erased = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.sessions.find(id);
    erased = it != shard.sessions.end();
    if (erased) shard.erase(it);
  }
  if (erased) journal_close(id);
}

std::shared_ptr<ProvisioningService::Session> ProvisioningService::find_session(
    SessionId id) const {
  Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) throw_unknown_session(id);
  std::shared_ptr<Session> session = it->second;
  if (config_.session_ttl_seconds > 0.0) {
    // Read under the lock, so racing touches append in clock order.
    const double now = util::wall_seconds();
    if (now - session->last_access_seconds > config_.session_ttl_seconds) {
      // Lazy expiry: reap on touch, then report it exactly like a closed
      // session so a late observe/decide fails loudly instead of serving
      // a zombie ring.
      shard.erase(it);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
      journal_evict(id);
      throw_unknown_session(id);
    }
    session->last_access_seconds = now;
    shard.unlink(*session);
    shard.link_newest(*session);
  }
  return session;
}

double ProvisioningService::pop_expired(Shard& shard, double now, std::size_t* evicted) const {
  const double ttl = config_.session_ttl_seconds;
  std::size_t popped = 0;
  std::lock_guard<std::mutex> lock(shard.mutex);
  while (shard.oldest && now - shard.oldest->last_access_seconds > ttl) {
    const SessionId id = shard.oldest->id;
    shard.erase(shard.sessions.find(id));
    journal_evict(id);
    ++popped;
  }
  if (popped) shard.evictions.fetch_add(popped, std::memory_order_relaxed);
  if (evicted) *evicted += popped;
  return shard.oldest ? shard.oldest->last_access_seconds + ttl : now + ttl;
}

void ProvisioningService::sweeper_loop() {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const bool ttl_on = config_.session_ttl_seconds > 0.0;
  const bool slos_on = slos_configured_.load(std::memory_order_acquire);
  const bool group_commit =
      wal_on_ && config_.wal.wal.sync != util::wal::SyncLevel::kOnCommit;
  // The tick carries the SLO evaluate (10 samples per short window), the
  // gauge refresh and the group commit; a TTL-only service has no tick.
  const double tick = slos_on ? std::min(kTickSeconds, config_.slo.short_window_seconds / 10.0)
                      : group_commit ? kTickSeconds
                                     : kNever;
  double next_tick = util::wall_seconds() + tick;
  for (;;) {
    const double now = util::wall_seconds();
    double next_expiry = kNever;
    if (ttl_on) {
      for (auto& shard : shards_) next_expiry = std::min(next_expiry, pop_expired(shard, now));
    }
    if (now >= next_tick) {
      // All allocation-free in steady state, so the thread can run inside
      // the soak bench's zero-allocation audit window. At sync levels
      // below kOnCommit the tick is the journal's flush and segment-roll
      // point, so a crash loses at most one tick of buffered records.
      if (slos_on) slos_.evaluate(now);
      refresh_gauges();
      if (group_commit) journal_commit();
      next_tick = now + tick;
    }
    // start() runs the sweeper only with TTL or a tick, so this is finite.
    const std::chrono::duration<double> timeout(std::min(next_tick, next_expiry) -
                                                util::wall_seconds());
    std::unique_lock<std::mutex> lock(sweeper_mutex_);
    if (sweeper_cv_.wait_for(lock, timeout, [this] { return sweeper_stop_; })) break;
    sweep_wakeups_.fetch_add(1, std::memory_order_relaxed);
    sweeper_wakeups_counter().add();
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
  if (config_.session_ttl_seconds <= 0.0) return 0;
  const double now = util::wall_seconds();
  std::size_t evicted = 0;
  for (auto& shard : shards_) pop_expired(shard, now, &evicted);
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
    Shard& shard = shard_of(id);
    session->last_access_seconds = now;
    shard.link_newest(*session);
    shard.sessions.emplace(id, std::move(session));
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
