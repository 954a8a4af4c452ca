// Million-session serve soak (ISSUE 7 tentpole gate): drive the sharded
// ProvisioningService through every steady-state contract at once and
// fail loudly when any regresses:
//
//   1. scale     — open `sessions` (default 100k) live sessions across the
//                  sharded table and seed each history ring;
//   2. zero-alloc— closed-loop blocking decides over a hot session set,
//                  audited by the counting allocator: the steady-state
//                  decide path must perform ZERO heap allocations
//                  (observation buffers, ring slots and completion tokens
//                  are all preallocated / circulating). This is the gated
//                  decisions_per_sec measurement;
//   3. latency   — a paced async phase adds to the decision-latency
//                  histogram, then p50/p99/p99.9 come from its snapshot
//                  (every decision of phases 2-3) with the p99 bounded by
//                  `p99_limit_ms`;
//   4. TTL       — the cold sessions (everything outside the hot set) sit
//                  idle past `ttl` and must be reaped by the background
//                  sweeper alone (it pops each shard's expired list heads
//                  and sleeps until the next expiry), evictions >=
//                  sessions - hot;
//   5. backpressure — a deliberately slow model behind a tiny bounded
//                  queue must reject a burst with BackpressureRejected,
//                  never grow the queue without bound.
//
// ISSUE 8 additions: the soak now runs with the SLO engine EVALUATING and
// request-journey tracing ON during the audited window — the zero-alloc
// and throughput gates hold with the judgement layer live:
//
//   2b. overhead — the steady phase runs back-to-back tracing-off /
//                  tracing-on pairs, alternating which side goes first;
//                  the median of the per-pair on/off throughput ratios
//                  must be within 3% of 1, and every tracing-on rep is
//                  audited for zero allocations;
//   6. breach    — a deliberately unmeetable latency SLO over a slow stub
//                  must transition pending->firing and auto-dump a
//                  flight-recorder bundle that passes validate_bundle
//                  (Chrome-trace + Prometheus-lint checks inside) and
//                  still holds the steady phase's request_complete
//                  journey events.
//
// ISSUE 10 additions: the durability and pooled-token layers must not
// disturb the steady-state contracts (both run on dedicated TTL-free
// services after the main fleet drains, so sweeper evictions cannot
// pollute the allocation audit):
//
//   4b. pooled   — a windowed decide_async_pooled loop over recycled
//                  completion tokens is audited for ZERO allocations (the
//                  token pool must recirculate, never grow, once warm);
//   4c. journal  — a service with session-state WAL journaling ON
//                  (sync=none, the serving configuration) and a
//                  journal-off twin run the same steady window in
//                  alternating pairs; the median of the per-pair
//                  journaled/twin throughput ratios must be within 5% of
//                  1, the journaled windows must stay allocation-free,
//                  and the journal must never enter the failed state.
//
// The service is measured around an allocation-free stub model so the
// audit isolates the serving layers (shards, engine ring, token pool)
// from NN-forward internals; bench_serve_throughput covers the real
// model. Emits BENCH_serve_soak.json (decisions_per_sec is the
// bench_compare-gated key).
//
//   ./bench_serve_soak [sessions=100000] [hot=1024] [steady=40000]
//                      [clients=4] [qps=4000] [qps_seconds=2] [ttl=8]
//                      [shards=16] [k=4] [p99_limit_ms=250] [pooled=8192]
//                      [steady_reps=6]  (off/on and journal pairs per gate)
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/config.hpp"
#include "util/time_utils.hpp"

using namespace mirage;

namespace {

/// Allocation-free decision stub: the serving layers see a real
/// ServableModel (virtual infer_into) whose forward touches no heap.
struct StubModel : serve::ServableModel {
  static core::CheckpointInfo stub_info(std::size_t k) {
    core::CheckpointInfo info;
    info.history_len = k;
    info.state_dim = rl::kFrameDim;
    return info;
  }
  explicit StubModel(std::size_t k)
      : ServableModel({"soak", "stub", "none"}, stub_info(k), "<stub>", 1, nullptr) {}
  void infer_into(const std::vector<std::vector<float>>& observations,
                  std::vector<serve::Decision>& out) const override {
    out.resize(observations.size());
    for (std::size_t i = 0; i < observations.size(); ++i) {
      float acc = 0.0f;
      for (const float v : observations[i]) acc += v;
      out[i].action = acc > 0.0f ? 1 : 0;
      out[i].score_submit = acc;
      out[i].score_wait = -acc;
      out[i].model_version = version();
    }
  }
};

/// Slow variant for the backpressure phase: each tick stalls long enough
/// for a submission burst to overflow the bounded queue.
struct SlowStubModel : StubModel {
  SlowStubModel(std::size_t k, std::chrono::microseconds stall)
      : StubModel(k), stall_(stall) {}
  void infer_into(const std::vector<std::vector<float>>& observations,
                  std::vector<serve::Decision>& out) const override {
    std::this_thread::sleep_for(stall_);
    StubModel::infer_into(observations, out);
  }
  std::chrono::microseconds stall_;
};

/// Overhead in percent from per-pair (treated / baseline) throughput
/// ratios: 1 - their median. A pair's two sides run back to back, so host
/// drift between pairs cancels out of each ratio.
double median_overhead_pct(std::vector<double> ratios) {
  if (ratios.empty()) return 0.0;
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n = ratios.size();
  const double median = n % 2 ? ratios[n / 2] : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
  return (1.0 - median) * 100.0;
}

sim::StateSample soak_sample(std::uint64_t step) {
  sim::StateSample s;
  s.now = static_cast<util::SimTime>(step) * 600;
  s.total_nodes = 88;
  s.free_nodes = static_cast<std::int32_t>(step % 89);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Config::from_args(argc, argv);
  const auto sessions = static_cast<std::size_t>(cli.get_int("sessions", 100000));
  const auto hot = std::min(sessions, static_cast<std::size_t>(cli.get_int("hot", 1024)));
  const auto steady = static_cast<std::size_t>(cli.get_int("steady", 40000));
  const auto clients = static_cast<std::size_t>(cli.get_int("clients", 4));
  const auto qps = static_cast<std::size_t>(cli.get_int("qps", 4000));
  const double qps_seconds = cli.get_double("qps_seconds", 2.0);
  const double ttl = cli.get_double("ttl", 8.0);
  const auto shards = static_cast<std::size_t>(cli.get_int("shards", 16));
  const auto k = static_cast<std::size_t>(cli.get_int("k", 4));
  const double p99_limit_ms = cli.get_double("p99_limit_ms", 250.0);

  serve::ServiceConfig cfg;
  cfg.history_len = k;
  cfg.shards = shards;
  cfg.session_ttl_seconds = ttl;
  cfg.engine.max_batch = static_cast<std::size_t>(cli.get_int("max_batch", 256));
  cfg.engine.coalesce_wait = std::chrono::microseconds(cli.get_int("coalesce_us", 100));
  cfg.engine.max_queue = static_cast<std::size_t>(cli.get_int("max_queue", 8192));
  // The audited window must not ride the shared pool: pool submission
  // allocates a task per tick. The engine thread runs the stub inline.
  cfg.engine.use_thread_pool = false;
  // SLO evaluation live during the audit: generous objectives that a
  // healthy soak never breaches, so the sweeper ticks the full evaluate
  // path without state transitions (the allocation-free steady case)
  // every min(0.1 s, short window / 10) = 0.1 s. The deliberate breach
  // runs against its own service.
  cfg.slo.enabled = true;
  cfg.slo.latency_target_seconds = 30.0;
  cfg.slo.latency_quantile = 99.0;
  cfg.slo.reject_budget = 0.5;
  cfg.slo.short_window_seconds = 2.0;
  cfg.slo.long_window_seconds = 10.0;
  cfg.slo.dump_on_fire = false;

  auto model = std::make_shared<const StubModel>(k);
  serve::ProvisioningService service(serve::ModelSnapshot(model), cfg);
  service.start();
  std::printf("serve soak: %zu sessions, %zu shards, hot set %zu, ttl %.1fs\n\n",
              sessions, shards, hot, ttl);

  // ---- phase 1: open the fleet -------------------------------------------
  double t0 = util::wall_seconds();
  std::vector<serve::SessionId> ids;
  ids.reserve(sessions);
  const rl::JobPairContext ctx;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto id = service.open_session();
    service.observe(id, soak_sample(i), ctx);
    ids.push_back(id);
  }
  const double open_seconds = util::wall_seconds() - t0;
  const double open_end = util::wall_seconds();
  const std::size_t open_sessions_peak = service.session_count();
  std::printf("open        %zu sessions in %.2f s (%.0f opens/s), table holds %zu\n",
              sessions, open_seconds, static_cast<double>(sessions) / open_seconds,
              open_sessions_peak);

  // ---- phase 2: zero-alloc closed-loop steady state + tracing overhead ---
  // Warmup grows every thread_local buffer, ring-slot capacity and the
  // completion-token pool to steady size; then the measured window must not
  // allocate at all. The phase runs in back-to-back tracing-off/tracing-on
  // pairs (obs::set_enabled gates journey events, spans and exemplars),
  // alternating which side runs first; the 3% overhead gate is on the
  // median per-pair ratio, and the allocation audit covers every
  // TRACING-ON rep — the full judgement layer (journey trace + SLO
  // evaluate on the sweeper) inside the audited window.
  struct SteadyRep {
    double decisions_per_sec = 0.0;
    std::uint64_t alloc_delta = 0;
    std::uint64_t served = 0;
  };
  const std::size_t per_client =
      std::max<std::size_t>(1, steady / std::max<std::size_t>(1, clients));
  const auto run_steady = [&](serve::ProvisioningService& svc,
                              const std::vector<serve::SessionId>& sids, bool tracing_on) {
    obs::set_enabled(tracing_on);
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> steady_served{0};
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        serve::Decision d;
        // Warmup must cycle the ENTIRE engine ring: every slot's
        // observation buffer starts empty and allocates once when it
        // first circulates back to a caller, so the audited window only
        // starts after each of the max_queue slots has carried at least
        // one request. Fresh client threads each rep also need their
        // thread_local observation buffers grown.
        const std::size_t warm = cfg.engine.max_queue / clients + 1024;
        const std::size_t pool = std::min(hot, sids.size());
        for (std::size_t i = 0; i < warm; ++i) {
          svc.try_decide(sids[(c * 7919 + i) % pool], d);
        }
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::uint64_t served = 0;
        for (std::size_t i = 0; i < per_client; ++i) {
          if (svc.try_decide(sids[(c * 104729 + i) % pool], d) ==
              serve::BatchedInferenceEngine::SubmitResult::kOk) {
            ++served;
          }
        }
        steady_served.fetch_add(served);
      });
    }
    while (ready.load() < clients) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // engine settles
    const std::uint64_t alloc0 = bench::allocation_count();
    const double rep_t0 = util::wall_seconds();
    go.store(true, std::memory_order_release);
    for (auto& t : workers) t.join();
    SteadyRep rep;
    const double rep_seconds = util::wall_seconds() - rep_t0;
    rep.alloc_delta = bench::allocation_count() - alloc0;
    rep.served = steady_served.load();
    rep.decisions_per_sec = static_cast<double>(rep.served) / rep_seconds;
    obs::set_enabled(true);
    return rep;
  };

  // Runs `pairs` back-to-back (baseline, treated) reps, alternating which
  // side goes first, hands each pair to `record`, and returns the median
  // per-pair overhead.
  const auto pairs = static_cast<std::size_t>(cli.get_int("steady_reps", 6));
  const auto run_pairs = [pairs](auto baseline, auto treated, auto record) {
    std::vector<double> ratios;
    for (std::size_t r = 0; r < pairs; ++r) {
      SteadyRep base, treat;
      if (r % 2 == 0) {
        base = baseline();
        treat = treated();
      } else {
        treat = treated();
        base = baseline();
      }
      if (base.decisions_per_sec > 0.0) {
        ratios.push_back(treat.decisions_per_sec / base.decisions_per_sec);
      }
      record(base, treat);
    }
    return median_overhead_pct(std::move(ratios));
  };

  SteadyRep best_off, best_on;
  std::uint64_t traced_allocs = 0, traced_served = 0;
  const double tracing_overhead_pct = run_pairs(
      [&] { return run_steady(service, ids, /*tracing_on=*/false); },
      [&] { return run_steady(service, ids, /*tracing_on=*/true); },
      [&](const SteadyRep& off, const SteadyRep& on) {
        if (off.decisions_per_sec > best_off.decisions_per_sec) best_off = off;
        if (on.decisions_per_sec > best_on.decisions_per_sec) best_on = on;
        traced_allocs += on.alloc_delta;
        traced_served += on.served;
        std::printf("steady pair off %.0f/s (%llu allocs)   on %.0f/s (%llu allocs)\n",
                    off.decisions_per_sec, static_cast<unsigned long long>(off.alloc_delta),
                    on.decisions_per_sec, static_cast<unsigned long long>(on.alloc_delta));
      });
  const double decisions_per_sec = best_on.decisions_per_sec;
  const std::uint64_t alloc_delta = traced_allocs;
  const double allocs_per_decide =
      traced_served ? static_cast<double>(traced_allocs) / static_cast<double>(traced_served)
                    : static_cast<double>(traced_allocs);
  std::printf(
      "steady      best tracing-on %.0f/s, best tracing-off %.0f/s (median pair overhead "
      "%.2f%%), %llu traced allocs (%.4f/decide)\n",
      best_on.decisions_per_sec, best_off.decisions_per_sec, tracing_overhead_pct,
      static_cast<unsigned long long>(alloc_delta), allocs_per_decide);

  // ---- phase 3: paced async latency --------------------------------------
  const std::size_t burst = std::max<std::size_t>(1, qps / 1000);
  std::vector<serve::AsyncDecision> in_flight;
  in_flight.reserve(2048);
  std::size_t paced = 0;
  const double pace_end = util::wall_seconds() + qps_seconds;
  while (util::wall_seconds() < pace_end) {
    for (std::size_t b = 0; b < burst; ++b) {
      in_flight.push_back(service.decide_async_pooled(ids[paced++ % hot]));
    }
    if (in_flight.size() >= 1024) {
      for (auto& handle : in_flight) handle.get();
      in_flight.clear();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& handle : in_flight) handle.get();
  // This service is the process's first engine, so the histogram holds
  // exactly the steady and paced decisions.
  const obs::Histogram::Snapshot latency = serve::decision_latency_histogram().snapshot();
  const double p50_ms = latency.percentile(50.0) * 1e3;
  const double p99_ms = latency.percentile(99.0) * 1e3;
  const double p999_ms = latency.percentile(99.9) * 1e3;
  std::printf("latency     p50 %.3f ms  p99 %.3f ms  p99.9 %.3f ms  (%llu samples, %zu paced)\n",
              p50_ms, p99_ms, p999_ms, static_cast<unsigned long long>(latency.count), paced);

  // ---- phase 4: TTL eviction of the cold fleet ---------------------------
  // Cold sessions were last touched when opened; once the TTL has passed,
  // the background sweeper alone must reap them all: nothing here touches
  // or sweeps them. (The hot set may expire too once the pacing stops —
  // the gate is on the cold majority.)
  const double ttl_deadline = open_end + ttl + 0.5;
  while (util::wall_seconds() < ttl_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const auto evict_wait_deadline = util::wall_seconds() + 10.0;
  while (service.session_count() > hot && util::wall_seconds() < evict_wait_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto report = service.report();
  std::printf("ttl         %llu evictions, %zu sessions remain\n",
              static_cast<unsigned long long>(report.evictions), report.open_sessions);
  service.drain_and_stop();

  // The durability/pooled audits below run on dedicated TTL-free services
  // AFTER the main service drained: a background sweeper reaping the cold
  // fleet mid-window would charge its eviction bookkeeping to the global
  // allocation counter and fail the zero-alloc gates spuriously.

  // ---- phase 4b: pooled-token async audit ---------------------------------
  // decide_async_pooled recycles completion tokens from a pool instead of
  // allocating completion state per request. A windowed loop keeps
  // kPooledWindow handles in flight; after the warmup has grown the pool
  // to window depth, the audited window must not allocate at all — the
  // same tokens circulate for every request.
  double pooled_decisions_per_sec = 0.0;
  std::uint64_t pooled_allocs = 0;
  {
    serve::ServiceConfig pcfg = cfg;
    pcfg.session_ttl_seconds = 0.0;
    serve::ProvisioningService pooled_service(serve::ModelSnapshot(model), pcfg);
    pooled_service.start();
    std::vector<serve::SessionId> pids;
    pids.reserve(hot);
    for (std::size_t i = 0; i < hot; ++i) {
      const auto id = pooled_service.open_session();
      pooled_service.observe(id, soak_sample(i), ctx);
      pids.push_back(id);
    }
    constexpr std::size_t kPooledWindow = 8;
    const auto pooled_n = static_cast<std::size_t>(cli.get_int("pooled", 8192));
    std::array<serve::AsyncDecision, kPooledWindow> window;
    const auto pump = [&](std::size_t count, std::size_t phase) {
      for (std::size_t i = 0; i < count; ++i) {
        auto& slot = window[i % kPooledWindow];
        if (slot.valid()) (void)slot.get();
        slot = pooled_service.decide_async_pooled(pids[(phase * 524287 + i) % hot]);
      }
      for (auto& slot : window) {
        if (slot.valid()) (void)slot.get();
      }
    };
    // Warm the token pool AND the full engine ring: every max_queue slot
    // allocates its observation buffer the first time it circulates, so
    // the audited window must start after each slot has carried at least
    // one request (same sizing rule as the steady phase's warmup).
    pump(cfg.engine.max_queue + 1024, 0);
    const std::uint64_t alloc0 = bench::allocation_count();
    const double pooled_t0 = util::wall_seconds();
    pump(pooled_n, 1);
    pooled_decisions_per_sec =
        static_cast<double>(pooled_n) / (util::wall_seconds() - pooled_t0);
    pooled_allocs = bench::allocation_count() - alloc0;
    pooled_service.drain_and_stop();
    std::printf("pooled      %.0f decides/s over a %zu-deep token window (%llu allocs)\n",
                pooled_decisions_per_sec, kPooledWindow,
                static_cast<unsigned long long>(pooled_allocs));
  }

  // ---- phase 4c: steady state with session journaling ON ------------------
  // A service with a WAL journal at sync=none (the serving configuration:
  // append on the decide path, group commit on the sweeper tick) and a
  // journal-off twin run the identical steady window in back-to-back
  // pairs, alternating which goes first; the 5% gate is on the median
  // per-pair ratio. The segment size is large enough that no roll lands
  // inside an audited window, so the journaled decide path must also be
  // allocation-free. Both services stay started for the whole phase so a
  // pair can run back to back on warm sessions; the idle one costs either
  // side the same: its engine thread sleeps on an empty queue and its
  // sweeper runs the 0.1 s SLO tick, whichever service is measured.
  SteadyRep best_journal;
  std::uint64_t journal_allocs = 0;
  double journal_overhead_pct = 0.0;
  bool journal_failed = true;
  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() / "mirage_soak_wal";
  std::filesystem::remove_all(wal_dir);
  {
    serve::ServiceConfig twin_cfg = cfg;
    twin_cfg.session_ttl_seconds = 0.0;
    serve::ServiceConfig jcfg = twin_cfg;
    jcfg.wal.dir = wal_dir.string();
    jcfg.wal.wal.sync = util::wal::SyncLevel::kNone;
    jcfg.wal.wal.segment_bytes = 256u << 20;
    jcfg.wal.restore = false;
    serve::ProvisioningService twin_service(serve::ModelSnapshot(model), twin_cfg);
    serve::ProvisioningService journal_service(serve::ModelSnapshot(model), jcfg);
    const auto open_hot = [&](serve::ProvisioningService& svc) {
      svc.start();
      std::vector<serve::SessionId> sids;
      sids.reserve(hot);
      for (std::size_t i = 0; i < hot; ++i) {
        const auto id = svc.open_session();
        svc.observe(id, soak_sample(i), ctx);
        sids.push_back(id);
      }
      return sids;
    };
    const std::vector<serve::SessionId> tids = open_hot(twin_service);
    const std::vector<serve::SessionId> jids = open_hot(journal_service);
    journal_overhead_pct = run_pairs(
        [&] { return run_steady(twin_service, tids, /*tracing_on=*/true); },
        [&] { return run_steady(journal_service, jids, /*tracing_on=*/true); },
        [&](const SteadyRep& twin, const SteadyRep& journaled) {
          if (journaled.decisions_per_sec > best_journal.decisions_per_sec) {
            best_journal = journaled;
          }
          journal_allocs += journaled.alloc_delta;
          std::printf("journal pair off %.0f/s   on %.0f/s (%llu allocs)\n",
                      twin.decisions_per_sec, journaled.decisions_per_sec,
                      static_cast<unsigned long long>(journaled.alloc_delta));
        });
    journal_failed = journal_service.wal_failed();
    journal_service.drain_and_stop();
    twin_service.drain_and_stop();
  }
  std::filesystem::remove_all(wal_dir);
  std::printf("journal     best journaled %.0f/s (median pair overhead %.2f%%)\n",
              best_journal.decisions_per_sec, journal_overhead_pct);

  // ---- phase 5: backpressure under a saturated engine --------------------
  serve::ServiceConfig bp_cfg;
  bp_cfg.history_len = k;
  bp_cfg.shards = 1;
  bp_cfg.engine.max_batch = 1;
  bp_cfg.engine.max_queue = static_cast<std::size_t>(cli.get_int("bp_queue", 8));
  bp_cfg.engine.coalesce_wait = std::chrono::microseconds(0);
  bp_cfg.engine.use_thread_pool = false;
  auto slow = std::make_shared<const SlowStubModel>(
      k, std::chrono::microseconds(cli.get_int("bp_stall_us", 2000)));
  serve::ProvisioningService bp_service(serve::ModelSnapshot(slow), bp_cfg);
  bp_service.start();
  const auto bp_id = bp_service.open_session();
  bp_service.observe(bp_id, soak_sample(0), ctx);
  std::vector<serve::AsyncDecision> bp_handles;
  const auto bp_burst = static_cast<std::size_t>(cli.get_int("bp_burst", 64));
  std::size_t bp_rejected = 0;
  for (std::size_t i = 0; i < bp_burst; ++i) {
    try {
      bp_handles.push_back(bp_service.decide_async_pooled(bp_id));
    } catch (const serve::BackpressureRejected&) {
      ++bp_rejected;
    }
  }
  for (auto& handle : bp_handles) handle.get();
  bp_service.drain_and_stop();
  const auto bp_report = bp_service.report();
  std::printf("backpressure %zu of %zu burst requests rejected (engine counted %llu)\n\n",
              bp_rejected, bp_burst, static_cast<unsigned long long>(bp_report.engine.rejected));

  // ---- phase 6: forced SLO breach -> firing alert -> flight bundle -------
  // An unmeetable latency objective (sub-microsecond target) over a slow
  // stub must burn both windows, transition pending->firing, and the fire
  // hook must dump a flight-recorder bundle that validates. Tracing is
  // switched OFF (obs::set_enabled) before breach traffic starts, so the
  // fire-time dump snapshots a frozen ring that still carries the steady
  // phase's journey events; the latency histogram the SLO reads keeps
  // counting either way.
  const std::string flight_dir = cli.get_string("flight_dir", "flight_soak");
  {
    obs::FlightRecorderConfig frc;
    frc.directory = flight_dir;
    frc.max_events = 2048;
    obs::flight_recorder().configure(frc);
  }
  obs::set_enabled(false);
  std::uint64_t slo_fires = 0;
  bool bundle_valid = false;
  std::string bundle_error = "no bundle dumped";
  {
    serve::ServiceConfig breach_cfg;
    breach_cfg.history_len = k;
    breach_cfg.shards = 1;
    breach_cfg.engine.max_batch = 8;
    breach_cfg.engine.coalesce_wait = std::chrono::microseconds(0);
    breach_cfg.engine.use_thread_pool = false;
    breach_cfg.slo.enabled = true;
    breach_cfg.slo.latency_target_seconds = 1e-6;  // unmeetable on purpose
    breach_cfg.slo.latency_quantile = 50.0;
    breach_cfg.slo.short_window_seconds = 0.2;  // sweeper tick = 0.2 / 10 = 0.02 s
    breach_cfg.slo.long_window_seconds = 0.5;
    breach_cfg.slo.pending_seconds = 0.0;
    breach_cfg.slo.resolve_seconds = 60.0;
    breach_cfg.slo.dump_on_fire = true;
    auto breach_slow = std::make_shared<const SlowStubModel>(
        k, std::chrono::microseconds(cli.get_int("breach_stall_us", 500)));
    serve::ProvisioningService breach_service(serve::ModelSnapshot(breach_slow), breach_cfg);
    breach_service.start();
    const auto breach_id = breach_service.open_session();
    breach_service.observe(breach_id, soak_sample(0), ctx);
    serve::Decision d;
    const double breach_deadline = util::wall_seconds() + 5.0;
    while (util::wall_seconds() < breach_deadline) {
      breach_service.try_decide(breach_id, d);
      slo_fires = 0;
      for (const auto& status : breach_service.slo_statuses()) {
        slo_fires += status.fires;
      }
      if (slo_fires > 0) break;
    }
    breach_service.drain_and_stop();
  }
  // Find the newest bundle and validate it (Chrome trace + Prometheus
  // lint + manifest checks).
  std::string newest_bundle;
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(flight_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_directory(ec) && name.rfind("bundle_", 0) == 0 &&
          entry.path().string() > newest_bundle) {
        newest_bundle = entry.path().string();
      }
    }
  }
  std::size_t bundle_journeys = 0;
  if (!newest_bundle.empty()) {
    bundle_valid = obs::FlightRecorder::validate_bundle(newest_bundle, &bundle_error);
    std::ifstream in(std::filesystem::path(newest_bundle) / "trace.json");
    const std::string trace{std::istreambuf_iterator<char>(in), {}};
    const std::string needle = "\"cat\":\"request_complete\"";
    for (auto at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + needle.size())) {
      ++bundle_journeys;
    }
  }
  obs::set_enabled(true);
  std::printf("breach      %llu fire(s), bundle %s (%s), %zu request_complete events\n\n",
              static_cast<unsigned long long>(slo_fires),
              bundle_valid ? "valid" : "INVALID",
              bundle_valid ? newest_bundle.c_str() : bundle_error.c_str(), bundle_journeys);

  // ---- gates --------------------------------------------------------------
  bool ok = true;
  const auto gate = [&](bool pass, const char* what) {
    std::printf("  [%s] %s\n", pass ? "PASS" : "FAIL", what);
    ok = ok && pass;
  };
  gate(open_sessions_peak == sessions, "all sessions opened and held concurrently");
  gate(alloc_delta == 0,
       "zero steady-state heap allocations per decide (tracing + SLO eval on)");
  gate(tracing_overhead_pct <= 3.0, "journey tracing overhead within 3% (median of pairs)");
  gate(pooled_allocs == 0, "pooled-token async window allocation-free once warm");
  gate(journal_allocs == 0,
       "zero steady-state heap allocations with session journaling on");
  gate(journal_overhead_pct <= 5.0,
       "session journaling overhead within 5% at sync=none (median of pairs)");
  gate(!journal_failed, "session journal stayed healthy through the soak");
  gate(p99_ms <= p99_limit_ms, "p99 latency within bound");
  gate(report.evictions >= sessions - hot, "TTL reaped the cold fleet");
  gate(bp_rejected > 0 && bp_report.engine.rejected >= bp_rejected,
       "bounded queue rejected the burst with backpressure");
  gate(slo_fires > 0, "forced latency breach transitioned the SLO to firing");
  gate(bundle_valid, "fire-time flight-recorder bundle validates");
  gate(bundle_journeys > 0, "fire-time bundle carries the steady phase's journey events");

  bench::BenchJson json("serve_soak");
  json.add("params", "sessions=" + std::to_string(sessions) + ",hot=" + std::to_string(hot) +
                         ",steady=" + std::to_string(steady) + ",clients=" +
                         std::to_string(clients) + ",shards=" + std::to_string(shards) +
                         ",k=" + std::to_string(k) + ",slo=on")
      .add("sessions", static_cast<std::int64_t>(sessions))
      .add("shards", static_cast<std::int64_t>(shards))
      .add("open_sessions_peak", static_cast<std::int64_t>(open_sessions_peak))
      .add("opens_per_sec", static_cast<double>(sessions) / open_seconds)
      .add("decisions_per_sec", decisions_per_sec)
      .add("decisions_per_sec_tracing_off", best_off.decisions_per_sec)
      .add("tracing_overhead_pct", tracing_overhead_pct)
      .add("steady_allocs_per_decide", allocs_per_decide)
      .add("pooled_decisions_per_sec", pooled_decisions_per_sec)
      .add("pooled_allocs", static_cast<std::int64_t>(pooled_allocs))
      .add("decisions_per_sec_journaled", best_journal.decisions_per_sec)
      .add("journal_overhead_pct", journal_overhead_pct)
      .add("journal_allocs", static_cast<std::int64_t>(journal_allocs))
      .add("slo_fires", static_cast<std::int64_t>(slo_fires))
      .add("bundle_valid", static_cast<std::int64_t>(bundle_valid ? 1 : 0))
      .add("latency_p50_ms", p50_ms)
      .add("latency_p99_ms", p99_ms)
      .add("latency_p999_ms", p999_ms)
      .add("evictions", static_cast<std::int64_t>(report.evictions))
      .add("rejected", static_cast<std::int64_t>(bp_report.engine.rejected))
      .add("target_met", static_cast<std::int64_t>(ok ? 1 : 0));
  json.add_resource_fields();
  json.write();

  std::printf("\nserve soak: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 2;
}
