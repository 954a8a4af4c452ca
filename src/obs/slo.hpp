// SLO engine (ISSUE 8 tentpole): the judgement layer over the raw
// signals in obs/metrics. Declarative objectives — a latency-quantile
// target over a Histogram, or an error/reject-rate budget over a pair of
// Counters — are evaluated over sliding windows with MULTI-WINDOW
// BURN-RATE alerting (the SRE workbook recipe): an alert condition holds
// only while BOTH the short and the long window burn at a rate of 1 or
// more (spending the budget at least as fast as it accrues), so a brief
// spike (short hot, long cold) and a stale incident (long hot, short
// cold) both stay quiet.
//
// Burn rate is unified across SLO kinds by reducing each to a bad/total
// event ratio against an error budget:
//
//   error-rate SLO    bad = the bad counter's delta over the window,
//                     total = bad + good; budget = SloSpec::budget.
//   latency SLO       bad = samples that landed in histogram buckets
//                     above the target (the straddling bucket counts as
//                     bad — conservative by design), total = all samples;
//                     budget = (100 - quantile) / 100, i.e. "p99 < 250ms"
//                     tolerates 1% of samples over 250ms.
//
//   burn(window) = (bad / total) / budget      (0 when the window is empty)
//
// Alert state machine (Prometheus-style `for` + resolve hold-down):
//
//   inactive --condition--> pending --held pending_seconds--> firing
//   pending --clear--> inactive
//   firing --clear held resolve_seconds--> resolved --> inactive
//   resolved --condition--> pending
//
// evaluate(now) is what ticks the machine — the serve tier calls it from
// the TTL sweeper thread. The evaluation path is ALLOCATION-FREE in
// steady state (preallocated snapshot rings, no transitions): it runs
// inside the soak bench's zero-allocation audit window. Transitions may
// allocate (status copies for fire callbacks) — they are incidents, not
// steady state. Fire callbacks are invoked AFTER the engine mutex is
// released, so a callback may call back into health_text()/statuses()
// (the flight-recorder dump path does exactly that).
//
// Every SLO registers live instruments in obs::registry():
//   mirage_slo_<name>_state        gauge   0=inactive 1=pending 2=firing 3=resolved
//   mirage_slo_<name>_burn_short   gauge
//   mirage_slo_<name>_burn_long    gauge
//   mirage_slo_<name>_fires_total  counter
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mirage::obs {

enum class SloKind : std::uint8_t {
  kLatencyQuantile,  ///< "p<quantile> of `latency` stays under target_seconds"
  kErrorRate,        ///< "bad/(bad+good) stays under budget"
};

enum class AlertState : std::uint8_t { kInactive, kPending, kFiring, kResolved };

const char* alert_state_name(AlertState s);

/// One declarative objective. Fill the block matching `kind`; windows and
/// the state-machine timings apply to both kinds.
struct SloSpec {
  std::string name;  ///< prom-safe ([a-z0-9_]) — sanitized on registration
  SloKind kind = SloKind::kLatencyQuantile;

  // --- kLatencyQuantile sources (must outlive the engine)
  const Histogram* latency = nullptr;
  double quantile = 99.0;          ///< percent, e.g. 99.9
  double target_seconds = 0.25;

  // --- kErrorRate sources (must outlive the engine)
  const Counter* bad = nullptr;
  const Counter* good = nullptr;   ///< total = bad + good
  double budget = 0.01;            ///< tolerated bad fraction

  // --- windows + alerting
  double short_window_seconds = 60.0;
  double long_window_seconds = 300.0;
  double pending_seconds = 0.0;    ///< `for`: condition must hold this long
  double resolve_seconds = 60.0;   ///< clear hold-down before resolved
};

/// Point-in-time verdict for one SLO (what health_text() renders and fire
/// callbacks receive).
struct SloStatus {
  std::string name;
  SloKind kind = SloKind::kLatencyQuantile;
  AlertState state = AlertState::kInactive;
  double burn_short = 0.0;
  double burn_long = 0.0;
  double budget = 0.0;             ///< effective budget (derived for latency)
  std::uint64_t fires = 0;         ///< lifetime pending->firing transitions
  double since_seconds = 0.0;      ///< evaluate-time the current state began
};

class SloEngine {
 public:
  using FireCallback = std::function<void(const SloStatus&)>;

  SloEngine() = default;
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Register an objective (validates the spec's sources; throws
  /// std::invalid_argument on a spec missing its kind's source or with
  /// non-positive windows). Registration allocates; do it at startup.
  void add(SloSpec spec);

  /// Invoked (outside the engine lock) for every pending->firing
  /// transition observed by evaluate().
  void on_fire(FireCallback cb);

  /// Tick every SLO's sliding windows and state machine at `now_seconds`
  /// (wall or test-controlled). Allocation-free when no state transitions
  /// occur. Returns the number of SLOs that TRANSITIONED to firing during
  /// this call.
  std::size_t evaluate(double now_seconds);

  std::vector<SloStatus> statuses() const;

  /// Deterministic plain-text health verdict: one `status:` header line
  /// (ok | pending | firing — the worst state over all SLOs) followed by
  /// one `slo ...` line per objective. This is the body of the serve
  /// tier's health endpoint.
  std::string health_text() const;

  std::size_t size() const;

 private:
  /// Cumulative source snapshot at one evaluate() tick.
  struct Sample {
    double ts = 0.0;
    double bad = 0.0;    ///< cumulative bad events
    double total = 0.0;  ///< cumulative total events
  };

  struct Slo {
    SloSpec spec;
    double effective_budget = 0.01;
    std::size_t first_bad_bucket = 0;  ///< latency: buckets >= this are bad
    // Preallocated snapshot ring (overwrites oldest past kRingCapacity),
    // samples at least long_window / (kRingCapacity - 1) apart.
    std::vector<Sample> ring;
    std::size_t ring_head = 0;   ///< oldest live sample
    std::size_t ring_size = 0;
    // State machine.
    AlertState state = AlertState::kInactive;
    double state_since = 0.0;
    double condition_since = 0.0;  ///< first tick of the current streak
    double clear_since = 0.0;      ///< first clear tick while firing
    std::uint64_t fires = 0;
    double burn_short = 0.0;
    double burn_long = 0.0;
    // Registry instruments (process-wide, shared across engines by name).
    Gauge* state_gauge = nullptr;
    Gauge* burn_short_gauge = nullptr;
    Gauge* burn_long_gauge = nullptr;
    Counter* fires_counter = nullptr;
  };

  static constexpr std::size_t kRingCapacity = 512;

  void read_sources(const Slo& slo, double* bad, double* total) const;
  double burn_over_window(const Slo& slo, const Sample& now, double window) const;
  SloStatus status_of_locked(const Slo& slo) const;

  mutable std::mutex mutex_;
  std::vector<Slo> slos_;
  std::vector<FireCallback> fire_callbacks_;
  std::vector<std::size_t> fired_scratch_;  ///< reserve()d in add()
};

/// Sanitize an SLO/metric name fragment to [a-zA-Z0-9_].
std::string sanitize_metric_name(const std::string& name);

}  // namespace mirage::obs
