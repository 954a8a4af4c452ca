// Unified observability: process-wide metrics registry.
//
// Three instrument kinds, all allocation-free and lock-free on the update
// path so instrumented hot loops (the simulator's zero-steady-state-alloc
// contract, the serve tick) keep their guarantees with metrics ON:
//
//   Counter    monotonically increasing u64; updates are relaxed atomic
//              adds into one of kShards cache-line-separated slots picked
//              by a per-thread id, so concurrent writers do not bounce one
//              line. value() sums the shards.
//   Gauge      last-written double (free nodes, queue depth, sessions).
//   Histogram  log-linear buckets: each power-of-2 octave of microseconds
//              (up to ~36 minutes) is split into 8 equal sub-buckets, plus
//              a sharded nanosecond sum. record() is a handful of integer
//              ops and two relaxed adds. Every reader (percentile, mean,
//              exemplars, the Prometheus dump, SLO windows) works on one
//              snapshot() that reads each bucket once, so its count always
//              equals its bucket total. This is also the serve decision
//              latency instrument: interpolated percentiles land within
//              one sub-bucket (<= 1/8 of the value) of the exact sample.
//
// Registration (registry().counter("name") etc.) allocates and takes a
// mutex — do it once at startup or via a function-local static, never per
// update. Handles are stable for the registry's lifetime (deque storage).
//
// Instrumentation is runtime-toggleable: obs::set_enabled(false) turns
// every OBS_SPAN and trace hook into a relaxed load + branch. Metrics
// never feed back into simulation results — the registry is write-only
// from the domain's point of view, which is what keeps parallel==serial
// sweep results bitwise identical with metrics on or off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace mirage::obs {

/// Global instrumentation switch (spans + trace hooks). Metrics handles
/// stay usable either way; the flag gates the hooks sprinkled through hot
/// paths. Relaxed: toggling mid-flight is best-effort by design.
bool enabled();
void set_enabled(bool on);

namespace detail {
inline constexpr std::size_t kShards = 16;
/// Dense per-thread slot in [0, kShards) — stable for the thread's life.
std::size_t thread_shard();

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::PaddedCount shards_[detail::kShards];
};

class Gauge {
 public:
  void set(double v) { bits_.store(to_bits(v), std::memory_order_relaxed); }
  double value() const { return from_bits(bits_.load(std::memory_order_relaxed)); }

 private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t b);
  std::atomic<std::uint64_t> bits_{0};
};

/// Log-linear buckets over seconds. Octave 0 is [0, 1) us, octave c in
/// 1..31 is [2^(c-1), 2^c) us, and each octave is split into kSubBuckets
/// equal-width buckets. The last bucket is overflow: >= 2^31 us (~36 min)
/// and +inf. NaN and values <= 0 land in bucket 0. The Prometheus dump
/// emits the cumulative count at every octave boundary, i.e. the 33 bounds
/// 1 us, 2 us, ..., 2^31 us and +Inf.
///
/// Octaves can carry EXEMPLARS: record(seconds, exemplar_id) stamps the
/// sample's octave with the id (a trace/request id), last-writer-wins.
/// That is the link from an aggregate percentile back to one concrete
/// request journey in the trace ring: exemplar_for_percentile(99.9)
/// returns the id of a real request that landed in (or nearest to) the
/// p99.9 octave. Exemplar stores are relaxed and deliberately unsharded —
/// a torn id/value pair under contention is acceptable for a diagnostic
/// pointer and keeps record() allocation-free.
class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kOctaves = 33;  ///< incl. the overflow octave
  static constexpr std::size_t kBuckets = (kOctaves - 1) * kSubBuckets + 1;

  /// One consistent read: each bucket loaded once, `count` their total.
  struct Snapshot {
    std::uint64_t counts[kBuckets] = {};
    std::uint64_t count = 0;
    double sum = 0.0;  ///< seconds
    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
    /// Monotone bucket-interpolated percentile estimate, q in [0,100].
    double percentile(double q) const;
    /// Bucket holding the q-th percentile rank.
    std::size_t percentile_bucket(double q) const;
  };

  struct Exemplar {
    std::uint64_t id = 0;      ///< trace/request id stamped by record()
    double seconds = 0.0;      ///< the exemplar sample's value
    bool valid = false;
  };

  void record(double seconds);
  /// Record and stamp the sample's octave with `exemplar_id`.
  void record(double seconds, std::uint64_t exemplar_id);
  Snapshot snapshot() const;
  std::uint64_t count() const { return snapshot().count; }
  double sum() const { return snapshot().sum; }
  double mean() const { return snapshot().mean(); }
  double percentile(double q) const { return snapshot().percentile(q); }
  /// Upper bound of bucket i in seconds (+inf for the overflow bucket).
  static double bucket_upper_seconds(std::size_t i);
  /// Exemplar stamped on octave `octave` (valid=false when none recorded).
  Exemplar exemplar(std::size_t octave) const;
  /// Exemplar of the octave holding the q-th percentile rank, falling back
  /// to the nearest stamped octave (below first, then above). The returned
  /// id is a concrete trace/request id behind that latency region.
  Exemplar exemplar_for_percentile(double q) const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> counts[kBuckets] = {};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  /// One slot per octave, unsharded: stamp > 0 marks a recorded exemplar.
  struct ExemplarSlot {
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> value_bits{0};  ///< double bit pattern
    std::atomic<std::uint64_t> stamp{0};
  };
  Shard shards_[detail::kShards];
  ExemplarSlot exemplars_[kOctaves];
};

/// Named metric directory. register-once / update-forever: handles are
/// stable pointers into deque storage. Lookup by name takes the registry
/// mutex — cache the handle (e.g. in a function-local static).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name, const std::string& help = "");
  Gauge* gauge(const std::string& name, const std::string& help = "");
  Histogram* histogram(const std::string& name, const std::string& help = "");

  /// Prometheus text exposition (counters, gauges, histogram buckets with
  /// cumulative "le" semantics + _count/_sum). Deterministic order
  /// (registration order).
  std::string to_prometheus() const;

  /// Reset every instrument to zero (tests and bench phases).
  void reset_all();

  std::size_t size() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mutex_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;
};

/// Process-wide registry (sim passes, serve ticks, lab jobs all land here).
MetricsRegistry& registry();

/// Line-level validity check over a Prometheus text exposition (the output
/// of to_prometheus() / serve's metrics_text()). Enforced rules:
///   - every sample line parses: name{labels} value, labels properly
///     quoted with only \\ \" \n escapes inside quoted values;
///   - at most one # TYPE and one # HELP per metric family, TYPE naming a
///     known type, both preceding the family's first sample;
///   - every sample belongs to a TYPE-declared family (histogram samples
///     match <family>_bucket/_count/_sum, summaries <family>{quantile=}/
///     _count/_sum);
///   - histogram bucket series are cumulative (non-decreasing in le order,
///     ending at le="+Inf") and bucket{+Inf} == _count;
///   - summary quantile values are non-decreasing in the quantile;
///   - OpenMetrics-style exemplars (" # {key=\"v\"} value" after a bucket
///     sample) are accepted and their payload validated.
/// Returns false with a line-numbered diagnostic in *error on violation.
/// This is the scrape-format gate the obs tests and the future lab canary
/// daemon run over health/metrics endpoints.
bool lint_prometheus_exposition(const std::string& text, std::string* error = nullptr);

}  // namespace mirage::obs
