// Observability layer: metrics registry concurrency, trace-ring semantics,
// Chrome trace-event export + validation, profiling spans, and the
// tracing-cannot-perturb-results contract on the sweep harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "serve/service.hpp"
#include "util/time_utils.hpp"

namespace mirage::obs {
namespace {

/// Tests toggle the global instrumentation switch; restore it so suites
/// sharing the process (and the default-on contract) are unaffected.
class ObsEnabledGuard {
 public:
  ObsEnabledGuard() : was_(enabled()) {}
  ~ObsEnabledGuard() { set_enabled(was_); }

 private:
  bool was_;
};

// ----------------------------------------------------------- instruments

TEST(Metrics, CounterConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeStoresArbitraryDoubles) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(42.5);
  EXPECT_EQ(g.value(), 42.5);
  g.set(-1e-9);
  EXPECT_EQ(g.value(), -1e-9);
}

TEST(Metrics, HistogramCountsSumsAndBucketsSamples) {
  Histogram h;
  // 1 ms x 100 and 1 s x 100: counts split across two distinct buckets.
  for (int i = 0; i < 100; ++i) h.record(1e-3);
  for (int i = 0; i < 100; ++i) h.record(1.0);
  EXPECT_EQ(h.count(), 200u);
  EXPECT_NEAR(h.sum(), 100.1, 0.5);
  EXPECT_NEAR(h.mean(), 100.1 / 200.0, 0.01);
  // The percentile estimate is bucket-interpolated: p25 lands in the 1 ms
  // bucket neighborhood, p75 in the 1 s one, and it is monotone in q.
  EXPECT_LT(h.percentile(25.0), 0.01);
  EXPECT_GT(h.percentile(75.0), 0.5);
  EXPECT_LE(h.percentile(50.0), h.percentile(90.0));
  const Histogram::Snapshot snap = h.snapshot();
  std::uint64_t bucketed = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    bucketed += snap.counts[i];
    if (i > 0) {
      EXPECT_LT(Histogram::bucket_upper_seconds(i - 1), Histogram::bucket_upper_seconds(i));
    }
  }
  EXPECT_EQ(bucketed, 200u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, HistogramConcurrentRecordsAreExact) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(1e-6 * (t + 1));
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, LogLinearPercentilesLandWithinTheBucketBound) {
  // A known spread: 100k samples log-uniform over 50 us .. 5 s, so every
  // quantile falls in a different octave region. Each interpolated
  // estimate must land within 7% of the exact order statistic.
  Histogram h;
  std::vector<double> samples;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = 50e-6 * std::pow(1e5, (i + 0.5) / kN);
    samples.push_back(x);
    h.record(x);
  }
  std::sort(samples.begin(), samples.end());
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kN));
  for (const double q : {50.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * kN));
    const double exact = samples[rank - 1];
    EXPECT_NEAR(snap.percentile(q), exact, 0.07 * exact) << "p" << q;
  }
  // The exported octave edges are exactly today's 1 us .. 2^31 us bounds.
  for (std::size_t octave = 0; octave + 1 < Histogram::kOctaves; ++octave) {
    const std::size_t edge = octave * Histogram::kSubBuckets + Histogram::kSubBuckets - 1;
    EXPECT_EQ(Histogram::bucket_upper_seconds(edge),
              static_cast<double>(1ull << octave) * 1e-6);
  }
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper_seconds(Histogram::kBuckets - 1)));
}

TEST(Metrics, HistogramSumKeepsSubMicrosecondPrecision) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(1.5e-6);
  EXPECT_NEAR(h.sum(), 1.5e-3, 1e-12);
  EXPECT_NEAR(h.mean(), 1.5e-6, 1e-15);
  Histogram tiny;
  for (int i = 0; i < 1000; ++i) tiny.record(0.25e-6);
  EXPECT_NEAR(tiny.sum(), 0.25e-3, 1e-12);
}

TEST(Metrics, OutOfRangeSamplesStayCountedFiniteAndLintable) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("edge_latency_seconds", "edge cases");
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  h->record(inf, 1);
  h->record(1e300, 2);
  h->record(nan, 3);
  h->record(-1.0, 4);
  h->record(1e-3);
  const Histogram::Snapshot snap = h->snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.counts[0], 2u);                      // NaN and -1
  EXPECT_EQ(snap.counts[Histogram::kBuckets - 1], 2u);  // +inf and 1e300
  EXPECT_TRUE(std::isfinite(snap.sum));
  for (const double q : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_TRUE(std::isfinite(snap.percentile(q))) << "p" << q;
  }
  std::string error;
  const std::string text = reg.to_prometheus();
  EXPECT_TRUE(lint_prometheus_exposition(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("edge_latency_seconds_count 5"), std::string::npos) << text;
}

TEST(Metrics, RegistryHandlesAreStableAndPrometheusExportIsStructured) {
  MetricsRegistry reg;
  Counter* c = reg.counter("test_ops_total", "operations");
  EXPECT_EQ(reg.counter("test_ops_total"), c);  // register-once semantics
  c->add(7);
  reg.gauge("test_depth", "queue depth")->set(3.5);
  reg.histogram("test_latency_seconds", "latency")->record(0.25);
  EXPECT_EQ(reg.size(), 3u);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP test_ops_total operations"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE test_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_ops_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("test_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_latency_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_latency_seconds_count 1"), std::string::npos);

  reg.reset_all();
  EXPECT_EQ(c->value(), 0u);
}

// ------------------------------------------------------------- exemplars

TEST(Metrics, HistogramExemplarsLinkBucketsToRequestIds) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1e-3);  // fast bulk, no exemplar
  h.record(1e-3, 41);                            // stamp the fast bucket
  h.record(1.0, 99);                             // one slow outlier, stamped

  // The slow sample owns the tail: its bucket exemplar carries id 99.
  const auto tail = h.exemplar_for_percentile(99.9);
  ASSERT_TRUE(tail.valid);
  EXPECT_EQ(tail.id, 99u);
  EXPECT_NEAR(tail.seconds, 1.0, 1e-6);

  // The bulk of the mass sits in the 1 ms bucket stamped with 41.
  const auto body = h.exemplar_for_percentile(50.0);
  ASSERT_TRUE(body.valid);
  EXPECT_EQ(body.id, 41u);

  // Last writer wins within one bucket.
  h.record(1.0, 100);
  EXPECT_EQ(h.exemplar_for_percentile(99.9).id, 100u);

  h.reset();
  EXPECT_FALSE(h.exemplar_for_percentile(99.9).valid);
}

TEST(Metrics, ExemplarFallsBackToNearestStampedBucket) {
  Histogram h;
  // Plain records never stamp; the single stamped bucket serves every
  // percentile query as the nearest diagnostic pointer.
  for (int i = 0; i < 10; ++i) h.record(1.0);
  EXPECT_FALSE(h.exemplar_for_percentile(99.0).valid);
  h.record(1e-3, 7);
  const auto ex = h.exemplar_for_percentile(99.0);  // p99 bucket unstamped
  ASSERT_TRUE(ex.valid);
  EXPECT_EQ(ex.id, 7u);
}

// ------------------------------------------------- exposition linter

TEST(Metrics, LintAcceptsRegistryExposition) {
  MetricsRegistry reg;
  reg.counter("lint_ops_total", "ops")->add(3);
  reg.gauge("lint_depth", "depth")->set(-2.5);
  Histogram* h = reg.histogram("lint_latency_seconds", "latency");
  h->record(1e-3);
  h->record(0.5, /*exemplar_id=*/1234);  // exemplar renders into the dump
  std::string error;
  const std::string text = reg.to_prometheus();
  EXPECT_TRUE(lint_prometheus_exposition(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("trace_id=\"1234\""), std::string::npos) << text;
}

/// Allocation-free servable stub: action = sign of the first feature.
struct SignModel : serve::ServableModel {
  explicit SignModel(std::size_t dim)
      : ServableModel({"lint", "dqn", "moe"}, info(dim), "<stub>", 1, nullptr) {}
  static core::CheckpointInfo info(std::size_t dim) {
    core::CheckpointInfo i;
    i.history_len = 1;
    i.state_dim = dim;
    return i;
  }
  void infer_into(const std::vector<std::vector<float>>& observations,
                  std::vector<serve::Decision>& out) const override {
    out.resize(observations.size());
    for (std::size_t i = 0; i < observations.size(); ++i) {
      out[i].action = observations[i][0] > 0.0f ? 1 : 0;
    }
  }
};

TEST(Metrics, ScrapesTakenDuringRecordsAlwaysLint) {
  // A scrape runs concurrently with record() on live traffic. Each one
  // must be self-consistent: the +Inf bucket equals _count, and every
  // snapshot's count is its bucket total with percentiles monotone in q.
  MetricsRegistry reg;
  Histogram* h = reg.histogram("torn_latency_seconds", "latency under load");
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 3; ++t) {
    recorders.emplace_back([&, t] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        h->record(1e-6 * static_cast<double>((i * 7 + t) % 5000));
      }
    });
  }
  int failures = 0;
  int torn_snapshots = 0;
  std::string first_error;
  for (int scrape = 0; scrape < 2000; ++scrape) {
    std::string error;
    if (!lint_prometheus_exposition(reg.to_prometheus(), &error)) {
      if (failures++ == 0) first_error = error;
    }
    const Histogram::Snapshot snap = h->snapshot();
    std::uint64_t total = 0;
    for (const std::uint64_t c : snap.counts) total += c;
    bool ok = total == snap.count;
    double prev = 0.0;
    for (const double q : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const double v = snap.percentile(q);
      ok = ok && v >= prev;
      prev = v;
    }
    torn_snapshots += ok ? 0 : 1;
  }
  stop = true;
  for (auto& t : recorders) t.join();
  EXPECT_EQ(failures, 0) << first_error;
  EXPECT_EQ(torn_snapshots, 0);
  EXPECT_GT(h->count(), 0u);

  // The serve exposition (service families + the process registry with
  // the decision-latency histogram) must lint while clients decide.
  serve::ServiceConfig cfg;
  cfg.history_len = 1;
  cfg.shards = 2;
  cfg.engine.use_thread_pool = false;
  cfg.engine.coalesce_wait = std::chrono::microseconds(0);
  serve::ProvisioningService service(
      std::make_shared<const SignModel>(rl::kFrameDim), cfg);
  service.start();
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      sim::StateSample sample;
      sample.total_nodes = 8;
      sample.free_nodes = 3;
      const serve::SessionId id = service.open_session();
      service.observe(id, sample, rl::JobPairContext{});
      while (!done.load(std::memory_order_relaxed)) {
        service.decide(id);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  int serve_failures = 0;
  for (int scrape = 0; scrape < 200; ++scrape) {
    std::string error;
    if (!lint_prometheus_exposition(service.metrics_text(), &error)) {
      if (serve_failures++ == 0) first_error = error;
    }
  }
  done = true;
  for (auto& t : clients) t.join();
  service.drain_and_stop();
  EXPECT_EQ(serve_failures, 0) << first_error;
  EXPECT_GT(served.load(), 0u);
}

TEST(Metrics, LintAcceptsHandwrittenSummaryAndExemplars) {
  const std::string text =
      "# TYPE s summary\n"
      "s{quantile=\"0.5\"} 1\n"
      "s{quantile=\"0.99\"} 2\n"
      "s_count 10\n"
      "s_sum 12\n"
      "# TYPE h histogram\n"
      "# HELP h latency\n"
      "h_bucket{le=\"0.1\"} 1 # {trace_id=\"7\"} 0.05\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_count 2\n"
      "h_sum 0.6\n"
      "# TYPE g gauge\n"
      "g{label=\"with \\\"quotes\\\" and \\n\"} NaN\n";
  std::string error;
  EXPECT_TRUE(lint_prometheus_exposition(text, &error)) << error;
}

TEST(Metrics, LintRejectsMalformedExpositions) {
  const struct {
    const char* doc;
    const char* why;  // substring expected in the diagnostic
  } bad[] = {
      {"", "no samples"},
      {"# TYPE a counter\n", "no samples"},
      {"a 1\n", "no preceding TYPE"},
      {"# TYPE a counter\n# TYPE a counter\na 1\n", "duplicate TYPE"},
      {"# TYPE a counter\na 1\na 2\n", "duplicate series"},
      {"# TYPE a counter\na -1\n", "negative"},
      {"# TYPE a counter\na one\n", ""},
      {"# TYPE a counter\na 1 junk\n", "trailing junk"},
      {"# TYPE a wibble\na 1\n", "unknown TYPE"},
      {"# TYPE 0bad counter\n0bad 1\n", "bad metric name"},
      {"# TYPE a counter\na{l=\"unterminated} 1\n", ""},
      {"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\n"
       "h_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
       "le not increasing"},
      {"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
       "h_count 3\nh_sum 1\n",
       "not cumulative"},
      {"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n",
       "missing +Inf"},
      {"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n",
       "+Inf bucket != _count"},
      {"# TYPE h histogram\nh_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 1\n",
       "without le"},
      {"# TYPE s summary\ns{quantile=\"0.9\"} 2\ns{quantile=\"0.5\"} 1\n",
       "quantiles not increasing"},
      {"# TYPE s summary\ns 1\n", "without quantile"},
      {"# TYPE a counter\na 1 # no-label-set 2\n", ""},
  };
  for (const auto& c : bad) {
    std::string error;
    EXPECT_FALSE(lint_prometheus_exposition(c.doc, &error)) << c.doc;
    EXPECT_FALSE(error.empty()) << c.doc;
    if (c.why[0] != '\0') {
      EXPECT_NE(error.find(c.why), std::string::npos) << error << "\nfor doc:\n" << c.doc;
    }
  }
}

// ------------------------------------------------------------ trace ring

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  TraceRing ring(8);
  for (std::int64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.arg0 = i;
    ring.record(ev);
  }
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg0, static_cast<std::int64_t>(12 + i));  // oldest surviving first
  }
  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(Trace, SnapshotDuringRecordsReturnsOnlyWholeEvents) {
  // A small ring wraps constantly, so snapshots keep meeting slots that a
  // recorder is rewriting. Every event returned must be one whole record.
  TraceRing ring(64);
  std::atomic<bool> stop{false};
  const auto recorder = [&](std::int64_t first, std::uint32_t tid) {
    for (std::int64_t i = first; !stop.load(std::memory_order_relaxed); ++i) {
      TraceEvent ev;
      ev.ts = i;
      ev.dur = i;
      ev.arg0 = i;
      ev.arg1 = ~i;
      ev.tid = tid;
      ring.record(ev);
    }
  };
  std::thread a(recorder, 0, 1u);
  std::thread b(recorder, std::int64_t{1} << 40, 2u);
  while (ring.recorded() < 2 * ring.capacity()) std::this_thread::yield();
  std::uint64_t seen = 0, torn = 0;
  for (int s = 0; s < 1000; ++s) {
    for (const auto& ev : ring.snapshot()) {
      ++seen;
      const bool whole = ev.arg1 == ~ev.arg0 && ev.ts == ev.arg0 && ev.dur == ev.arg0 &&
                         ev.tid == (ev.arg0 < (std::int64_t{1} << 40) ? 1u : 2u);
      if (!whole) ++torn;
    }
  }
  stop.store(true);
  a.join();
  b.join();
  EXPECT_GT(seen, 0u);
  EXPECT_EQ(torn, 0u);
}

TEST(Trace, ChromeJsonExportValidatesAndCoversEveryKind) {
  TraceRing ring(64);
  const TraceEventKind kinds[] = {
      TraceEventKind::kJobRun,      TraceEventKind::kJobKill,
      TraceEventKind::kJobPreempt,  TraceEventKind::kJobRequeue,
      TraceEventKind::kClusterEvent, TraceEventKind::kCellStart,
      TraceEventKind::kCellFinish,  TraceEventKind::kBatchFormed,
      TraceEventKind::kCheckpointReload, TraceEventKind::kSpan,
      TraceEventKind::kRequestBegin, TraceEventKind::kRequestEnqueue,
      TraceEventKind::kRequestComplete,
  };
  std::int64_t ts = 0;
  for (const auto kind : kinds) {
    TraceEvent ev;
    ev.kind = kind;
    ev.name = trace_event_kind_name(kind);
    ev.ts = ts++;
    ev.dur = ev.is_slice() ? 5 : 0;
    ev.arg0 = 1;
    ev.arg1 = 2;
    ring.record(ev);
  }
  const std::string json = to_chrome_json({{"cell 0: unit", 0, ring.snapshot(), ring.dropped()}});
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;
  // Slices export as complete events, instants as "i".
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("cell 0: unit"), std::string::npos);
  for (const auto kind : kinds) {
    const std::string cat = std::string("\"cat\":\"") + trace_event_kind_name(kind) + '"';
    EXPECT_NE(json.find(cat), std::string::npos) << cat;
  }
  EXPECT_EQ(json.find("dropped_events"), std::string::npos);  // nothing overwritten
}

TEST(Trace, ValidatorRejectsMalformedDocuments) {
  const char* bad[] = {
      "",                                  // not JSON
      "42",                                // not an object
      "{}",                                // no traceEvents
      "{\"traceEvents\":[]}",              // empty capture
      "{\"traceEvents\":{}}",              // not an array
      "{\"traceEvents\":[42]}",            // element not an object
      "{\"traceEvents\":[{\"name\":\"x\"}]}",  // missing ph/ts/pid/tid
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0}]} junk",
  };
  for (const char* doc : bad) {
    std::string error;
    EXPECT_FALSE(validate_chrome_trace(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,"
      "\"s\":\"t\"}],\"displayTimeUnit\":\"ms\"}",
      &error))
      << error;
}

// ----------------------------------------------------------------- spans

TEST(Span, RecordsIntoPhaseHistogramWhenEnabled) {
  ObsEnabledGuard guard;
  set_enabled(true);
  Histogram* h = registry().histogram("obs_span_seconds_obs_test_phase");
  const std::uint64_t before = h->count();
  for (int i = 0; i < 10; ++i) {
    OBS_SPAN("obs_test_phase");
  }
  EXPECT_EQ(h->count(), before + 10);

  set_enabled(false);
  for (int i = 0; i < 10; ++i) {
    OBS_SPAN("obs_test_phase");
  }
  EXPECT_EQ(h->count(), before + 10);  // disabled scopes record nothing
}

TEST(Span, SampledSpanRecordsEverySecondToTheShiftEntry) {
  ObsEnabledGuard guard;
  set_enabled(true);
  Histogram* h = registry().histogram("obs_span_seconds_obs_test_sampled");
  const std::uint64_t before = h->count();
  // This call site is unique to the test, so its thread_local tick starts
  // at zero here: 32 entries at shift 2 time exactly every 4th one.
  for (int i = 0; i < 32; ++i) {
    OBS_SPAN_SAMPLED("obs_test_sampled", 2);
  }
  EXPECT_EQ(h->count(), before + 8);
}

// ------------------------------------------------------------ SLO engine

TEST(Slo, AddValidatesSpecs) {
  SloEngine engine;
  SloSpec no_source;
  no_source.name = "x";
  no_source.kind = SloKind::kLatencyQuantile;
  EXPECT_THROW(engine.add(no_source), std::invalid_argument);
  no_source.kind = SloKind::kErrorRate;
  EXPECT_THROW(engine.add(no_source), std::invalid_argument);

  Histogram h;
  SloSpec bad_window;
  bad_window.name = "x";
  bad_window.latency = &h;
  bad_window.short_window_seconds = 0.0;
  EXPECT_THROW(engine.add(bad_window), std::invalid_argument);
  EXPECT_EQ(engine.size(), 0u);
}

TEST(Slo, ErrorRateStateMachineWalksPendingFiringResolvedInactive) {
  Counter bad, good;
  SloEngine engine;
  SloSpec spec;
  spec.name = "rej ect!";  // sanitized to rej_ect_
  spec.kind = SloKind::kErrorRate;
  spec.bad = &bad;
  spec.good = &good;
  spec.budget = 0.1;
  spec.short_window_seconds = 10.0;
  spec.long_window_seconds = 30.0;
  spec.pending_seconds = 10.0;
  spec.resolve_seconds = 10.0;
  engine.add(spec);

  std::vector<SloStatus> fired;
  engine.on_fire([&fired](const SloStatus& s) { fired.push_back(s); });

  // t=0: no traffic at all -> burn 0, inactive.
  EXPECT_EQ(engine.evaluate(0.0), 0u);
  auto st = engine.statuses();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].name, "rej_ect_");
  EXPECT_EQ(st[0].state, AlertState::kInactive);
  EXPECT_EQ(st[0].burn_short, 0.0);

  // t=10..15: 50% bad against a 10% budget -> burn 5, condition holds but
  // `for` (pending_seconds=10) keeps it pending.
  bad.add(50);
  good.add(50);
  EXPECT_EQ(engine.evaluate(10.0), 0u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kPending);
  EXPECT_NEAR(engine.statuses()[0].burn_short, 5.0, 1e-9);
  bad.add(25);
  good.add(25);
  EXPECT_EQ(engine.evaluate(15.0), 0u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kPending);
  EXPECT_TRUE(fired.empty());

  // t=20: condition held 10s -> firing; the fire callback sees it.
  bad.add(25);
  good.add(25);
  EXPECT_EQ(engine.evaluate(20.0), 1u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.statuses()[0].fires, 1u);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].state, AlertState::kFiring);
  EXPECT_EQ(fired[0].name, "rej_ect_");
  EXPECT_NE(engine.health_text().find("status: firing"), std::string::npos);

  // t=25..30: healthy traffic floods both windows below threshold, but the
  // resolve hold-down (10s) keeps the alert firing.
  good.add(1000);
  EXPECT_EQ(engine.evaluate(25.0), 0u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);
  good.add(1000);
  EXPECT_EQ(engine.evaluate(30.0), 0u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kFiring);

  // t=35: clear held 10s -> resolved; t=40: -> inactive.
  good.add(1000);
  EXPECT_EQ(engine.evaluate(35.0), 0u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kResolved);
  good.add(1000);
  EXPECT_EQ(engine.evaluate(40.0), 0u);
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);
  EXPECT_EQ(engine.statuses()[0].fires, 1u);  // one incident, one fire
  EXPECT_EQ(fired.size(), 1u);
}

TEST(Slo, ShortSpikeAloneDoesNotFireMultiWindowAlert) {
  Counter bad, good;
  SloEngine engine;
  SloSpec spec;
  spec.name = "spike";
  spec.kind = SloKind::kErrorRate;
  spec.bad = &bad;
  spec.good = &good;
  spec.budget = 0.05;
  spec.short_window_seconds = 5.0;
  spec.long_window_seconds = 100.0;
  spec.pending_seconds = 0.0;
  engine.add(spec);

  // A minute of clean traffic, then one bad burst: the short window burns
  // hot but the long window stays under threshold -> no fire.
  for (int t = 0; t <= 50; t += 10) {
    good.add(1000);
    EXPECT_EQ(engine.evaluate(static_cast<double>(t)), 0u);
  }
  bad.add(100);
  EXPECT_EQ(engine.evaluate(60.0), 0u);
  const auto st = engine.statuses()[0];
  EXPECT_GE(st.burn_short, 1.0);
  EXPECT_LT(st.burn_long, 1.0);
  EXPECT_EQ(st.state, AlertState::kInactive);
}

TEST(Slo, LatencyQuantileObjectiveCountsBadBuckets) {
  Histogram h;
  SloEngine engine;
  SloSpec spec;
  spec.name = "lat";
  spec.latency = &h;
  spec.quantile = 50.0;  // effective budget = 0.5
  spec.target_seconds = 0.25;
  spec.short_window_seconds = 1.0;
  spec.long_window_seconds = 2.0;
  spec.pending_seconds = 0.0;  // fire straight from inactive
  engine.add(spec);

  // All samples over target: burn = (10/10)/0.5 = 2 in both windows.
  for (int i = 0; i < 10; ++i) h.record(1.0);
  EXPECT_EQ(engine.evaluate(100.0), 1u);
  const auto st = engine.statuses()[0];
  EXPECT_EQ(st.state, AlertState::kFiring);
  EXPECT_NEAR(st.burn_short, 2.0, 1e-9);
  EXPECT_NEAR(st.budget, 0.5, 1e-9);
  const std::string health = engine.health_text();
  EXPECT_NE(health.find("slo lat kind=latency state=firing"), std::string::npos) << health;

  // The registry carries the live alert instruments.
  EXPECT_EQ(registry().gauge("mirage_slo_lat_state")->value(), 2.0);
  EXPECT_EQ(registry().counter("mirage_slo_lat_fires_total")->value(), 1u);
}

TEST(Slo, LongWindowKeepsAnOldBurstAtAFineEvaluateCadence) {
  Counter bad, good;
  SloEngine engine;
  SloSpec spec;
  spec.name = "fine_cadence";
  spec.kind = SloKind::kErrorRate;
  spec.bad = &bad;
  spec.good = &good;
  spec.budget = 0.01;
  spec.short_window_seconds = 60.0;
  spec.long_window_seconds = 300.0;
  engine.add(spec);

  // Evaluate every 0.1 s for 110 s: a bad burst in the first 10 s, good
  // traffic after. One stored sample per call would leave the ring
  // spanning only the last 51.2 s, and the long window would lose the burst.
  for (int i = 0; i <= 1100; ++i) {
    (i < 100 ? bad : good).add(10);
    engine.evaluate(i * 0.1);
  }
  const SloStatus st = engine.statuses()[0];
  // Long window = everything since the first sample (bad 10 already in it):
  // (990 / 11000) / 0.01 = 9.
  EXPECT_NEAR(st.burn_long, 9.0, 1e-9);
  EXPECT_EQ(st.burn_short, 0.0);  // the last 60 s were clean
}

// -------------------------------------------------------- flight recorder

class FlightDirGuard {
 public:
  explicit FlightDirGuard(const char* leaf)
      : dir_(std::filesystem::temp_directory_path() / leaf) {
    std::filesystem::remove_all(dir_);
    // A bundle's metrics.prom must carry a sample to validate; register
    // one so each test stands alone, not only after suites that do.
    registry().counter("mirage_obs_test_flight_total");
  }
  ~FlightDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

TEST(FlightRecorder, DumpsValidatedBundlesWithProvidersAndPrunes) {
  FlightDirGuard guard("mirage_obs_flight_test");
  auto& fr = flight_recorder();
  FlightRecorderConfig cfg;
  cfg.directory = guard.dir().string();
  cfg.max_events = 64;
  cfg.max_bundles = 2;
  fr.configure(cfg);
  const auto dumps_before = fr.dumps();

  global_trace().record(TraceEvent{});  // at least one wall-clock event
  fr.register_provider("health.txt", [] { return std::string("status: ok\n"); });
  fr.register_provider("broken.txt", []() -> std::string {
    throw std::runtime_error("provider exploded");
  });

  const std::string bundle = fr.dump("unit test/../reason");
  ASSERT_FALSE(bundle.empty());
  EXPECT_NE(bundle.find("unit_test"), std::string::npos);       // sanitized
  EXPECT_EQ(bundle.find(".."), std::string::npos);              // no traversal
  std::string error;
  EXPECT_TRUE(FlightRecorder::validate_bundle(bundle, &error)) << error;

  const auto slurp = [&](const char* leaf) {
    std::ifstream in(std::filesystem::path(bundle) / leaf);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp("health.txt"), "status: ok\n");
  EXPECT_NE(slurp("broken.txt").find("provider error"), std::string::npos);
  EXPECT_NE(slurp("MANIFEST.txt").find("reason: "), std::string::npos);

  // Prune: a third dump leaves only the newest max_bundles directories.
  fr.dump("two");
  const std::string third = fr.dump("three");
  EXPECT_EQ(fr.dumps(), dumps_before + 3);
  std::size_t bundles = 0;
  bool third_survives = false;
  for (const auto& e : std::filesystem::directory_iterator(guard.dir())) {
    bundles += e.is_directory() ? 1 : 0;
    third_survives = third_survives || e.path().string() == third;
  }
  EXPECT_EQ(bundles, 2u);
  EXPECT_TRUE(third_survives);

  fr.unregister_provider("health.txt");
  fr.unregister_provider("broken.txt");
  const std::string after = fr.dump("four");
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(after) / "health.txt"));
}

TEST(FlightRecorder, ValidateBundleRejectsMissingOrCorruptPieces) {
  FlightDirGuard guard("mirage_obs_flight_invalid");
  std::string error;
  EXPECT_FALSE(FlightRecorder::validate_bundle(guard.dir().string(), &error));
  EXPECT_FALSE(error.empty());

  // A real bundle stops validating when its trace is corrupted.
  auto& fr = flight_recorder();
  FlightRecorderConfig cfg;
  cfg.directory = guard.dir().string();
  fr.configure(cfg);
  const std::string bundle = fr.dump("corruptme");
  ASSERT_FALSE(bundle.empty());
  ASSERT_TRUE(FlightRecorder::validate_bundle(bundle, &error)) << error;
  std::ofstream(std::filesystem::path(bundle) / "trace.json") << "{not json";
  EXPECT_FALSE(FlightRecorder::validate_bundle(bundle, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FlightRecorder, BundleReportsTheTraceEventsItLacks) {
  // Events the ring overwrote and events trimmed to max_events are both
  // missing from trace.json; the bundle must say how many, in the
  // MANIFEST and as the Chrome trace's dropped_events marker.
  FlightDirGuard guard("mirage_obs_flight_dropped");
  auto& fr = flight_recorder();
  const auto dump_after = [&](std::size_t records, std::size_t max_events) {
    FlightRecorderConfig cfg;
    cfg.directory = guard.dir().string();
    cfg.max_events = max_events;
    fr.configure(cfg);
    global_trace().clear();
    for (std::size_t i = 0; i < records; ++i) global_trace().record(TraceEvent{});
    const std::string bundle = fr.dump("dropped");
    std::string error;
    EXPECT_TRUE(FlightRecorder::validate_bundle(bundle, &error)) << error;
    const auto slurp = [&](const char* leaf) {
      std::ifstream in(std::filesystem::path(bundle) / leaf);
      return std::string((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    };
    return std::make_pair(slurp("MANIFEST.txt"), slurp("trace.json"));
  };
  const auto marker = [](const std::string& json) -> std::string {
    const auto at = json.find("\"dropped_events\"");
    if (at == std::string::npos) return "none";
    const auto arg0 = json.find("\"arg0\":", at) + 7;
    return json.substr(arg0, json.find(',', arg0) - arg0);
  };

  auto [manifest, json] = dump_after(10, 4096);  // everything fits
  EXPECT_NE(manifest.find("trace_events: 10\n"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("trace_dropped: 0\n"), std::string::npos) << manifest;
  EXPECT_EQ(marker(json), "none");

  std::tie(manifest, json) = dump_after(100, 10);  // trimmed to max_events
  EXPECT_NE(manifest.find("trace_events: 10\n"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("trace_dropped: 90\n"), std::string::npos) << manifest;
  EXPECT_EQ(marker(json), "90");

  // The ring wrapped (1000 overwrites) and the rest was trimmed to 4096.
  const std::size_t records = global_trace().capacity() + 1000;
  const std::string lacking = std::to_string(records - 4096);
  std::tie(manifest, json) = dump_after(records, 4096);
  EXPECT_NE(manifest.find("trace_events: 4096\n"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("trace_dropped: " + lacking + "\n"), std::string::npos) << manifest;
  EXPECT_EQ(marker(json), lacking);
  global_trace().clear();
}

// ---------------------------------- tracing cannot perturb sweep results

scenario::SweepMatrix tiny_matrix() {
  scenario::SweepMatrix matrix;
  matrix.base.cluster = "a100";
  matrix.base.months_begin = 0;
  matrix.base.months_end = 1;
  matrix.base.seed = 11;
  matrix.base.job_count_scale = 0.05;
  matrix.utilization_scales = {1.0, 1.3};
  matrix.reservation_depths = {1, 8};
  matrix.event_profiles = {
      {"none", {}},
      {"outage",
       {{scenario::ScenarioEventKind::kNodeDown, 5 * util::kDay, 30, 0, 0, 0, 600},
        {scenario::ScenarioEventKind::kNodeRestore, 7 * util::kDay, 30, 0, 0, 0, 600}}},
  };
  return matrix;
}

TEST(SweepTracing, ResultsAreBitwiseIdenticalTracingOnOrOff) {
  ObsEnabledGuard guard;
  const auto cells = tiny_matrix().expand();

  set_enabled(false);
  const auto baseline = scenario::SweepRunner::run_serial(cells);

  set_enabled(true);
  scenario::SweepTrace trace;
  const auto traced = scenario::SweepRunner::run_serial(cells, &trace);

  ASSERT_EQ(traced.cells.size(), baseline.cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(traced.cells[i] == baseline.cells[i]) << "cell " << i;
  }
  EXPECT_GT(trace.total_events(), 0u);
}

TEST(SweepTracing, ParallelTraceBytesMatchSerialAndValidate) {
  ObsEnabledGuard guard;
  set_enabled(true);
  const auto cells = tiny_matrix().expand();

  scenario::SweepTrace serial_trace;
  const auto serial = scenario::SweepRunner::run_serial(cells, &serial_trace);
  scenario::SweepTrace parallel_trace;
  const auto parallel = scenario::SweepRunner(4).run(cells, &parallel_trace);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(serial.cells[i] == parallel.cells[i]) << "cell " << i;
  }
  // Sim-time rings are per cell and merged in expansion order, so the
  // exported bytes are independent of the thread count.
  const std::string serial_json = serial_trace.to_chrome_json();
  EXPECT_EQ(serial_json, parallel_trace.to_chrome_json());

  std::string error;
  EXPECT_TRUE(validate_chrome_trace(serial_json, &error)) << error;
  ASSERT_EQ(serial_trace.cell_count(), cells.size());
  // The outage profile saturates at u=1.3: cells record job activity.
  EXPECT_GT(serial_trace.total_events(), cells.size() * 2);  // beyond lifecycle markers
}

}  // namespace
}  // namespace mirage::obs
