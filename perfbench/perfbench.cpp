// perfbench: the repository benchmark. Two workloads drive the public
// APIs (core::MiragePipeline, rl::pretrain_foundation / train_dqn_online,
// core::Evaluator, sim::Simulator, serve::ModelRegistry /
// ProvisioningService, util::wal::recover) and time each layer from
// outside, by the calls into those APIs:
//
//   train-moe-dqn   pretrain -> online DQN -> evaluate {reactive, MoE+DQN}
//   serve-saturate  closed loop, fixed window, full batches, journaling on
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work <dir> [--tiny 1] [--spans <file>]
//
// Every input (trace, cluster-state frames, checkpoint) is generated from
// the seed in set-up. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced stretches of
// the measurement, reports the per-layer metrics each workload measured
// (run.py checks them against BENCHMARK.json) and writes one span per
// public call to --spans. The exit code is nonzero when a correctness check
// fails. perfbench/README.md maps each metric to its layer.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "core/rl_provisioners.hpp"
#include "nn/parallel.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/wal.hpp"

using namespace mirage;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------------ knobs
// Pinned here and echoed in the output header; BENCHMARK.json's workload
// descriptions repeat them.
constexpr std::size_t kNnThreads = 1;        // nn::set_num_threads, EngineConfig::nn_threads
constexpr std::size_t kSessions = 512;
constexpr std::size_t kShards = 4;
constexpr std::size_t kMaxBatch = 64;
constexpr std::size_t kWindow = 4 * kMaxBatch;  // outstanding decisions
constexpr std::size_t kMaxFrames = 256;      // recorded cluster-state frames
constexpr std::uint64_t kCheckpointSeed = 7;  // serve weights; forward cost is weight-independent
constexpr std::size_t kMaxChecks = 2048;     // sampled batched == B=1 checks per run
constexpr std::size_t kCheckStride = 64;     // every 64th decision is checked
constexpr double kTracePhaseS = 1.0;         // serve: untraced / traced stretches
// The trace, its offline collection and the replayed frames come from this
// fixed seed, so set-up does the same work on every run. --seed picks the
// training and evaluation draws (train) and the session inputs (serve).
constexpr std::uint64_t kDataSeed = 42;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return v.empty() ? 0.0 : util::percentile(v, 50.0); }

void print_setups(const std::vector<double>& setup_s) {
  std::printf("set-ups (s):");
  for (const double t : setup_s) std::printf(" %.3f", t);
  std::printf("\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Fixed reference kernel (64x64x64 float matmul, plain loops, no library
// code): a probe of the host's current speed, never a normaliser.
double machine_ref_us() {
  constexpr int n = 64;
  std::vector<float> a(n * n, 1.0001f), b(n * n, 0.9999f), c(n * n, 0.0f);
  std::vector<double> chunks;
  const double stop = now_s() + 0.2;
  while (now_s() < stop) {
    const double t0 = now_s();
    for (int rep = 0; rep < 8; ++rep) {
      for (int i = 0; i < n; ++i)
        for (int k = 0; k < n; ++k) {
          const float x = a[i * n + k];
          for (int j = 0; j < n; ++j) c[i * n + j] += x * b[k * n + j];
        }
      a[rep] = c[rep] * 1e-9f;
    }
    chunks.push_back((now_s() - t0) / 8 * 1e6);
  }
  return median(chunks);
}

// ------------------------------------------------------------------ spans
enum Name : std::uint8_t {
  kSetup, kPrepare, kCollect, kReplay, kCheckpoint, kServiceStart,
  kCycle, kPretrain, kOnline, kEvaluate,
  kDecision, kObserve, kSubmit, kComplete, kScrape,
  kInferB1, kInferB64, kPretrainBatch, kWalRecover, kNameCount
};
constexpr const char* kNames[kNameCount] = {
    "bench.setup",  "pipeline.prepare", "pipeline.collect_offline", "sim.run_until",
    "checkpoint.save_load", "service.start", "bench.cycle", "rl.pretrain_foundation",
    "rl.train_dqn_online", "core.evaluate", "bench.decision", "serve.observe",
    "serve.decide_async_pooled", "serve.async_get", "serve.metrics_text", "nn.infer_b1",
    "nn.infer_b64", "nn.pretrain_batch", "wal.recover"};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by the spans of one decision / cycle
  Name name = kSetup;
  double start = 0.0;
  double end = 0.0;
};

/// The run's spans, kept in memory until it ends. All calls are made from
/// the main thread; `on` is switched per cycle or per stretch.
struct SpanSink {
  bool on = false;
  std::uint64_t next = 1;
  std::vector<Span> spans;

  std::uint64_t next_id() { return on ? next++ : 0; }
  void add(std::uint64_t id, Name name, std::uint64_t parent, std::uint64_t request, double t0,
           double t1) {
    if (on) spans.push_back(Span{id, parent, request, name, t0, t1});
  }
  std::uint64_t add(Name name, std::uint64_t parent, std::uint64_t request, double t0, double t1) {
    const std::uint64_t id = next_id();
    add(id, name, parent, request, t0, t1);
    return id;
  }
};

/// Time `fn` as one span of `sink` (always timed; recorded when tracing).
template <class Fn>
double timed(SpanSink& sink, Name name, std::uint64_t parent, std::uint64_t request, Fn&& fn) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  sink.add(name, parent, request, t0, t1);
  return t1 - t0;
}

std::vector<double> durations(const std::vector<Span>& spans, Name name, double scale) {
  std::vector<double> out;
  for (const auto& s : spans)
    if (s.name == name) out.push_back((s.end - s.start) * scale);
  return out;
}

/// Self time = duration minus the part its children cover (children of one
/// parent run one after another, so they never overlap).
void write_spans(const std::string& path, std::vector<Span> spans, double origin) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  std::map<std::uint64_t, double> child_time;
  for (const auto& s : spans)
    if (s.parent) child_time[s.parent] += s.end - s.start;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  std::fprintf(f, "id,parent,request,name,start_us,end_us,self_us\n");
  for (const auto& s : spans) {
    const auto it = child_time.find(s.id);
    const double self = (s.end - s.start) - (it == child_time.end() ? 0.0 : it->second);
    std::fprintf(f, "%llu,%llu,%llu,%s,%.3f,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), kNames[s.name],
                 (s.start - origin) * 1e6, (s.end - origin) * 1e6, self * 1e6);
  }
  std::fclose(f);
}

// ----------------------------------------------------------------- result
struct Metric {
  double value;
  const char* unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;

  void fail(const std::string& why, std::uint64_t count = 1) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    failed += count;
    correct = false;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work;
  std::string spans;
};

/// Set-up repetitions: set-up time is the median of these.
std::size_t setup_reps(const Args& args) { return args.tiny ? 1 : 9; }

core::PipelineConfig pipeline_config(const Args& args) {
  auto cfg = core::PipelineConfig::compact(trace::v100_preset(), 1, kDataSeed);
  // Reduced training budget: one cycle takes a few seconds, so a run
  // holds several cycles and reports their median.
  cfg.pretrain.epochs = args.tiny ? 1 : 3;
  cfg.pretrain.seed = args.seed ^ 0x97e77a17;
  cfg.online.episodes = args.tiny ? 8 : 16;
  cfg.online.parallel = true;
  cfg.online.seed = args.seed ^ 0x0711e0a1;
  cfg.eval.episodes = 8;
  cfg.eval.parallel = true;
  cfg.eval.seed = args.seed ^ 0xe5a1;
  if (args.tiny) {
    cfg.collector.anchors = 8;
    cfg.preset.months = 6;
  }
  return cfg;
}

// ============================================================ train-moe-dqn

struct EvalPair {
  core::MethodEval reactive;
  core::MethodEval moe;
};

bool same_aggregate(const core::LoadAggregate& a, const core::LoadAggregate& b) {
  const auto bits = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  return a.episodes == b.episodes && a.zero_interruption == b.zero_interruption &&
         a.interruption_hours.count() == b.interruption_hours.count() &&
         bits(a.interruption_hours.mean()) == bits(b.interruption_hours.mean()) &&
         bits(a.overlap_hours.mean()) == bits(b.overlap_hours.mean());
}

bool same_eval(const core::MethodEval& a, const core::MethodEval& b) {
  if (!same_aggregate(a.overall, b.overall)) return false;
  for (std::size_t i = 0; i < a.by_load.size(); ++i)
    if (!same_aggregate(a.by_load[i], b.by_load[i])) return false;
  return true;
}

/// Internal consistency of one evaluation: load classes partition the
/// episodes and every statistic is finite.
bool consistent(const core::MethodEval& e) {
  std::size_t sum = 0, zero = 0;
  for (const auto& l : e.by_load) {
    sum += l.episodes;
    zero += l.zero_interruption;
  }
  return e.overall.episodes > 0 && sum == e.overall.episodes &&
         zero == e.overall.zero_interruption &&
         std::isfinite(e.overall.interruption_hours.mean()) &&
         std::isfinite(e.overall.overlap_hours.mean());
}

Result run_train(const Args& args, double origin) {
  Result res;
  const auto cfg = pipeline_config(args);
  SpanSink sink;
  sink.on = args.trace;

  // Set-up: trace generation + offline collection, repeated; the last
  // pipeline is trained on.
  std::unique_ptr<core::MiragePipeline> pipeline;
  std::vector<double> setup_s;
  std::size_t sample_count = 0;
  for (std::size_t r = 0; r < setup_reps(args); ++r) {
    pipeline.reset();  // one pipeline alive at a time: peak memory is one set-up's
    const std::uint64_t root = sink.next_id();
    const double t0 = now_s();
    pipeline = std::make_unique<core::MiragePipeline>(cfg);
    timed(sink, kPrepare, root, r, [&] { pipeline->prepare(); });
    timed(sink, kCollect, root, r, [&] { pipeline->collect_offline(); });
    const double t1 = now_s();
    sink.add(root, kSetup, 0, r, t0, t1);
    setup_s.push_back(t1 - t0);
    const std::size_t n = pipeline->offline_dataset().nn_samples.size();
    if (r > 0 && n != sample_count)
      res.fail("set-up is not deterministic (offline sample count differs)");
    sample_count = n;
  }
  const auto& samples = pipeline->offline_dataset().nn_samples;

  rl::DqnConfig dc;
  dc.foundation = nn::FoundationType::kMoE;
  dc.net = cfg.net;

  // One cycle: untrained agent -> pretrained -> online-trained -> evaluated.
  auto cycle = [&](std::uint64_t request) {
    EvalPair out;
    const std::uint64_t root = sink.next_id();
    const double t0 = now_s();
    rl::DqnAgent agent(dc, args.seed ^ 0xd92);
    timed(sink, kPretrain, root, request,
          [&] { rl::pretrain_foundation(agent, samples, cfg.pretrain); });
    timed(sink, kOnline, root, request, [&] {
      rl::train_dqn_online(agent, pipeline->workload(), cfg.preset.node_count, cfg.episode,
                           pipeline->train_begin(), pipeline->train_end(), cfg.online, samples);
    });
    timed(sink, kEvaluate, root, request, [&] {
      core::Evaluator evaluator(pipeline->workload(), cfg.preset.node_count, cfg.episode, cfg.eval);
      evaluator.prepare(pipeline->train_end(), pipeline->validation_end());
      out.moe = evaluator.evaluate("MoE+DQN", core::make_dqn_factory("MoE+DQN", agent));
      out.reactive = evaluator.reactive();
    });
    const double t1 = now_s();
    sink.add(root, kCycle, 0, request, t0, t1);
    return std::make_pair(t1 - t0, out);
  };

  // Untraced cycles; a traced run alternates untraced and traced cycles so
  // host drift falls on both alike.
  std::vector<double> cycle_s[2];  // [traced]
  std::vector<EvalPair> evals;
  std::uint64_t request = setup_reps(args);  // set-ups took ids 0..reps-1
  const double stop = now_s() + args.seconds;
  do {
    const bool traced = args.trace && evals.size() % 2 == 1;
    sink.on = traced;
    auto [seconds, ev] = cycle(request++);
    cycle_s[traced].push_back(seconds);
    evals.push_back(std::move(ev));
  } while (now_s() < stop || (args.trace && cycle_s[1].empty()));
  sink.on = args.trace;

  // Correctness: every cycle trains the same agent on the same inputs, so
  // its evaluations must repeat bitwise; each must be self-consistent.
  res.attempted = evals.size();
  for (const auto& ev : evals) {
    if (!consistent(ev.reactive) || !consistent(ev.moe) ||
        ev.reactive.overall.episodes != ev.moe.overall.episodes)
      res.fail("evaluation is internally inconsistent");
    else if (!same_eval(ev.reactive, evals.front().reactive) || !same_eval(ev.moe, evals.front().moe))
      res.fail("cycle evaluation differs from the first cycle's");
  }
  // Quality, recomputed from the returned MethodEvals.
  const auto& first = evals.front();
  const double reactive_mean = first.reactive.overall.interruption_hours.mean();
  const double moe_mean = first.moe.overall.interruption_hours.mean();
  const double cut = reactive_mean > 0 ? 1.0 - moe_mean / reactive_mean : 0.0;
  const double zero_frac = first.moe.overall.zero_interruption_fraction();

  const double p50 = median(cycle_s[0]) * 1e3;
  std::printf("train-moe-dqn: %zu samples, cycle p50 %.1f ms over %zu cycles:", samples.size(),
              p50, cycle_s[0].size());
  for (const double c : cycle_s[0]) std::printf(" %.0f", c * 1e3);
  std::printf("\n");
  std::printf("quality: reactive %.4f h, MoE+DQN %.4f h, interrupt_cut %.4f, zero_interrupt_frac "
              "%.4f\n",
              reactive_mean, moe_mean, cut, zero_frac);

  print_setups(setup_s);
  if (!args.trace) {
    res.metrics["setup_s"] = {median(setup_s), "s"};
    res.metrics["p50_ms"] = {p50, "ms"};
    return res;
  }
  const double traced_p50 = median(cycle_s[1]) * 1e3;
  res.metrics["trace.overhead_frac"] = {traced_p50 / p50 - 1.0, "ratio"};
  res.metrics["trace.generate_s"] = {median(durations(sink.spans, kPrepare, 1.0)), "s"};
  res.metrics["rl.collect_s"] = {median(durations(sink.spans, kCollect, 1.0)), "s"};
  res.metrics["rl.pretrain_s"] = {median(durations(sink.spans, kPretrain, 1.0)), "s"};
  res.metrics["rl.online_s"] = {median(durations(sink.spans, kOnline, 1.0)), "s"};
  res.metrics["core.evaluate_s"] = {median(durations(sink.spans, kEvaluate, 1.0)), "s"};
  res.metrics["quality.interrupt_cut"] = {cut, "ratio"};
  res.metrics["quality.zero_interrupt_frac"] = {zero_frac, "ratio"};

  // DqnAgent::pretrain_batch on a fixed batch of 32 offline samples.
  {
    rl::DqnAgent agent(dc, args.seed);
    std::vector<const rl::Experience*> batch;
    for (std::size_t i = 0; i < 32 && i < samples.size(); ++i) batch.push_back(&samples[i]);
    for (int i = 0; i < 60; ++i)
      timed(sink, kPretrainBatch, 0, 0, [&] { agent.pretrain_batch(batch); });
    res.metrics["nn.pretrain_batch_ms"] = {median(durations(sink.spans, kPretrainBatch, 1e3)), "ms"};
  }
  if (!args.spans.empty()) write_spans(args.spans, sink.spans, origin);
  return res;
}

// ============================================================ serve-*

struct ServeInputs {
  core::PipelineConfig cfg;
  std::vector<sim::StateSample> frames;
  std::vector<rl::JobPairContext> contexts;  ///< one per session
  std::vector<std::size_t> offsets;          ///< first frame per session
  std::uint64_t sim_passes = 0;
};

struct ServeSystem {
  std::unique_ptr<serve::ModelRegistry> registry;
  serve::ModelKey key;
  serve::ModelSnapshot model;
  std::unique_ptr<serve::ProvisioningService> service;
  std::vector<serve::SessionId> sessions;
  std::vector<std::size_t> cursor;  ///< next frame index per session
  std::uint64_t frames_observed = 0;
};

ServeInputs make_serve_inputs(const Args& args, SpanSink& sink, std::uint64_t root,
                              std::uint64_t request) {
  ServeInputs in;
  in.cfg = pipeline_config(args);
  core::MiragePipeline pipeline(in.cfg);
  timed(sink, kPrepare, root, request, [&] { pipeline.prepare(); });
  // Replay the whole trace and record cluster-state frames over the
  // validation range (the frames the serving clients stream).
  timed(sink, kReplay, root, request, [&] {
    sim::Simulator sim(in.cfg.preset.node_count);
    sim.load_workload(pipeline.workload());
    const util::SimTime begin = pipeline.train_end();
    const util::SimTime span = pipeline.validation_end() - begin;
    const util::SimTime step = std::max<util::SimTime>(
        in.cfg.episode.decision_interval, span / static_cast<util::SimTime>(kMaxFrames));
    for (util::SimTime t = begin; t < pipeline.validation_end() && in.frames.size() < kMaxFrames;
         t += step) {
      sim.run_until(t);
      in.frames.push_back(sim.sample());
    }
    in.sim_passes = sim.scheduler_passes();
  });
  util::Rng rng(args.seed ^ 0x5e55);
  for (std::size_t s = 0; s < kSessions; ++s) {
    rl::JobPairContext ctx;
    ctx.pred_wait = static_cast<util::SimTime>(rng.uniform() * 24 * util::kHour);
    ctx.pred_elapsed = static_cast<util::SimTime>(rng.uniform() * 12 * util::kHour);
    in.contexts.push_back(ctx);
    in.offsets.push_back(static_cast<std::size_t>(rng.uniform() * in.frames.size()) %
                         in.frames.size());
  }
  return in;
}

serve::ServiceConfig service_config(const ServeInputs& in, const std::string& wal) {
  serve::ServiceConfig sc;
  sc.history_len = in.cfg.net.history_len;
  sc.partition_count = 1;
  sc.shards = kShards;
  sc.engine.max_batch = kMaxBatch;
  sc.engine.use_thread_pool = false;  // forward on the engine thread
  sc.engine.nn_threads = kNnThreads;
  sc.wal.dir = wal;
  sc.wal.wal.sync = util::wal::SyncLevel::kNone;
  sc.wal.restore = false;
  return sc;
}

void observe_next(ServeSystem& sys, const ServeInputs& in, std::size_t s) {
  const auto& frame = in.frames[(in.offsets[s] + sys.cursor[s]++) % in.frames.size()];
  sys.service->observe(sys.sessions[s], frame, in.contexts[s]);
  ++sys.frames_observed;
}

ServeSystem make_serve_system(const Args& args, const ServeInputs& in, SpanSink& sink,
                              std::uint64_t root, std::uint64_t request) {
  ServeSystem sys;
  const std::string ckpt = (fs::path(args.work) / "bench__moe_dqn.ckpt").string();
  const std::string wal = (fs::path(args.work) / "wal").string();
  fs::remove_all(wal);
  timed(sink, kCheckpoint, root, request, [&] {
    rl::DqnConfig dc;
    dc.foundation = nn::FoundationType::kMoE;
    dc.net = in.cfg.net;
    rl::DqnAgent agent(dc, kCheckpointSeed);
    if (!core::save_agent(agent, ckpt)) throw std::runtime_error("cannot write " + ckpt);
    serve::RegistryConfig rc;
    rc.net_defaults = in.cfg.net;
    sys.registry = std::make_unique<serve::ModelRegistry>(rc);
    const auto load = sys.registry->load_file(ckpt, "bench");
    if (!load.ok) throw std::runtime_error("registry load failed: " + load.error);
    sys.key = load.key;
    sys.model = sys.registry->lookup(load.key);
  });
  timed(sink, kServiceStart, root, request, [&] {
    sys.service = std::make_unique<serve::ProvisioningService>(
        *sys.registry, sys.key, service_config(in, wal));
    sys.service->start();
    // Every session starts with a full k-frame history.
    sys.cursor.assign(kSessions, 0);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sys.sessions.push_back(sys.service->open_session());
      for (std::size_t f = 0; f < in.cfg.net.history_len; ++f) observe_next(sys, in, s);
    }
  });
  return sys;
}

/// One decision in the closed loop's window.
struct Slot {
  serve::AsyncDecision handle;
  bool live = false;
  bool traced = false;
  bool measured = false;     ///< outside warm-up
  double issued = 0.0;       ///< the loop took this slot
  double submitted = 0.0;    ///< decide_async_pooled returned
  std::uint64_t request = 0;
  std::uint64_t root = 0;    ///< bench.decision span id
  long check = -1;           ///< index into the sampled-check table
};

struct Check {
  std::vector<float> row;
  serve::Decision decision;
  bool done = false;
};

struct LoopStats {
  std::vector<double> latency_ms[2];  ///< measured decisions, [traced]
  std::vector<double> scrape_ms;
  std::vector<double> per_second;     ///< measured decisions completed in each second
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  double measured_seconds = 0.0;
  double wall_seconds = 0.0;  ///< measured + drain tail
  serve::EngineStats engine_before, engine_after;
};

/// Drive the service as a closed loop from one thread. A ring of `kWindow`
/// handles stays full: the loop waits for the oldest decision (decisions
/// complete in submission order), records it, and issues the next one
/// into its slot. A traced run alternates untraced and traced stretches of
/// kTracePhaseS.
LoopStats drive(ServeSystem& sys, const ServeInputs& in, const Args& args, std::vector<Check>& checks,
                std::size_t& n_checks, SpanSink& sink) {
  LoopStats st;
  std::vector<Slot> ring(kWindow);
  const double warmup = std::min(1.0, 0.1 * args.seconds);
  const double start = now_s();
  const double measure_from = start + warmup;
  const double stop = measure_from + args.seconds;
  st.per_second.assign(static_cast<std::size_t>(args.seconds), 0.0);
  auto complete = [&](Slot& slot) {
    sink.on = slot.traced;
    try {
      const serve::Decision d = slot.handle.get();
      const double t1 = now_s();
      sink.add(kComplete, slot.root, slot.request, slot.submitted, t1);
      sink.add(slot.root, kDecision, 0, slot.request, slot.issued, t1);
      ++st.completed;
      if (slot.measured) {
        st.latency_ms[slot.traced].push_back((t1 - slot.issued) * 1e3);
        const auto sec = static_cast<std::size_t>(t1 - measure_from);
        if (sec < st.per_second.size()) ++st.per_second[sec];
      }
      if (slot.check >= 0) {
        checks[static_cast<std::size_t>(slot.check)].decision = d;
        checks[static_cast<std::size_t>(slot.check)].done = true;
      }
    } catch (const std::exception&) {
      ++st.errors;
    }
    slot.live = false;
  };

  double next_scrape = start;
  bool measuring = false;
  std::uint64_t request = 1;
  std::size_t i = 0;
  for (;; ++i) {
    Slot& slot = ring[i % kWindow];
    if (slot.live) complete(slot);
    double issued = now_s();
    if (issued >= stop) break;
    if (!measuring && issued >= measure_from) {
      measuring = true;
      st.engine_before = sys.service->report().engine;
    }
    sink.on = args.trace && static_cast<long>((issued - start) / kTracePhaseS) % 2 == 1;
    if (issued >= next_scrape) {  // metrics scrape under traffic
      const double d = timed(sink, kScrape, 0, 0, [&] { (void)sys.service->metrics_text(); });
      if (measuring) st.scrape_ms.push_back(d * 1e3);
      next_scrape = issued + 0.25;
      issued = now_s();
    }
    const std::size_t s = i % kSessions;
    slot.traced = sink.on;
    slot.measured = measuring;
    slot.issued = issued;
    slot.request = request++;
    slot.root = sink.next_id();
    slot.check = -1;
    // Each stage span takes its own clock reads, so the stages account
    // for a decision's latency only up to the gaps between them.
    timed(sink, kObserve, slot.root, slot.request, [&] { observe_next(sys, in, s); });
    const double t_sub = now_s();
    try {
      slot.handle = sys.service->decide_async_pooled(sys.sessions[s]);
    } catch (const serve::BackpressureRejected&) {
      ++st.rejected;
      continue;
    }
    slot.submitted = now_s();
    slot.live = true;
    sink.add(kSubmit, slot.root, slot.request, t_sub, slot.submitted);
    ++st.issued;
    // Sampled batched == B=1 check: the session's history is exactly the
    // row this decision was computed on (only this loop observes).
    if (i % kCheckStride == 0 && n_checks < checks.size()) {
      slot.check = static_cast<long>(n_checks);
      checks[n_checks++].row = sys.service->session_history(sys.sessions[s]);
    }
  }
  // Drain the window oldest first; the engine serves this tail too.
  for (std::size_t k = 0; k < kWindow; ++k) {
    Slot& slot = ring[(i + k) % kWindow];
    if (slot.live) complete(slot);
  }
  st.engine_after = sys.service->report().engine;
  st.measured_seconds = args.seconds;
  st.wall_seconds = now_s() - measure_from;
  return st;
}

Result run_serve(const Args& args, double origin) {
  Result res;
  SpanSink sink;
  sink.on = args.trace;
  if (args.trace) sink.spans.reserve(1 << 19);

  // Set-up, repeated: trace + replay + checkpoint + service with primed
  // sessions. The last repetition serves.
  std::vector<double> setup_s;
  std::unique_ptr<ServeInputs> in;
  ServeSystem sys;
  std::uint64_t sim_passes = 0;
  for (std::size_t r = 0; r < setup_reps(args); ++r) {
    // One system alive at a time: peak memory is one set-up's. The
    // service goes before the registry it serves from.
    sys.service.reset();
    sys = ServeSystem{};
    in.reset();
    const std::uint64_t root = sink.next_id();
    const double t0 = now_s();
    in = std::make_unique<ServeInputs>(make_serve_inputs(args, sink, root, r));
    sys = make_serve_system(args, *in, sink, root, r);
    const double t1 = now_s();
    sink.add(root, kSetup, 0, r, t0, t1);
    setup_s.push_back(t1 - t0);
    if (r > 0 && in->sim_passes != sim_passes)
      res.fail("set-up is not deterministic (replay differs)");
    sim_passes = in->sim_passes;
  }

  std::vector<Check> checks(kMaxChecks);
  std::size_t n_checks = 0;
  const LoopStats st = drive(sys, *in, args, checks, n_checks, sink);
  sys.service->drain_and_stop();
  sink.on = args.trace;

  // Correctness 1: sampled decisions equal ServableModel::infer at B=1,
  // bitwise, on the same flattened history.
  std::uint64_t wrong = 0;
  checks.resize(n_checks);
  for (const auto& c : checks) {
    if (!c.done) continue;  // failed: counted below
    const auto ref = sys.model->infer({c.row});
    if (ref.size() != 1 || ref[0].action != c.decision.action ||
        std::memcmp(&ref[0].score_wait, &c.decision.score_wait, sizeof(float)) != 0 ||
        std::memcmp(&ref[0].score_submit, &c.decision.score_submit, sizeof(float)) != 0)
      ++wrong;
  }
  res.attempted = st.issued + st.rejected;
  if (st.rejected) res.fail(std::to_string(st.rejected) + " decisions rejected", st.rejected);
  if (st.errors) res.fail(std::to_string(st.errors) + " decisions failed", st.errors);
  if (wrong) res.fail(std::to_string(wrong) + " sampled decisions differ from B=1 infer", wrong);
  if (st.completed != st.issued) res.fail("completed decisions != issued decisions");

  // Correctness 2: the journal replays exactly opens + frames + decisions
  // records.
  const std::string wal = (fs::path(args.work) / "wal").string();
  util::wal::RecoveryInfo info;
  std::string error;
  bool ok = false;
  const double wal_replay_s = timed(sink, kWalRecover, 0, 0, [&] {
    ok = util::wal::recover(wal, [](const void*, std::size_t) {}, &info, &error);
  });
  const std::uint64_t expected = kSessions + sys.frames_observed + st.completed;
  if (!ok || info.records != expected || info.torn_tail || sys.service->wal_failed())
    res.fail("journal replayed " + std::to_string(info.records) + " records, expected " +
             std::to_string(expected) + (error.empty() ? "" : " (" + error + ")"));
  double wal_bytes = 0.0;
  for (const auto& e : fs::directory_iterator(wal))
    if (e.is_regular_file()) wal_bytes += static_cast<double>(e.file_size());

  std::vector<double> latency_ms = st.latency_ms[0];
  latency_ms.insert(latency_ms.end(), st.latency_ms[1].begin(), st.latency_ms[1].end());
  const double p50 = median(st.latency_ms[0]);
  const double rate = static_cast<double>(latency_ms.size()) / st.measured_seconds;
  std::printf("serve-saturate: %zu measured decisions, %.0f decisions/s, latency p50 %.4f p90 %.4f "
              "p99 %.4f p99.9 %.4f ms, %zu checks\n",
              latency_ms.size(), rate, median(latency_ms), util::percentile(latency_ms, 90),
              util::percentile(latency_ms, 99), util::percentile(latency_ms, 99.9), checks.size());
  if (!st.per_second.empty())
      std::printf("decisions per second: min %.0f p25 %.0f median %.0f p75 %.0f max %.0f\n",
                util::percentile(st.per_second, 0), util::percentile(st.per_second, 25),
                median(st.per_second), util::percentile(st.per_second, 75),
                util::percentile(st.per_second, 100));

  print_setups(setup_s);
  if (!args.trace) {
    res.metrics["setup_s"] = {median(setup_s), "s"};
    res.metrics["p50_ms"] = {p50, "ms"};
    return res;
  }

  const auto& e0 = st.engine_before;
  const auto& e1 = st.engine_after;
  const double ticks = static_cast<double>(e1.ticks - e0.ticks);
  const double busy = e1.busy_seconds - e0.busy_seconds;
  const double forward_ms = ticks > 0 ? busy / ticks * 1e3 : 0.0;
  // ServableModel::infer at B=1 and B=64 on recorded rows.
  if (!checks.empty()) {
    std::vector<std::vector<float>> one{checks.front().row}, batch;
    for (std::size_t i = 0; i < kMaxBatch; ++i) batch.push_back(checks[i % checks.size()].row);
    for (int i = 0; i < 200; ++i) timed(sink, kInferB1, 0, 0, [&] { (void)sys.model->infer(one); });
    for (int i = 0; i < 50; ++i) timed(sink, kInferB64, 0, 0, [&] { (void)sys.model->infer(batch); });
    res.metrics["nn.infer_b1_ms"] = {median(durations(sink.spans, kInferB1, 1e3)), "ms"};
    res.metrics["nn.infer_b64_ms"] = {median(durations(sink.spans, kInferB64, 1e3)), "ms"};
  }
  const double complete_ms = median(durations(sink.spans, kComplete, 1e3));

  res.metrics["trace.overhead_frac"] = {median(st.latency_ms[1]) / p50 - 1.0, "ratio"};
  res.metrics["trace.generate_s"] = {median(durations(sink.spans, kPrepare, 1.0)), "s"};
  res.metrics["sim.replay_s"] = {median(durations(sink.spans, kReplay, 1.0)), "s"};
  res.metrics["sim.passes"] = {static_cast<double>(in->sim_passes), "count"};
  res.metrics["serve.observe_us"] = {median(durations(sink.spans, kObserve, 1e6)), "us"};
  res.metrics["serve.submit_us"] = {median(durations(sink.spans, kSubmit, 1e6)), "us"};
  res.metrics["serve.complete_ms"] = {complete_ms, "ms"};
  res.metrics["serve.p90_ms"] = {util::percentile(latency_ms, 90), "ms"};
  res.metrics["serve.rate_per_s"] = {rate, "1/s"};
  res.metrics["serve.forward_ms_per_tick"] = {forward_ms, "ms"};
  res.metrics["serve.busy_frac"] = {busy / st.wall_seconds, "ratio"};
  res.metrics["serve.batch_mean"] = {
      ticks > 0 ? static_cast<double>(e1.requests - e0.requests) / ticks : 0.0, "count"};
  res.metrics["serve.rejected"] = {static_cast<double>(st.rejected), "count"};
  res.metrics["serve.overhead_ms"] = {complete_ms - forward_ms, "ms"};
  res.metrics["obs.scrape_ms"] = {median(st.scrape_ms), "ms"};
  res.metrics["wal.bytes_per_decision"] = {
      st.completed ? wal_bytes / static_cast<double>(st.completed) : 0.0, "B"};
  res.metrics["wal.segments"] = {static_cast<double>(info.segments), "count"};
  res.metrics["wal.replay_s"] = {wal_replay_s, "s"};

  if (!args.spans.empty()) write_spans(args.spans, sink.spans, origin);
  return res;
}

// ------------------------------------------------------------------ main

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--tiny") a.tiny = v == "1";
    else if (k == "--work") a.work = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.work.empty() || !(a.seconds > 0))
    throw std::invalid_argument("need --workload, --work and --seconds > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  util::set_log_level(util::LogLevel::kWarn);
  nn::set_num_threads(kNnThreads);
  fs::create_directories(args.work);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d | nn_threads=%zu global_pool=%u "
              "sessions=%zu shards=%zu max_batch=%zu window=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kNnThreads, std::thread::hardware_concurrency(), kSessions,
              kShards, kMaxBatch, kWindow);

  const double origin = now_s();
  const double ref_before = machine_ref_us();
  Result res;
  try {
    if (args.workload == "train-moe-dqn") res = run_train(args, origin);
    else if (args.workload == "serve-saturate") res = run_serve(args, origin);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double ref_after = machine_ref_us();
  std::printf("machine.ref_us before %.3f after %.3f\n", ref_before, ref_after);
  {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("rusage: %ld minor faults, %ld voluntary / %ld involuntary context switches\n",
                ru.ru_minflt, ru.ru_nvcsw, ru.ru_nivcsw);
  }

  for (const auto& [name, m] : res.metrics)
    if (!std::isfinite(m.value)) {
      res.fail("metric " + name + " is not finite");
      res.metrics[name].value = 0.0;
    }
  // The metrics each workload measured; run.py checks the names and units
  // against BENCHMARK.json and reports the layers a workload leaves idle.
  std::map<std::string, Metric> out = res.metrics;
  if (args.trace) out["machine.ref_us"] = {(ref_before + ref_after) / 2, "us"};
  else out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  std::string json = "{\"correct\": " + std::string(res.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
