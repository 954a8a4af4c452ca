// Micro-benchmarks for the substrates' hot paths: GEMM, attention
// forward/backward, foundation forward, DQN serving and simulator event
// throughput. These back the Figure 5/6 architecture cost discussion and
// the §5.2 "low-overhead simulator" claim.
//
// Run with no arguments (CI mode) for the parallel-GEMM scaling harness:
// matmul GFLOP/s at T=1,2,4,8,hw with a bitwise parallel-vs-serial audit
// (nonzero exit on any byte difference — the determinism contract is a
// gate, not a hope), written to BENCH_nn_micro.json for the bench_compare
// regression gate (key=gemm_gflops_tmax). It also times the SIMD kernels
// of the expert forward on the ISA path the CPU runs (reported as "isa"):
// GELU forward/backward and softmax (16-wide rows) ns per element,
// matmul_nt at the compact model's layer shapes with 2048 rows, and the
// compact attention layer (16 frames, d_model 16, 2 heads) as served (128
// items, inference) and as trained (32 items, forward + backward),
// single-threaded. Pass any --benchmark* flag to run the google-benchmark
// suite instead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "nn/attention.hpp"
#include "nn/dual_head.hpp"
#include "nn/layers.hpp"
#include "nn/parallel.hpp"
#include "rl/dqn.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/time_utils.hpp"

namespace {

using namespace mirage;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  nn::Tensor a(n, n), b(n, n), c;
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulThreads(benchmark::State& state) {
  // The tiled parallel kernel across thread counts: same bits for every
  // row of this benchmark, different wall time. range(0) = n, range(1) = T.
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::ScopedNumThreads threads(static_cast<std::size_t>(state.range(1)));
  util::Rng rng(1);
  nn::Tensor a(n, n), b(n, n), c;
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulThreads)->ArgsProduct({{128, 256}, {1, 2, 4, 8}});

void BM_MatmulNT(benchmark::State& state) {
  // A * B^T — the attention-score / backward-dX shape. Covers the
  // register-blocked kernel (tensor.cpp) whose results stay bitwise
  // identical to the plain dot-per-column form.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  nn::Tensor a(n, 32), b(n, 32), c;
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::matmul_nt(a, b, c, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * 32));
}
BENCHMARK(BM_MatmulNT)->Arg(48)->Arg(144)->Arg(512);

nn::FoundationConfig bench_net(std::size_t k) {
  nn::FoundationConfig cfg;
  cfg.history_len = k;
  cfg.state_dim = 41;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.ffn_hidden = 64;
  cfg.moe_experts = 4;
  return cfg;
}

void BM_AttentionForward(benchmark::State& state) {
  // range(0) = seq, range(1) = d_model (16 is the compact model's).
  const auto seq = static_cast<std::size_t>(state.range(0));
  const auto d_model = static_cast<std::size_t>(state.range(1));
  util::Rng rng(2);
  nn::MultiHeadSelfAttention attn(seq, d_model, 2, rng);
  nn::Tensor x(seq * 4, d_model);  // batch of 4
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto y = attn.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Args({16, 16})->Args({16, 32})->Args({48, 32})->Args({144, 32});

void BM_FoundationForwardBackward(benchmark::State& state) {
  const auto cfg = bench_net(static_cast<std::size_t>(state.range(0)));
  nn::TransformerFoundation f(cfg, 3);
  util::Rng rng(3);
  nn::Tensor x(8, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto y = f.forward(x, true);
    auto dx = f.backward(y);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_FoundationForwardBackward)->Arg(16)->Arg(48);

void BM_MoEForward(benchmark::State& state) {
  auto cfg = bench_net(16);
  cfg.moe_experts = static_cast<std::size_t>(state.range(0));
  nn::MoEFoundation f(cfg, 4);
  util::Rng rng(4);
  nn::Tensor x(4, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto y = f.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MoEForward)->Arg(2)->Arg(4)->Arg(10);

void BM_DqnServingDecision(benchmark::State& state) {
  rl::DqnConfig cfg;
  cfg.net = bench_net(static_cast<std::size_t>(state.range(0)));
  rl::DqnAgent agent(cfg, 5);
  std::vector<float> obs(cfg.net.input_dim(), 0.1f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_greedy(obs));
  }
}
BENCHMARK(BM_DqnServingDecision)->Arg(16)->Arg(144);

void BM_SimulatorMonthReplay(benchmark::State& state) {
  trace::GeneratorOptions opt;
  opt.seed = 6;
  const auto preset = trace::a100_preset();
  trace::SyntheticTraceGenerator gen(preset, opt);
  const auto month = gen.generate_months(2, 3);  // the heavy month
  for (auto _ : state) {
    auto sched = sim::replay_trace(month, preset.node_count);
    benchmark::DoNotOptimize(sched.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(month.size()));
}
BENCHMARK(BM_SimulatorMonthReplay)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- GEMM scaling harness

struct GemmCase {
  std::size_t m, k, n;
  nn::Tensor a, b;
};

/// Best-of-reps seconds for one full pass over the cases at thread count
/// T; fills `outs` with the last pass's results (for the bitwise audit).
double time_gemm_pass(const std::vector<GemmCase>& cases, std::size_t threads, int reps,
                      std::vector<nn::Tensor>& outs) {
  nn::ScopedNumThreads scope(threads);
  outs.resize(cases.size());
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = util::wall_seconds();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      nn::matmul(cases[i].a, cases[i].b, outs[i]);
    }
    best = std::min(best, util::wall_seconds() - t0);
  }
  return best;
}

/// Best-of-reps seconds of fn().
template <class Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = util::wall_seconds();
    fn();
    best = std::min(best, util::wall_seconds() - t0);
  }
  return best;
}

struct KernelTimes {
  double gelu_forward_ns = 0.0;   ///< per element
  double gelu_backward_ns = 0.0;  ///< per element
  double softmax16_ns = 0.0;      ///< per element, rows of 16
  double attention_infer_us = 0.0;  ///< 128 items x 16 frames, d_model 16
  double attention_train_us = 0.0;  ///< 32 items, forward + backward
  struct Shape {
    std::size_t in, out;
    double us = 0.0;
  };
  std::vector<Shape> matmul_nt{{41, 16}, {16, 16}, {16, 32}, {32, 16}};
};

/// Time the expert forward's SIMD kernels on the active ISA, one thread.
KernelTimes time_kernels(int reps) {
  constexpr std::size_t kRows = 2048;
  nn::ScopedNumThreads serial(1);
  util::Rng rng(43);
  KernelTimes kt;
  std::vector<float> x(kRows * 32), y(x.size()), g(x.size());
  for (float& v : x) v = static_cast<float>(rng.normal());
  for (float& v : g) v = static_cast<float>(rng.normal());
  constexpr int kInner = 20;
  const double n = static_cast<double>(x.size()) * kInner;
  kt.gelu_forward_ns = best_seconds(reps, [&] {
    for (int i = 0; i < kInner; ++i) nn::gelu_forward(x.data(), y.data(), x.size());
  }) / n * 1e9;
  // Each pass scales a fresh copy of the gradient, as GELU::backward does;
  // scaling one buffer over and over would drift it into denormals.
  kt.gelu_backward_ns = best_seconds(reps, [&] {
    for (int i = 0; i < kInner; ++i) {
      std::copy(g.begin(), g.end(), y.begin());
      nn::gelu_backward(x.data(), y.data(), y.size());
    }
  }) / n * 1e9;
  // Softmax over its own output: the rows stay ordinary (no underflow,
  // no denormals) from pass to pass.
  nn::Tensor rows16(kRows, 16);
  for (float& v : rows16.flat()) v = static_cast<float>(rng.normal(0.0, 4.0));
  kt.softmax16_ns = best_seconds(reps, [&] {
    for (int i = 0; i < kInner; ++i) nn::softmax_rows(rows16);
  }) / (static_cast<double>(rows16.size()) * kInner) * 1e9;
  // The compact model's attention layer: 16 frames, d_model 16, 2 heads.
  nn::MultiHeadSelfAttention attn(16, 16, 2, rng);
  nn::Tensor serve_x(128 * 16, 16), train_x(32 * 16, 16), train_g(32 * 16, 16);
  for (nn::Tensor* t : {&serve_x, &train_x, &train_g}) {
    for (float& v : t->flat()) v = static_cast<float>(rng.normal());
  }
  kt.attention_infer_us = best_seconds(reps, [&] {
    for (int i = 0; i < kInner; ++i) benchmark::DoNotOptimize(attn.forward(serve_x, false).data());
  }) / kInner * 1e6;
  kt.attention_train_us = best_seconds(reps, [&] {
    for (int i = 0; i < kInner; ++i) {
      attn.forward(train_x, true);
      benchmark::DoNotOptimize(attn.backward(train_g).data());
    }
  }) / kInner * 1e6;
  for (auto& shape : kt.matmul_nt) {
    nn::Tensor a(kRows, shape.in), w(shape.out, shape.in), out;
    for (float& v : a.flat()) v = static_cast<float>(rng.normal());
    for (float& v : w.flat()) v = static_cast<float>(rng.normal());
    shape.us = best_seconds(reps, [&] {
      for (int i = 0; i < kInner; ++i) nn::matmul_nt(a, w, out);
    }) / kInner * 1e6;
  }
  return kt;
}

/// CI mode: measure matmul GFLOP/s across thread counts, audit that every
/// thread count reproduces the serial bytes, emit BENCH_nn_micro.json.
/// Returns the process exit code (nonzero = determinism violation).
int run_gemm_scaling(int argc, char** argv) {
  const auto cli = util::Config::from_args(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 7));
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Square sizes past the serial cutoff, plus one ragged shape so tile
  // remainders are always part of the audited surface.
  std::vector<GemmCase> cases;
  util::Rng rng(42);
  for (const std::size_t n : {128, 192, 256}) {
    GemmCase c{n, n, n, nn::Tensor(n, n), nn::Tensor(n, n)};
    for (float& v : c.a.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    for (float& v : c.b.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    cases.push_back(std::move(c));
  }
  {
    GemmCase c{90, 170, 310, nn::Tensor(90, 170), nn::Tensor(170, 310)};
    for (float& v : c.a.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    for (float& v : c.b.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    cases.push_back(std::move(c));
  }
  double total_flops = 0.0;
  for (const auto& c : cases) total_flops += 2.0 * double(c.m) * double(c.k) * double(c.n);

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) == thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  std::vector<nn::Tensor> serial_outs;
  const double serial_best = time_gemm_pass(cases, 1, reps, serial_outs);
  const double gflops_t1 = total_flops / serial_best / 1e9;

  std::printf("parallel deterministic GEMM scaling (%zu shapes, best of %d, hw=%zu)\n",
              cases.size(), reps, hw);
  std::printf("%8s %12s %12s %10s %9s\n", "threads", "seconds", "GFLOP/s", "speedup", "bitwise");
  std::printf("%8zu %12.6f %12.2f %10.2f %9s\n", std::size_t{1}, serial_best, gflops_t1, 1.0,
              "ref");

  bool bitwise_ok = true;
  double gflops_tmax = gflops_t1;
  std::size_t tmax = 1;
  for (const std::size_t t : thread_counts) {
    if (t == 1) continue;
    std::vector<nn::Tensor> outs;
    const double best = time_gemm_pass(cases, t, reps, outs);
    bool same = true;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      same = same && std::memcmp(outs[i].data(), serial_outs[i].data(),
                                 serial_outs[i].size() * sizeof(float)) == 0;
    }
    bitwise_ok = bitwise_ok && same;
    const double gflops = total_flops / best / 1e9;
    std::printf("%8zu %12.6f %12.2f %10.2f %9s\n", t, best, gflops, serial_best / best,
                same ? "ok" : "DIFF");
    if (t >= tmax) {  // report the highest audited thread count
      tmax = t;
      gflops_tmax = gflops;
    }
  }
  if (!bitwise_ok) {
    std::fprintf(stderr,
                 "FAIL: parallel GEMM diverged from the serial bytes — the "
                 "determinism contract is broken\n");
  }

  const KernelTimes kt = time_kernels(reps);
  const char* isa = nn::simd::isa_name(nn::simd::active_isa());
  std::printf("\nexpert-forward kernels (isa=%s, 1 thread, best of %d)\n", isa, reps);
  std::printf("  GELU forward   %8.2f ns/elem\n", kt.gelu_forward_ns);
  std::printf("  GELU backward  %8.2f ns/elem\n", kt.gelu_backward_ns);
  std::printf("  softmax (16)   %8.2f ns/elem\n", kt.softmax16_ns);
  std::printf("  attention infer 128x16 d16     %8.2f us\n", kt.attention_infer_us);
  std::printf("  attention train 32x16 d16 f+b  %8.2f us\n", kt.attention_train_us);
  for (const auto& shape : kt.matmul_nt) {
    std::printf("  matmul_nt 2048x%zu -> %-3zu %8.2f us\n", shape.in, shape.out, shape.us);
  }

  bench::BenchJson json("nn_micro");
  json.add("params",
           "sizes=128,192,256,90x170x310 reps=" + std::to_string(reps) +
               " tmax=" + std::to_string(tmax))
      .add("hardware_threads", static_cast<std::int64_t>(hw))
      .add("gemm_gflops_t1", gflops_t1)
      .add("gemm_gflops_tmax", gflops_tmax)
      .add("gemm_speedup_tmax", gflops_tmax / gflops_t1)
      .add("bitwise_identical", static_cast<std::int64_t>(bitwise_ok ? 1 : 0))
      .add("isa", isa)
      .add("gelu_forward_ns_per_elem", kt.gelu_forward_ns)
      .add("gelu_backward_ns_per_elem", kt.gelu_backward_ns)
      .add("softmax16_ns_per_elem", kt.softmax16_ns)
      .add("attention_infer_us_128x16x16d16", kt.attention_infer_us)
      .add("attention_train_us_32x16x16d16", kt.attention_train_us);
  for (const auto& shape : kt.matmul_nt) {
    json.add("matmul_nt_us_2048x" + std::to_string(shape.in) + "_to_" + std::to_string(shape.out),
             shape.us);
  }
  json
      .add_resource_fields()
      .write();
  return bitwise_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      benchmark::Initialize(&argc, argv);
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
      return 0;
    }
  }
  return run_gemm_scaling(argc, argv);
}
