// Golden-trace regression battery: committed hashes of the synthetic
// workload generator's output and of a short fast-simulator replay for
// every cluster preset. A refactor that silently changes workload
// statistics or scheduling behavior flips these hashes and fails CI.
//
// The hashes cover the integer fields only (ids, times, node counts) —
// the values the rest of the system consumes. They are stable across
// rebuilds on one platform/libm; when a *deliberate* behavior change
// lands, update kGolden from the failure output (the "Which is:" value).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/tensor.hpp"
#include "rl/dqn.hpp"
#include "rl/state_encoder.hpp"
#include "sim/simulator.hpp"
#include "trace/cluster_presets.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace mirage {
namespace {

using trace::Trace;
using util::fnv1a64;
using util::kFnv1a64Basis;

/// Hash every integer field of the generated workload.
std::uint64_t workload_hash(const Trace& t) {
  std::uint64_t h = kFnv1a64Basis;
  for (const auto& j : t) {
    h = fnv1a64(h, static_cast<std::uint64_t>(j.job_id));
    h = fnv1a64(h, static_cast<std::uint64_t>(j.user_id));
    h = fnv1a64(h, static_cast<std::uint64_t>(j.submit_time));
    h = fnv1a64(h, static_cast<std::uint64_t>(j.num_nodes));
    h = fnv1a64(h, static_cast<std::uint64_t>(j.actual_runtime));
    h = fnv1a64(h, static_cast<std::uint64_t>(j.time_limit));
  }
  return h;
}

/// Hash the schedule a default-config replay assigns.
std::uint64_t schedule_hash(const Trace& t) {
  std::uint64_t h = kFnv1a64Basis;
  for (const auto& j : t) {
    h = fnv1a64(h, static_cast<std::uint64_t>(j.start_time));
    h = fnv1a64(h, static_cast<std::uint64_t>(j.end_time));
  }
  return h;
}

struct Golden {
  const char* cluster;
  std::uint64_t trace_hash;     ///< generator output, months [0, 2)
  std::uint64_t replay_hash;    ///< fast-sim replay of months [0, 1)
  std::size_t min_jobs;         ///< sanity floor on the generated size
};

// Committed golden values (seed 4242, job_count_scale 0.05).
constexpr Golden kGolden[] = {
    {"v100", 999695927993735388ull, 1171922746846214506ull, 100},
    {"rtx", 11093893802441895505ull, 12202898578600681424ull, 100},
    {"a100", 9129525659653583131ull, 12124648476754820218ull, 100},
};

// The committed hashes pin one platform's arithmetic: the lognormal /
// erfc draws go through libm, whose last-ulp behavior differs across
// libm implementations and ISAs. Guard rather than chase per-platform
// constants (see the ROADMAP note); the replay invariants themselves are
// covered platform-independently by sim_test/property_test.
#if defined(__x86_64__) && defined(__GLIBC__)
constexpr bool kGoldenPlatform = true;
#else
constexpr bool kGoldenPlatform = false;
#endif

#define MIRAGE_REQUIRE_GOLDEN_PLATFORM()                                              \
  if (!kGoldenPlatform) {                                                             \
    GTEST_SKIP() << "golden hashes are pinned to x86-64 + glibc libm; this platform " \
                    "may differ in last-ulp libm behavior";                           \
  }

class GoldenTrace : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTrace, GeneratorOutputMatchesCommittedHash) {
  MIRAGE_REQUIRE_GOLDEN_PLATFORM();
  const auto& g = GetParam();
  trace::GeneratorOptions opt;
  opt.seed = 4242;
  opt.job_count_scale = 0.05;
  trace::SyntheticTraceGenerator gen(trace::preset_by_name(g.cluster), opt);
  const auto workload = gen.generate_months(0, 2);
  EXPECT_GE(workload.size(), g.min_jobs);
  EXPECT_EQ(workload_hash(workload), g.trace_hash)
      << g.cluster << ": workload statistics changed — if intentional, update kGolden";
}

TEST_P(GoldenTrace, DefaultReplayMatchesCommittedHash) {
  MIRAGE_REQUIRE_GOLDEN_PLATFORM();
  const auto& g = GetParam();
  const auto preset = trace::preset_by_name(g.cluster);
  trace::GeneratorOptions opt;
  opt.seed = 4242;
  opt.job_count_scale = 0.05;
  trace::SyntheticTraceGenerator gen(preset, opt);
  const auto schedule = sim::replay_trace(gen.generate_months(0, 1), preset.node_count);
  EXPECT_EQ(schedule_hash(schedule), g.replay_hash)
      << g.cluster << ": scheduling behavior changed — if intentional, update kGolden";
}

INSTANTIATE_TEST_SUITE_P(Presets, GoldenTrace, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.cluster);
                         });

// ------------------------------------------------------------- NN golden
//
// The bits of a compact MoE+DQN model's serving output and of its
// parameters after a few pre-training steps. Every NN kernel (GEMM tiles,
// GELU/tanh, LayerNorm, attention, Adam) feeds these hashes, so a kernel
// rewrite that changes any element's rounding flips them. They were
// computed before the SIMD kernels landed and must never be updated for a
// pure optimisation.

/// The compact pipeline's network (core::PipelineConfig::compact on a
/// single-partition preset), spelled out so this test pins the numbers,
/// not that function.
rl::DqnConfig compact_moe_dqn() {
  rl::DqnConfig dc;
  dc.foundation = nn::FoundationType::kMoE;
  dc.net.history_len = 16;
  dc.net.state_dim = rl::frame_dim(1);
  dc.net.d_model = 16;
  dc.net.num_heads = 2;
  dc.net.num_layers = 1;
  dc.net.ffn_hidden = 32;
  dc.net.moe_experts = 3;
  return dc;
}

std::uint64_t float_bits_hash(std::uint64_t h, const float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v[i], sizeof bits);
    h = fnv1a64(h, bits);
  }
  return h;
}

/// Observations drawn from N(0, 1), with every 7th value zeroed so the
/// GEMM zero-skip paths are part of the pinned surface.
std::vector<float> golden_observation(util::Rng& rng, std::size_t dim) {
  std::vector<float> obs(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    obs[i] = i % 7 == 0 ? 0.0f : static_cast<float>(rng.normal());
  }
  return obs;
}

constexpr std::uint64_t kGoldenInferQ = 6263073847524409099ull;
constexpr std::uint64_t kGoldenPretrainParams = 12156976214635401793ull;

TEST(GoldenNN, CompactMoeDqnInferQMatchesCommittedHash) {
  MIRAGE_REQUIRE_GOLDEN_PLATFORM();
  rl::DqnAgent agent(compact_moe_dqn(), 2024);
  const std::size_t dim = agent.config().net.input_dim();
  util::Rng rng(77);
  nn::Tensor x(37, dim);  // ragged batch: not a multiple of any lane width
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto obs = golden_observation(rng, dim);
    std::copy(obs.begin(), obs.end(), x.row(r));
  }
  const nn::Tensor q = agent.model().forward_q(x);
  EXPECT_EQ(float_bits_hash(kFnv1a64Basis, q.data(), q.size()), kGoldenInferQ)
      << "MoE+DQN serving output bits changed";
}

TEST(GoldenNN, CompactMoeDqnPretrainParamsMatchCommittedHash) {
  MIRAGE_REQUIRE_GOLDEN_PLATFORM();
  rl::DqnAgent agent(compact_moe_dqn(), 2025);
  const std::size_t dim = agent.config().net.input_dim();
  util::Rng rng(78);
  std::vector<rl::Experience> samples(32);
  for (auto& e : samples) {
    e.observation = golden_observation(rng, dim);
    e.action = rng.uniform() < 0.5 ? 1 : 0;
    e.reward = static_cast<float>(rng.normal(0.0, 4.0));
  }
  std::vector<const rl::Experience*> batch;
  for (const auto& e : samples) batch.push_back(&e);
  for (int step = 0; step < 4; ++step) agent.pretrain_batch(batch);
  std::uint64_t h = kFnv1a64Basis;
  for (const nn::Parameter* p : agent.model().parameters()) {
    h = float_bits_hash(h, p->value.data(), p->value.size());
  }
  EXPECT_EQ(h, kGoldenPretrainParams) << "parameter bits after pre-training changed";
}

}  // namespace
}  // namespace mirage
