// Tests for the online provisioning subsystem (src/serve): registry
// load/validate/hot-reload, batched-vs-B=1 inference parity, concurrent
// session bookkeeping, deterministic replay and graceful drain.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "rl/state_encoder.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/time_utils.hpp"

namespace mirage::serve {
namespace {

namespace fs = std::filesystem;

// Compact architecture shared by every test agent AND the registry
// defaults (non-header knobs must agree for reconstruction).
nn::FoundationConfig test_net() {
  nn::FoundationConfig net;
  net.history_len = 6;
  net.state_dim = rl::kFrameDim;
  net.d_model = 16;
  net.num_heads = 2;
  net.num_layers = 1;
  net.ffn_hidden = 32;
  net.moe_experts = 2;
  return net;
}

RegistryConfig test_registry_config() {
  RegistryConfig cfg;
  cfg.net_defaults = test_net();
  return cfg;
}

rl::DqnAgent make_dqn(std::uint64_t seed, nn::FoundationType type = nn::FoundationType::kMoE) {
  rl::DqnConfig cfg;
  cfg.foundation = type;
  cfg.net = test_net();
  return rl::DqnAgent(cfg, seed);
}

rl::PgAgent make_pg(std::uint64_t seed) {
  rl::PgConfig cfg;
  cfg.foundation = nn::FoundationType::kTransformer;
  cfg.net = test_net();
  return rl::PgAgent(cfg, seed);
}

/// Unique scratch dir per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() / ("mirage_serve_" + tag);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return (path / name).string(); }
};

/// Deterministic synthetic cluster snapshot stream (per session, per step).
sim::StateSample make_sample(std::uint64_t session, std::uint64_t step) {
  util::Rng rng(session * 1000003ull + step * 7919ull + 1);
  sim::StateSample s;
  s.now = static_cast<util::SimTime>(step) * 600;
  s.total_nodes = 88;
  s.free_nodes = static_cast<std::int32_t>(rng.uniform_int(0, 88));
  const auto nq = rng.uniform_int(0, 10);
  for (std::int64_t i = 0; i < nq; ++i) {
    s.queued_sizes.push_back(static_cast<double>(rng.uniform_int(1, 8)));
    s.queued_ages.push_back(rng.uniform(0.0, 86400.0));
    s.queued_limits.push_back(rng.uniform(3600.0, 172800.0));
  }
  const auto nr = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < nr; ++i) {
    s.running_sizes.push_back(static_cast<double>(rng.uniform_int(1, 8)));
    s.running_elapsed.push_back(rng.uniform(0.0, 172800.0));
    s.running_limits.push_back(rng.uniform(3600.0, 172800.0));
  }
  return s;
}

rl::JobPairContext make_ctx(std::uint64_t session) {
  rl::JobPairContext ctx;
  ctx.pred_nodes = 1 + static_cast<std::int32_t>(session % 4);
  ctx.pred_elapsed = static_cast<util::SimTime>(session % 7) * util::kHour;
  return ctx;
}

/// Allocation-free stub model: decision = sign of the first element.
/// `short_batch` mimics a broken hot-reloaded model whose infer truncates
/// its output vector — the engine must refuse to serve such a batch.
struct StubModel : ServableModel {
  static core::CheckpointInfo stub_info(std::size_t dim) {
    core::CheckpointInfo info;
    info.history_len = 1;
    info.state_dim = dim;
    return info;
  }
  explicit StubModel(std::size_t dim, bool short_batch = false)
      : ServableModel({"stub", "dqn", "moe"}, stub_info(dim), "<stub>", 1, nullptr),
        short_batch_(short_batch) {}
  void infer_into(const std::vector<std::vector<float>>& observations,
                  std::vector<Decision>& out) const override {
    out.resize(observations.size());
    for (std::size_t i = 0; i < observations.size(); ++i) {
      out[i].action = !observations[i].empty() && observations[i][0] > 0.0f ? 1 : 0;
      out[i].score_submit = out[i].action ? 1.0f : 0.0f;
      out[i].score_wait = 1.0f - out[i].score_submit;
      out[i].model_version = version();
    }
    if (short_batch_ && out.size() > 1) out.pop_back();
  }
  bool short_batch_;
};

// ---------------------------------------------------------------- Registry

TEST(ModelRegistry, ScanLoadsAndKeysCheckpoints) {
  TempDir dir("scan");
  auto dqn = make_dqn(11);
  auto pg = make_pg(13);
  ASSERT_TRUE(core::save_agent(dqn, dir.file("v100__moe_dqn.ckpt")));
  ASSERT_TRUE(core::save_agent(pg, dir.file("rtx__tf_pg.ckpt")));

  ModelRegistry registry(test_registry_config());
  std::vector<ModelRegistry::LoadResult> results;
  EXPECT_EQ(registry.scan_directory(dir.path.string(), &results), 2u);
  EXPECT_EQ(registry.size(), 2u);
  for (const auto& r : results) EXPECT_TRUE(r.ok) << r.error;

  const auto dqn_model = registry.lookup({"v100", "dqn", "moe"});
  ASSERT_NE(dqn_model, nullptr);
  EXPECT_TRUE(dqn_model->is_dqn());
  EXPECT_EQ(dqn_model->info().history_len, test_net().history_len);
  EXPECT_EQ(dqn_model->info().d_model, test_net().d_model);

  const auto pg_model = registry.find("rtx", "pg");
  ASSERT_NE(pg_model, nullptr);
  EXPECT_FALSE(pg_model->is_dqn());
  EXPECT_EQ(pg_model->key().foundation, "transformer");

  EXPECT_EQ(registry.lookup({"a100", "dqn", "moe"}), nullptr);
  EXPECT_EQ(registry.keys().size(), 2u);
}

TEST(ModelRegistry, RejectsArchitectureMismatch) {
  TempDir dir("mismatch");
  // Same header fields, different depth (num_layers is not in the header,
  // so only the parameter-shape validation can catch it).
  rl::DqnConfig deep;
  deep.foundation = nn::FoundationType::kMoE;
  deep.net = test_net();
  deep.net.num_layers = 3;
  rl::DqnAgent agent(deep, 5);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__deep.ckpt")));

  ModelRegistry registry(test_registry_config());
  const auto res = registry.load_file(dir.file("v100__deep.ckpt"), "v100");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("architecture mismatch"), std::string::npos) << res.error;
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ModelRegistry, RejectsWrongFrameWidthAndGarbage) {
  TempDir dir("reject");
  rl::DqnConfig narrow;
  narrow.foundation = nn::FoundationType::kMoE;
  narrow.net = test_net();
  narrow.net.state_dim = 10;  // not the serving frame width
  rl::DqnAgent agent(narrow, 5);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__narrow.ckpt")));
  {
    std::ofstream out(dir.file("v100__junk.ckpt"), std::ios::binary);
    out << "not a checkpoint at all";
  }

  ModelRegistry registry(test_registry_config());
  std::vector<ModelRegistry::LoadResult> results;
  EXPECT_EQ(registry.scan_directory(dir.path.string(), &results), 0u);
  EXPECT_EQ(registry.size(), 0u);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_FALSE(r.ok);
}

TEST(ModelRegistry, RejectsZeroExpertMoEHeader) {
  // A crafted header with moe_experts=0 must be refused before any agent
  // is constructed (it would index an empty expert table when served).
  TempDir dir("zeroexp");
  {
    std::ofstream out(dir.file("v100__zero.ckpt"), std::ios::binary);
    out << "MIRAGE-CKPT-2 dqn moe 6 " << rl::kFrameDim << " 16 0 1\n"
        << "garbage parameter bytes";
  }
  ModelRegistry registry(test_registry_config());
  const auto res = registry.load_file(dir.file("v100__zero.ckpt"), "v100");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("degenerate"), std::string::npos) << res.error;
}

TEST(ModelRegistry, ScanOfMissingDirectoryReportsError) {
  ModelRegistry registry(test_registry_config());
  std::vector<ModelRegistry::LoadResult> results;
  EXPECT_EQ(registry.scan_directory("/no/such/dir/anywhere", &results), 0u);
  ASSERT_EQ(results.size(), 1u);  // not silently "empty directory"
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("/no/such/dir/anywhere"), std::string::npos);
}

TEST(ModelRegistry, ClusterParsedFromFilename) {
  EXPECT_EQ(cluster_from_filename("/models/v100__moe_dqn.ckpt"), "v100");
  EXPECT_EQ(cluster_from_filename("rtx__a__b.ckpt"), "rtx");
  EXPECT_EQ(cluster_from_filename("/models/plain.ckpt"), "plain");
}

// ------------------------------------------------------------------ Parity

TEST(BatchedInference, DqnBatchedMatchesSingleBitwise) {
  TempDir dir("parity_dqn");
  auto trained = make_dqn(101);
  ASSERT_TRUE(core::save_agent(trained, dir.file("v100__dqn.ckpt")));

  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);
  const auto model = registry.lookup({"v100", "dqn", "moe"});
  ASSERT_NE(model, nullptr);

  util::Rng rng(7);
  std::vector<std::vector<float>> observations;
  for (int i = 0; i < 33; ++i) {  // odd size: exercises non-full tiles
    std::vector<float> obs(model->observation_dim());
    for (auto& v : obs) v = static_cast<float>(rng.normal());
    observations.push_back(std::move(obs));
  }

  const auto batched = model->infer(observations);
  ASSERT_EQ(batched.size(), observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const auto [q_wait, q_submit] = trained.q_pair(observations[i]);
    // Bitwise: batched rows are computed by the same per-row kernels.
    EXPECT_EQ(batched[i].score_wait, q_wait) << "row " << i;
    EXPECT_EQ(batched[i].score_submit, q_submit) << "row " << i;
    EXPECT_EQ(batched[i].action, trained.act_greedy(observations[i])) << "row " << i;
  }
}

TEST(BatchedInference, PgBatchedMatchesSingleBitwise) {
  TempDir dir("parity_pg");
  auto trained = make_pg(103);
  ASSERT_TRUE(core::save_agent(trained, dir.file("rtx__pg.ckpt")));

  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("rtx__pg.ckpt"), "rtx").ok);
  const auto model = registry.lookup({"rtx", "pg", "transformer"});
  ASSERT_NE(model, nullptr);

  util::Rng rng(9);
  std::vector<std::vector<float>> observations;
  for (int i = 0; i < 17; ++i) {
    std::vector<float> obs(model->observation_dim());
    for (auto& v : obs) v = static_cast<float>(rng.normal());
    observations.push_back(std::move(obs));
  }

  const auto batched = model->infer(observations);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    EXPECT_EQ(batched[i].score_submit, trained.submit_probability(observations[i]))
        << "row " << i;
    EXPECT_EQ(batched[i].action, trained.act_greedy(observations[i])) << "row " << i;
  }
}

TEST(BatchedInference, Top1SparseRoutingMatchesDenseBitwise) {
  // Serving a Top-1 MoE checkpoint runs only each row's routed expert;
  // outputs must still be bitwise equal to the dense evaluate-then-select
  // forward that training runs (every expert on every row).
  TempDir dir("parity_top1");
  rl::DqnConfig cfg;
  cfg.foundation = nn::FoundationType::kMoE;
  cfg.net = test_net();
  cfg.net.moe_experts = 4;
  cfg.net.moe_top1 = true;
  rl::DqnAgent trained(cfg, 107);
  ASSERT_TRUE(core::save_agent(trained, dir.file("v100__top1.ckpt")));

  ModelRegistry registry(test_registry_config());
  const auto load = registry.load_file(dir.file("v100__top1.ckpt"), "v100");
  ASSERT_TRUE(load.ok) << load.error;
  const auto model = registry.lookup({"v100", "dqn", "moe"});
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->info().moe_top1);  // recovered from the v2 header

  util::Rng rng(11);
  std::vector<std::vector<float>> observations;
  for (int i = 0; i < 41; ++i) {  // enough rows to hit several experts
    std::vector<float> obs(model->observation_dim());
    for (auto& v : obs) v = static_cast<float>(rng.normal());
    observations.push_back(std::move(obs));
  }
  const auto batched = model->infer(observations);
  // Dense reference: one train-mode Q-pass, row 2i "wait", row 2i+1 "submit".
  const std::size_t k = cfg.net.history_len;
  nn::Tensor x(2 * observations.size(), model->observation_dim());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    std::vector<float> obs = observations[i];
    rl::set_action_channel(obs, k, -1.0f);
    std::copy(obs.begin(), obs.end(), x.row(2 * i));
    rl::set_action_channel(obs, k, 1.0f);
    std::copy(obs.begin(), obs.end(), x.row(2 * i + 1));
  }
  const nn::Tensor dense = trained.model().forward_q(x, /*train=*/true);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    EXPECT_EQ(batched[i].score_wait, dense.at(2 * i, 0)) << "row " << i;
    EXPECT_EQ(batched[i].score_submit, dense.at(2 * i + 1, 0)) << "row " << i;
  }
}

TEST(BatchedInference, RejectsWrongObservationDim) {
  TempDir dir("baddim");
  auto agent = make_dqn(5);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);
  const auto model = registry.lookup({"v100", "dqn", "moe"});
  EXPECT_THROW(model->infer({std::vector<float>(3)}), std::invalid_argument);
}

// ------------------------------------------------------------------ Engine

TEST(InferenceEngine, BatchesQueuedRequestsInOneTick) {
  TempDir dir("engine");
  auto agent = make_dqn(21);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  EngineConfig cfg;
  cfg.max_batch = 16;
  cfg.coalesce_wait = std::chrono::microseconds(0);
  BatchedInferenceEngine engine(registry, {"v100", "dqn", "moe"}, cfg);

  // Queue before starting: the first tick must coalesce all of them.
  decision_latency_histogram().reset();
  const std::size_t dim = test_net().history_len * test_net().state_dim;
  std::vector<AsyncDecision> handles(10);
  for (auto& handle : handles) {
    std::vector<float> obs(dim, 0.1f);
    ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
  }
  engine.start();
  for (auto& handle : handles) EXPECT_NO_THROW(handle.get());
  engine.drain();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.max_batch, 10u);
  EXPECT_EQ(stats.ticks, 1u);
  // Each served decision is recorded exactly once.
  EXPECT_EQ(decision_latency_histogram().snapshot().count, 10u);
}

TEST(InferenceEngine, ThrowingCallbackFailsOnlyItsOwnRequest) {
  TempDir dir("badcb");
  auto agent = make_dqn(23);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);
  BatchedInferenceEngine engine(registry, {"v100", "dqn", "moe"});
  engine.start();

  struct ThrowingHook : CompletionHook {
    void on_served(const Decision&) override { throw std::logic_error("callback boom"); }
  };
  const std::size_t dim = test_net().history_len * test_net().state_dim;
  std::vector<float> obs(dim, 0.1f);
  AsyncDecision bad;
  ASSERT_EQ(engine.submit_pooled(obs, bad, std::make_shared<ThrowingHook>()),
            BatchedInferenceEngine::SubmitResult::kOk);
  EXPECT_THROW(bad.get(), std::logic_error);
  // Engine thread survives and keeps serving.
  obs.assign(dim, 0.2f);
  AsyncDecision good;
  ASSERT_EQ(engine.submit_pooled(obs, good), BatchedInferenceEngine::SubmitResult::kOk);
  EXPECT_NO_THROW(good.get());
  engine.drain();
}

TEST(InferenceEngine, NoModelFailsTheBatch) {
  BatchedInferenceEngine engine([] { return ModelSnapshot(); });
  engine.start();
  std::vector<float> obs(4, 0.0f);
  AsyncDecision handle;
  ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
  EXPECT_THROW(handle.get(), std::runtime_error);
  engine.drain();
}

TEST(InferenceEngine, SubmitAfterDrainIsRejected) {
  TempDir dir("drain");
  auto agent = make_dqn(31);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);
  BatchedInferenceEngine engine(registry, {"v100", "dqn", "moe"});
  engine.start();
  engine.drain();
  EXPECT_FALSE(engine.accepting());
  std::vector<float> obs(4, 0.0f);
  AsyncDecision handle;
  EXPECT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kDraining);
  EXPECT_FALSE(handle.valid());
}

TEST(InferenceEngine, BoundedQueueRejectsWithBackpressure) {
  TempDir dir("backpressure");
  auto agent = make_dqn(33);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  EngineConfig cfg;
  cfg.max_queue = 4;
  cfg.coalesce_wait = std::chrono::microseconds(0);
  BatchedInferenceEngine engine(registry, {"v100", "dqn", "moe"}, cfg);

  // Engine not started: the ring fills deterministically.
  const std::size_t dim = test_net().history_len * test_net().state_dim;
  std::vector<AsyncDecision> queued(4);
  for (auto& handle : queued) {
    std::vector<float> obs(dim, 0.1f);
    ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
  }
  EXPECT_EQ(engine.queue_depth(), 4u);

  for (int i = 0; i < 2; ++i) {
    std::vector<float> obs(dim, 0.2f);
    AsyncDecision over;
    EXPECT_EQ(engine.submit_pooled(obs, over),
              BatchedInferenceEngine::SubmitResult::kRejectedBackpressure);
    EXPECT_FALSE(over.valid());
    EXPECT_EQ(obs.size(), dim);  // rejected submission hands the buffer back
  }
  EXPECT_EQ(engine.stats().rejected, 2u);

  // The queued four are unharmed and get served once the engine runs.
  engine.start();
  for (auto& handle : queued) EXPECT_NO_THROW(handle.get());
  engine.drain();
  EXPECT_EQ(engine.stats().requests, 4u);
}

TEST(InferenceEngine, TruncatedModelOutputFailsWholeBatchLoudly) {
  // A model returning fewer decisions than observations (e.g. a broken
  // hot-reload) must fail every request in the batch with a descriptive
  // error — never index out of bounds or serve a partial batch.
  auto model = std::make_shared<const StubModel>(4, /*short_batch=*/true);
  EngineConfig cfg;
  cfg.coalesce_wait = std::chrono::microseconds(0);
  cfg.use_thread_pool = false;
  BatchedInferenceEngine engine([model] { return ModelSnapshot(model); }, cfg);

  decision_latency_histogram().reset();
  std::vector<AsyncDecision> handles(3);
  for (auto& handle : handles) {
    std::vector<float> obs(4, 1.0f);
    ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
  }
  engine.start();
  for (auto& handle : handles) {
    try {
      handle.get();
      FAIL() << "truncated batch must fail";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    }
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 3u);
  // Latency reflects SERVED decisions only — the failed batch recorded none.
  EXPECT_EQ(decision_latency_histogram().snapshot().count, 0u);
}

// ------------------------------------------- Pooled async path (ISSUE 10)

TEST(InferenceEngine, PooledAsyncMatchesBlockingAndRecyclesTokens) {
  auto model = std::make_shared<const StubModel>(4);
  EngineConfig cfg;
  cfg.coalesce_wait = std::chrono::microseconds(0);
  cfg.use_thread_pool = false;
  BatchedInferenceEngine engine([model] { return ModelSnapshot(model); }, cfg);
  engine.start();

  // Sequential pooled decides recycle ONE completion token forever.
  std::vector<float> obs;
  for (int i = 0; i < 100; ++i) {
    obs.assign(4, i % 2 ? 1.0f : -1.0f);
    AsyncDecision handle;
    ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
    ASSERT_TRUE(handle.valid());
    const Decision d = handle.get();
    EXPECT_EQ(d.action, i % 2 ? 1 : 0);
    EXPECT_FALSE(handle.valid());  // get() is single-shot
  }
  EXPECT_EQ(engine.tokens_created(), 1u);

  // A pipelined window grows the pool to at most the window size and then
  // stays flat across repetitions (the allocation audit bench_serve_soak
  // gates; here we pin the exact pool-size bound).
  std::vector<AsyncDecision> window(8);
  for (int rep = 0; rep < 5; ++rep) {
    for (auto& handle : window) {
      obs.assign(4, 1.0f);
      ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
    }
    for (auto& handle : window) EXPECT_EQ(handle.get().action, 1);
  }
  EXPECT_LE(engine.tokens_created(), 9u);  // 1 sequential + <= 8 in flight
  engine.drain();
  EXPECT_EQ(engine.stats().requests, 140u);
}

TEST(InferenceEngine, PooledAsyncBackpressureAndDrainLeaveHandleInvalid) {
  auto model = std::make_shared<const StubModel>(4);
  EngineConfig cfg;
  cfg.max_queue = 2;
  cfg.coalesce_wait = std::chrono::microseconds(0);
  cfg.use_thread_pool = false;
  BatchedInferenceEngine engine([model] { return ModelSnapshot(model); }, cfg);

  // Engine not started: the ring fills deterministically.
  std::vector<float> obs(4, 1.0f);
  AsyncDecision a, b, over;
  ASSERT_EQ(engine.submit_pooled(obs, a), BatchedInferenceEngine::SubmitResult::kOk);
  obs.assign(4, 1.0f);
  ASSERT_EQ(engine.submit_pooled(obs, b), BatchedInferenceEngine::SubmitResult::kOk);
  obs.assign(4, 1.0f);
  EXPECT_EQ(engine.submit_pooled(obs, over),
            BatchedInferenceEngine::SubmitResult::kRejectedBackpressure);
  EXPECT_FALSE(over.valid());        // rejection never arms the handle
  EXPECT_EQ(obs.size(), 4u);         // the observation buffer came back
  EXPECT_EQ(engine.stats().rejected, 1u);

  engine.start();
  EXPECT_EQ(a.get().action, 1);
  EXPECT_EQ(b.get().action, 1);
  engine.drain();

  AsyncDecision after;
  obs.assign(4, 1.0f);
  EXPECT_EQ(engine.submit_pooled(obs, after), BatchedInferenceEngine::SubmitResult::kDraining);
  EXPECT_FALSE(after.valid());
}

TEST(InferenceEngine, AbandonedPooledHandleReturnsItsTokenSafely) {
  auto model = std::make_shared<const StubModel>(4);
  EngineConfig cfg;
  cfg.coalesce_wait = std::chrono::microseconds(0);
  cfg.use_thread_pool = false;
  BatchedInferenceEngine engine([model] { return ModelSnapshot(model); }, cfg);
  engine.start();

  std::vector<float> obs;
  {
    // Destroyed without get(): the token must drain back to the pool
    // without blocking destruction forever or corrupting the ring.
    obs.assign(4, 1.0f);
    AsyncDecision abandoned;
    ASSERT_EQ(engine.submit_pooled(obs, abandoned),
              BatchedInferenceEngine::SubmitResult::kOk);
  }
  // The engine keeps serving and the recycled token pool stays bounded.
  for (int i = 0; i < 16; ++i) {
    obs.assign(4, -1.0f);
    AsyncDecision handle;
    ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
    EXPECT_EQ(handle.get().action, 0);
  }
  EXPECT_LE(engine.tokens_created(), 2u);
  engine.drain();
}

TEST(InferenceEngine, PooledAsyncFailedBatchRethrowsOnGet) {
  EngineConfig cfg;
  cfg.coalesce_wait = std::chrono::microseconds(0);
  cfg.use_thread_pool = false;
  BatchedInferenceEngine engine([] { return ModelSnapshot(); }, cfg);
  engine.start();
  std::vector<float> obs(4, 0.0f);
  AsyncDecision handle;
  ASSERT_EQ(engine.submit_pooled(obs, handle), BatchedInferenceEngine::SubmitResult::kOk);
  EXPECT_THROW(handle.get(), std::runtime_error);
  engine.drain();
}

TEST(ProvisioningService, PooledAsyncDecidesMatchBlockingBitwise) {
  TempDir dir("pooled");
  auto agent = make_dqn(41);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.engine.coalesce_wait = std::chrono::microseconds(0);
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  const auto id = service.open_session();

  // A decision never mutates the ring, so on the same history the
  // blocking, pooled-async and throwing-pooled paths must agree bitwise.
  for (std::uint64_t t = 0; t < 10; ++t) {
    service.observe(id, make_sample(id, t), make_ctx(id));
    const Decision blocking = service.decide(id);
    AsyncDecision handle;
    ASSERT_EQ(service.try_decide_async(id, handle),
              BatchedInferenceEngine::SubmitResult::kOk);
    const Decision pooled = handle.get();
    const Decision convenience = service.decide_async_pooled(id).get();
    EXPECT_EQ(pooled.action, blocking.action);
    EXPECT_EQ(pooled.score_submit, blocking.score_submit);
    EXPECT_EQ(pooled.score_wait, blocking.score_wait);
    EXPECT_EQ(convenience.action, blocking.action);
    EXPECT_EQ(convenience.score_submit, blocking.score_submit);
    EXPECT_EQ(convenience.score_wait, blocking.score_wait);
  }
  // Served accounting counts every pooled completion exactly once.
  EXPECT_EQ(service.report().decisions, 30u);

  service.close_session(id);
  AsyncDecision handle;
  EXPECT_THROW((void)service.try_decide_async(id, handle), std::out_of_range);
  EXPECT_THROW((void)service.decide_async_pooled(id), std::out_of_range);
  service.drain_and_stop();
  EXPECT_THROW((void)service.decide_async_pooled(service.open_session()), std::runtime_error);
}

// --------------------------------------------------------------- Hot reload

TEST(ModelRegistry, HotReloadUnderConcurrentRequests) {
  TempDir dir("hotreload");
  auto a = make_dqn(41);
  auto b = make_dqn(42);  // same architecture, different weights
  ASSERT_TRUE(core::save_agent(a, dir.file("hot__a.ckpt")));
  ASSERT_TRUE(core::save_agent(b, dir.file("hot__b.ckpt")));

  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("hot__a.ckpt"), "hot").ok);
  const ModelKey key{"hot", "dqn", "moe"};

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.engine.max_batch = 8;
  cfg.engine.coalesce_wait = std::chrono::microseconds(50);
  ProvisioningService service(registry, key, cfg);
  service.start();

  constexpr int kClients = 4;
  constexpr int kDecisionsPerClient = 40;
  std::atomic<int> failures{0};
  std::mutex versions_mutex;
  std::set<std::uint64_t> versions_seen;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const SessionId id = service.open_session();
      for (int t = 0; t < kDecisionsPerClient; ++t) {
        service.observe(id, make_sample(static_cast<std::uint64_t>(c), t),
                        make_ctx(static_cast<std::uint64_t>(c)));
        try {
          const Decision d = service.decide(id);
          std::lock_guard<std::mutex> lock(versions_mutex);
          versions_seen.insert(d.model_version);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }

  // Hot-reload between the two checkpoint versions while clients decide.
  std::uint64_t last_version = 0;
  for (int r = 0; r < 24; ++r) {
    const auto res = registry.load_file(
        dir.file(r % 2 == 0 ? "hot__b.ckpt" : "hot__a.ckpt"), "hot");
    ASSERT_TRUE(res.ok) << res.error;
    last_version = res.version;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : clients) t.join();
  service.drain_and_stop();

  EXPECT_EQ(failures.load(), 0);
  // Requests were served across multiple model versions without dropping.
  EXPECT_GE(versions_seen.size(), 2u);
  const auto current = registry.lookup(key);
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version(), last_version);
  const auto report = service.report();
  EXPECT_EQ(report.decisions, static_cast<std::uint64_t>(kClients * kDecisionsPerClient));
}

// ----------------------------------------------------------------- Service

TEST(ProvisioningService, ManyConcurrentSessionsKeepCorrectHistories) {
  TempDir dir("sessions");
  auto agent = make_dqn(51);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.engine.max_batch = 32;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();

  constexpr std::size_t kSessions = 128;  // >= 100 concurrent sessions
  constexpr std::size_t kSteps = 9;       // > history_len: ring wraps

  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) ids.push_back(service.open_session());
  EXPECT_EQ(service.session_count(), kSessions);

  // Feed every session its own stream from concurrent clients, one decision
  // per step, all funneling through the shared batched engine.
  std::vector<std::vector<int>> actions(kSessions);
  {
    std::vector<std::thread> feeders;
    const std::size_t kThreads = 8;
    for (std::size_t w = 0; w < kThreads; ++w) {
      feeders.emplace_back([&, w] {
        for (std::size_t s = w; s < kSessions; s += kThreads) {
          for (std::size_t t = 0; t < kSteps; ++t) {
            service.observe(ids[s], make_sample(s, t), make_ctx(s));
            actions[s].push_back(service.decide(ids[s]).action);
          }
        }
      });
    }
    for (auto& t : feeders) t.join();
  }

  // Per-session history must equal a standalone encoder fed the same
  // stream, and the decisions must match the agent served directly.
  for (std::size_t s = 0; s < kSessions; ++s) {
    rl::StateEncoder reference(cfg.history_len);
    for (std::size_t t = 0; t < kSteps; ++t) reference.push(make_sample(s, t), make_ctx(s));
    EXPECT_EQ(service.session_history(ids[s]), reference.flatten(0.0f)) << "session " << s;
    EXPECT_EQ(service.session_frames_seen(ids[s]), kSteps);
    EXPECT_EQ(actions[s].back(), agent.act_greedy(reference.flatten(0.0f))) << "session " << s;
  }

  const auto report = service.report();
  EXPECT_EQ(report.decisions, kSessions * kSteps);
  EXPECT_EQ(report.engine.requests, kSessions * kSteps);
  EXPECT_GE(report.engine.max_batch, 2u);  // batching actually happened
  service.drain_and_stop();
}

TEST(ProvisioningService, DeterministicSessionReplay) {
  TempDir dir("replay");
  auto agent = make_dqn(61);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  const auto run_once = [&] {
    ServiceConfig cfg;
    cfg.history_len = test_net().history_len;
    ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
    service.start();
    std::vector<std::vector<int>> all_actions;
    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < 12; ++s) ids.push_back(service.open_session());
    for (std::size_t s = 0; s < ids.size(); ++s) {
      std::vector<int> actions;
      for (std::size_t t = 0; t < 10; ++t) {
        service.observe(ids[s], make_sample(s, t), make_ctx(s));
        actions.push_back(service.decide(ids[s]).action);
      }
      all_actions.push_back(std::move(actions));
    }
    service.drain_and_stop();
    return all_actions;
  };

  // Same seed, same streams -> bit-identical decision sequences.
  EXPECT_EQ(run_once(), run_once());
}

TEST(ProvisioningService, MetricsTextExposesPrometheusCountersAndLatency) {
  TempDir dir("metrics");
  auto agent = make_dqn(71);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  decision_latency_histogram().reset();
  service.start();
  const SessionId id = service.open_session();
  for (std::size_t t = 0; t < 5; ++t) {
    service.observe(id, make_sample(0, t), make_ctx(0));
    service.decide(id);
  }
  service.drain_and_stop();

  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("# TYPE mirage_serve_decisions_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("mirage_serve_decisions_total 5"), std::string::npos) << text;
  EXPECT_NE(text.find("mirage_serve_sessions_total 1"), std::string::npos);
  // Latency is the one decision histogram: 5 served decisions, each
  // recorded once, with the octave bounds up to +Inf.
  EXPECT_NE(text.find("# TYPE mirage_serve_decision_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("mirage_serve_decision_latency_seconds_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("mirage_serve_decision_latency_seconds_count 5"), std::string::npos);
  EXPECT_EQ(text.find("mirage_serve_latency_seconds"), std::string::npos);
  EXPECT_NE(text.find("mirage_serve_session_shards"), std::string::npos);
  EXPECT_NE(text.find("mirage_serve_rejected_backpressure_total 0"), std::string::npos);
  // The service exposition appends the process-wide obs registry, so span
  // histograms (serve_batch at minimum) ride along.
  EXPECT_NE(text.find("obs_span_seconds_serve_batch"), std::string::npos);
}

TEST(ProvisioningService, GracefulDrainCompletesInFlight) {
  TempDir dir("gdrain");
  auto agent = make_dqn(71);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.engine.coalesce_wait = std::chrono::microseconds(2000);
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);

  const SessionId id = service.open_session();
  service.observe(id, make_sample(1, 0), make_ctx(1));

  // Queue decisions while the engine thread is not yet running, then start
  // and immediately drain: every queued request must still be answered.
  std::vector<AsyncDecision> in_flight;
  for (int i = 0; i < 20; ++i) in_flight.push_back(service.decide_async_pooled(id));
  service.start();
  service.drain_and_stop();
  for (auto& handle : in_flight) EXPECT_NO_THROW(handle.get());

  // After the drain new work is rejected, loudly.
  EXPECT_THROW((void)service.decide_async_pooled(id), std::runtime_error);
}

TEST(ProvisioningService, UnknownAndClosedSessionsThrow) {
  TempDir dir("badsess");
  auto agent = make_dqn(81);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  EXPECT_THROW(service.decide(999), std::out_of_range);
  const SessionId id = service.open_session();
  service.close_session(id);
  EXPECT_THROW(service.observe(id, make_sample(0, 0), make_ctx(0)), std::out_of_range);
  service.drain_and_stop();
}

TEST(ProvisioningService, HistoryLenMismatchFailsLoudly) {
  TempDir dir("klen");
  auto agent = make_dqn(91);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len + 3;  // wrong ring size
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  const SessionId id = service.open_session();
  service.observe(id, make_sample(0, 0), make_ctx(0));
  EXPECT_THROW(service.decide(id), std::invalid_argument);
  service.drain_and_stop();
}

TEST(ProvisioningService, DecideThrowsBackpressureWhenEngineSaturated) {
  TempDir dir("svc_bp");
  auto agent = make_dqn(93);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.engine.max_queue = 1;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  // Deliberately not started: the single queue slot stays occupied.
  const SessionId id = service.open_session();
  service.observe(id, make_sample(0, 0), make_ctx(0));
  auto parked = service.decide_async_pooled(id);  // fills the only slot

  EXPECT_THROW(service.decide(id), BackpressureRejected);
  Decision out;
  EXPECT_EQ(service.try_decide(id, out),
            BatchedInferenceEngine::SubmitResult::kRejectedBackpressure);

  service.start();
  EXPECT_NO_THROW(parked.get());
  service.drain_and_stop();
  const auto report = service.report();
  EXPECT_EQ(report.decisions, 1u);  // rejected requests never counted served
  EXPECT_EQ(report.engine.rejected, 2u);
  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("mirage_serve_rejected_backpressure_total 2"), std::string::npos) << text;
}

// --------------------------------------------------------------------- TTL

TEST(ProvisioningService, TtlEvictsIdleSessionsLazilyAndOnSweep) {
  TempDir dir("ttl");
  auto agent = make_dqn(95);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 4;
  cfg.session_ttl_seconds = 0.03;
  // No start(): no background sweeper, so only the lazy check and the
  // explicit evict_expired() below reap anything.
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);

  std::vector<SessionId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(service.open_session());
  EXPECT_EQ(service.session_count(), 8u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Lazy path: touching an expired session reaps it and reports it exactly
  // like a closed one (std::out_of_range, not a crash or a stale serve).
  EXPECT_THROW(service.observe(ids[0], make_sample(0, 0), make_ctx(0)), std::out_of_range);
  // Explicit sweep reaps the remaining seven across all four shards.
  EXPECT_EQ(service.evict_expired(), 7u);
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_EQ(service.report().evictions, 8u);

  // A session kept warm by periodic access survives several TTL windows.
  const SessionId live = service.open_session();
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    EXPECT_NO_THROW(service.observe(live, make_sample(9, i), make_ctx(9)));
  }
  EXPECT_EQ(service.evict_expired(), 0u);
  EXPECT_EQ(service.session_count(), 1u);
  service.drain_and_stop();
}

TEST(ProvisioningService, BackgroundSweeperReapsAbandonedSessions) {
  TempDir dir("sweeper");
  auto agent = make_dqn(97);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 4;
  cfg.session_ttl_seconds = 0.02;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  for (int i = 0; i < 12; ++i) service.open_session();

  // Nobody ever touches these sessions again; the background sweep alone
  // must reap all of them.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.session_count() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_EQ(service.report().evictions, 12u);
  service.drain_and_stop();
}

TEST(ProvisioningService, SweeperSleepsUntilTheEarliestExpiry) {
  TempDir dir("sweepsleep");
  auto agent = make_dqn(99);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 1;
  cfg.session_ttl_seconds = 0.06;  // no SLO, no journal: the sweeper has no tick
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  const double start = util::wall_seconds();
  service.start();
  for (int i = 0; i < 6; ++i) service.open_session();

  // Nothing can expire before start + ttl, so a sweeper that sleeps until
  // the earliest expiry has not woken yet. The time is taken after each
  // read, so a reader delayed past that point asserts nothing.
  ServiceReport report = service.report();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (report.open_sessions > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    report = service.report();
    if (util::wall_seconds() < start + cfg.session_ttl_seconds) {
      EXPECT_EQ(report.sweep_wakeups, 0u);
    }
  }
  // The background sweeper alone reaps every session, waking at most
  // once per session plus once for the empty table it saw at start.
  EXPECT_EQ(report.open_sessions, 0u);
  EXPECT_EQ(report.evictions, 6u);
  EXPECT_LE(report.sweep_wakeups, 7u);
  service.drain_and_stop();
}

TEST(ProvisioningService, TouchedSessionOutlivesItsOlderNeighbours) {
  TempDir dir("touchorder");
  auto agent = make_dqn(99);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 1;  // A and B share one access-ordered list
  cfg.session_ttl_seconds = 0.4;
  const double ttl = cfg.session_ttl_seconds;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  const SessionId a = service.open_session();
  const SessionId b = service.open_session();
  std::this_thread::sleep_for(std::chrono::duration<double>(ttl / 2));
  // The touch moves A behind B: A now expires no earlier than touched + ttl.
  const double touched = util::wall_seconds();
  service.observe(a, make_sample(0, 0), make_ctx(0));

  // B, now the list head, is reaped first by the sweeper alone, leaving A
  // alone in the table for ttl/2; every read finished before A's own
  // expiry still finds A live.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t count = 2;
  bool saw_only_a = false;
  while (count > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    count = service.session_count();
    if (util::wall_seconds() < touched + ttl) {
      EXPECT_GE(count, 1u);
    }
    if (count == 1 && !saw_only_a) {
      saw_only_a = true;
      EXPECT_EQ(service.report().evictions, 1u);
      EXPECT_THROW(service.session_frames_seen(b), std::out_of_range);  // the survivor is A
    }
  }
  EXPECT_TRUE(saw_only_a) << "A and B expired together: the touch did not reorder them";
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(service.report().evictions, 2u);
  service.drain_and_stop();
}

TEST(ProvisioningService, MetricsTextPassesLintAndCarriesLiveGauges) {
  TempDir dir("lint");
  auto agent = make_dqn(101);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 2;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  const SessionId id = service.open_session();
  for (std::size_t t = 0; t < 5; ++t) {
    service.observe(id, make_sample(0, t), make_ctx(0));
    service.decide(id);
  }
  // No report()/sweeper needed: the scrape itself refreshes the gauges.
  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("mirage_serve_engine_queue_depth"), std::string::npos) << text;
  EXPECT_NE(text.find("mirage_serve_shard_sessions_0"), std::string::npos);
  EXPECT_NE(text.find("mirage_serve_shard_sessions_1"), std::string::npos);
  EXPECT_NE(text.find("mirage_serve_reject_rate"), std::string::npos);

  // The whole exposition — handwritten families plus the registry dump —
  // must survive the strict linter (duplicate families, broken histogram
  // invariants or malformed exemplars would all fail here).
  std::string error;
  EXPECT_TRUE(obs::lint_prometheus_exposition(text, &error)) << error << "\n" << text;
  service.drain_and_stop();
}

TEST(ProvisioningService, RequestJourneysLinkTraceEventsAndExemplars) {
  TempDir dir("journey");
  auto agent = make_dqn(103);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  obs::set_enabled(true);
  obs::global_trace().clear();
  decision_latency_histogram().reset();

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  const SessionId id = service.open_session();
  for (std::size_t t = 0; t < 20; ++t) {
    service.observe(id, make_sample(0, t), make_ctx(0));
    service.decide(id);
  }
  service.drain_and_stop();

  // Every decision minted a request id and left begin/enqueue/complete
  // events whose arg0 ids line up across the journey.
  std::set<std::int64_t> begun, enqueued, completed;
  for (const auto& ev : obs::global_trace().snapshot()) {
    switch (ev.kind) {
      case obs::TraceEventKind::kRequestBegin: begun.insert(ev.arg0); break;
      case obs::TraceEventKind::kRequestEnqueue: enqueued.insert(ev.arg0); break;
      case obs::TraceEventKind::kRequestComplete:
        completed.insert(ev.arg0);
        EXPECT_GE(ev.dur, 0);  // journey slice [enqueue, served]
        break;
      default: break;
    }
  }
  EXPECT_EQ(begun.size(), 20u);
  for (const auto req : completed) {
    EXPECT_TRUE(begun.count(req)) << "completed id " << req << " never began";
    EXPECT_TRUE(enqueued.count(req)) << "completed id " << req << " never enqueued";
  }
  EXPECT_EQ(completed.size(), 20u);

  // The latency histogram's tail exemplar names one of those journeys: the
  // aggregate p99.9 bucket points at a concrete request id in the ring.
  const auto ex = decision_latency_histogram().exemplar_for_percentile(99.9);
  ASSERT_TRUE(ex.valid);
  EXPECT_TRUE(begun.count(static_cast<std::int64_t>(ex.id)))
      << "exemplar id " << ex.id << " is not a traced request";
}

TEST(ProvisioningService, SloBreachFiresHealthEndpointAndFlightBundle) {
  TempDir dir("slofire");
  TempDir flight_dir("slofire_bundles");
  auto agent = make_dqn(105);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  obs::FlightRecorderConfig frc;
  frc.directory = flight_dir.path.string();
  obs::flight_recorder().configure(frc);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.slo.enabled = true;
  cfg.slo.latency_target_seconds = 1e-9;  // unmeetable: every decision is bad
  cfg.slo.latency_quantile = 50.0;
  cfg.slo.short_window_seconds = 0.05;
  cfg.slo.long_window_seconds = 0.1;
  cfg.slo.resolve_seconds = 60.0;
  cfg.slo.dump_on_fire = true;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);

  // Before start the SLO engine is unconfigured.
  EXPECT_NE(service.health_text().find("status: unconfigured"), std::string::npos);
  EXPECT_TRUE(service.slo_statuses().empty());

  service.start();
  const SessionId id = service.open_session();
  std::uint64_t fires = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fires == 0 && std::chrono::steady_clock::now() < deadline) {
    service.observe(id, make_sample(0, 0), make_ctx(0));
    service.decide(id);
    for (const auto& st : service.slo_statuses()) fires += st.fires;
  }
  ASSERT_GT(fires, 0u) << "forced SLO breach never fired";
  const std::string health = service.health_text();
  EXPECT_NE(health.find("status: firing"), std::string::npos) << health;
  EXPECT_NE(health.find("slo serve_latency"), std::string::npos) << health;
  service.drain_and_stop();

  // The fire hook dumped a validated bundle into the configured directory.
  std::string newest;
  for (const auto& e : fs::directory_iterator(flight_dir.path)) {
    const auto name = e.path().filename().string();
    if (e.is_directory() && name.rfind("bundle_", 0) == 0 && name > newest) newest = name;
  }
  ASSERT_FALSE(newest.empty()) << "SLO fire produced no flight bundle";
  EXPECT_NE(newest.find("slo_serve_latency"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::FlightRecorder::validate_bundle(
      (flight_dir.path / newest).string(), &error))
      << error;
}

// -------------------------------------------------------------- Race storm

TEST(ProvisioningService, ShardedRaceStormStaysConsistent) {
  TempDir dir("storm");
  auto agent = make_dqn(99);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 8;                    // force real sharding on any host
  cfg.session_ttl_seconds = 0.03;    // evictions race live traffic
  cfg.engine.max_batch = 16;
  cfg.engine.coalesce_wait = std::chrono::microseconds(100);
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> gone{0};  // closed/evicted under our feet
  std::mutex pool_mutex;
  std::vector<SessionId> pool;

  // Workers mix every session-layer operation on a shared id pool while
  // the TTL sweeper runs hot: open, observe, both async decide calls,
  // blocking decide and close all race across shards. The invariants are (a) no
  // crash/UB, (b) the only session-level failure is std::out_of_range,
  // (c) served-decision accounting balances exactly.
  const auto worker = [&](unsigned seed) {
    util::Rng rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto pick = rng.uniform_int(0, 9);
      if (pick < 3) {
        const SessionId id = service.open_session();
        std::lock_guard<std::mutex> lock(pool_mutex);
        pool.push_back(id);
        continue;
      }
      SessionId id = 0;
      {
        std::lock_guard<std::mutex> lock(pool_mutex);
        if (pool.empty()) continue;
        id = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      }
      try {
        if (pick < 5) {
          service.observe(id, make_sample(id, 0), make_ctx(id));
        } else if (pick == 5) {
          // The non-throwing async call races the throwing one below.
          AsyncDecision handle;
          if (service.try_decide_async(id, handle) ==
              BatchedInferenceEngine::SubmitResult::kOk) {
            handle.get();
            served.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (pick < 8) {
          service.decide_async_pooled(id).get();
          served.fetch_add(1, std::memory_order_relaxed);
        } else if (pick == 8) {
          Decision d;
          if (service.try_decide(id, d) == BatchedInferenceEngine::SubmitResult::kOk) {
            served.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          service.close_session(id);
        }
      } catch (const std::out_of_range&) {
        gone.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < 8; ++w) threads.emplace_back(worker, 1234 + w);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& t : threads) t.join();

  // With traffic stopped, the background sweeper alone empties the table
  // once every session's TTL has passed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.session_count() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service.session_count(), 0u);
  service.drain_and_stop();

  const auto report = service.report();
  EXPECT_EQ(report.shards, 8u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(report.decisions, served.load());  // exact: served only, each once
  EXPECT_EQ(report.open_sessions, service.session_count());
  EXPECT_GE(report.total_sessions, report.open_sessions + report.evictions);
}

TEST(ProvisioningService, CloseSessionRacesInFlightDecide) {
  TempDir dir("closerace");
  auto agent = make_dqn(101);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.engine.coalesce_wait = std::chrono::microseconds(5000);
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();
  const SessionId id = service.open_session();
  service.observe(id, make_sample(0, 0), make_ctx(0));

  // Close while the decision is (likely) still queued: the session object
  // is kept alive by the in-flight request, which completes normally.
  auto pending = service.decide_async_pooled(id);
  service.close_session(id);
  EXPECT_NO_THROW(pending.get());
  service.drain_and_stop();
  EXPECT_EQ(service.report().decisions, 1u);
  EXPECT_EQ(service.session_count(), 0u);
}

TEST(ProvisioningService, DrainWhileSubmittingShedsCleanly) {
  TempDir dir("drainrace");
  auto agent = make_dqn(103);
  ASSERT_TRUE(core::save_agent(agent, dir.file("v100__dqn.ckpt")));
  ModelRegistry registry(test_registry_config());
  ASSERT_TRUE(registry.load_file(dir.file("v100__dqn.ckpt"), "v100").ok);

  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 4;
  ProvisioningService service(registry, {"v100", "dqn", "moe"}, cfg);
  service.start();

  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(service.open_session());
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        try {
          service.decide(ids[static_cast<std::size_t>(c)]);
          served.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          return;  // draining (or backpressure near shutdown): clean shed
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.drain_and_stop();  // races the submitting clients
  for (auto& t : clients) t.join();

  const auto report = service.report();
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(report.decisions, served.load());
}

TEST(ProvisioningService, ShardCountIsReportedAndConfigurable) {
  auto model = std::make_shared<const StubModel>(test_net().history_len * rl::kFrameDim);
  ServiceConfig cfg;
  cfg.history_len = test_net().history_len;
  cfg.shards = 5;
  ProvisioningService service(ModelSnapshot(model), cfg);
  service.start();
  for (int i = 0; i < 10; ++i) service.open_session();
  const auto report = service.report();
  EXPECT_EQ(report.shards, 5u);
  EXPECT_EQ(report.open_sessions, 10u);
  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("mirage_serve_session_shards 5"), std::string::npos) << text;
  EXPECT_NE(text.find("mirage_serve_evictions_total 0"), std::string::npos);
  service.drain_and_stop();
}

}  // namespace
}  // namespace mirage::serve
