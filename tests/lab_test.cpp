// Experiment lab tests: plan round-trip + malformed-plan error paths,
// leaderboard aggregation and CSV escaping, artifact-store manifest
// round-trips and stale-plan rejection, the runner's parallel==serial and
// kill/resume bitwise determinism contracts, and promotion of the winning
// checkpoint into a live ProvisioningService under concurrent sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

#include "lab/artifact_store.hpp"
#include "lab/experiment.hpp"
#include "lab/leaderboard.hpp"
#include "lab/promote.hpp"
#include "lab/runner.hpp"
#include "serve/service.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace mirage::lab {
namespace {

namespace fs = std::filesystem;

/// Unique scratch dir per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() / ("mirage_lab_" + tag);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string dir(const std::string& name) const { return (path / name).string(); }
};

/// Tiny but non-degenerate plan: 2 cells (one with a recurring flash-crowd
/// burst that lands in the validation range), heuristic + one RL method.
ExperimentPlan tiny_plan(const std::string& name, std::uint64_t seed = 42) {
  using scenario::ScenarioEventKind;
  ExperimentPlan plan;
  plan.name = name;
  plan.methods = {core::Method::kAvg, core::Method::kMoeDqn};
  plan.budget.collector_anchors = 6;
  plan.budget.pretrain_epochs = 2;
  plan.budget.online_episodes = 8;
  plan.budget.eval_episodes = 6;

  auto& base = plan.matrix.base;
  base.cluster = "a100";
  base.nodes_override = 20;
  base.months_begin = 0;
  base.months_end = 1;
  base.seed = seed;
  base.job_count_scale = 0.3;

  scenario::EventProfile flash;
  flash.name = "flash";
  flash.events = {{ScenarioEventKind::kBurst, 5 * util::kDay, 2, 20, 2 * util::kHour,
                   4 * util::kHour, util::kHour, util::kWeek, 4}};
  plan.matrix.event_profiles = {{"none", {}}, flash};
  return plan;
}

// ---------------------------------------------------------------- Plan IO

TEST(ExperimentPlan, TextRoundTripIsExactAndHashStable) {
  const auto plan = tiny_plan("roundtrip");
  const std::string text = plan.to_text();
  std::string error;
  const auto parsed = parse_plan(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->to_text(), text);
  EXPECT_EQ(parsed->hash(), plan.hash());
  EXPECT_EQ(parsed->methods, plan.methods);
  EXPECT_EQ(parsed->budget, plan.budget);
  EXPECT_EQ(parsed->matrix.event_profiles.size(), 2u);
  EXPECT_EQ(parsed->matrix.event_profiles[1].events[0].repeat_count, 4);
  EXPECT_EQ(parsed->matrix.base.nodes_override, 20);
}

TEST(ExperimentPlan, FileRoundTripPreservesJobExpansion) {
  TempDir tmp("planfile");
  const auto plan = tiny_plan("file");
  ASSERT_TRUE(save_plan_file(plan, tmp.dir("plan.txt")));
  std::string error;
  const auto loaded = load_plan_file(tmp.dir("plan.txt"), &error);
  ASSERT_TRUE(loaded) << error;
  const auto a = expand_jobs(plan);
  const auto b = expand_jobs(*loaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), b[i].id());
    EXPECT_EQ(a[i].cell.seed, b[i].cell.seed);
    EXPECT_EQ(a[i].cell.name, b[i].cell.name);
  }
}

TEST(ExperimentPlan, MalformedPlansErrorWithoutCrashing) {
  const auto expect_bad = [](const std::string& text, const std::string& needle) {
    std::string error;
    const auto plan = parse_plan(text, &error);
    EXPECT_FALSE(plan) << "accepted: " << text;
    EXPECT_NE(error.find(needle), std::string::npos) << "diagnostic was: " << error;
  };
  expect_bad("methods=avg\nnot a key value line\n", "key=value");
  expect_bad("methods=warp_drive\n", "unknown method");
  expect_bad("methods=avg\nbogus_knob=3\n", "unknown key");
  expect_bad("methods=avg\neval_episodes=zero\n", "bad value");
  expect_bad("name=x\n", "methods");
  expect_bad("methods=avg\nprofile.0.event.0=down,100,4\n", "no name");
  expect_bad("methods=avg\nprofile.0.name=p\nprofile.0.event.0=down,-1,4\n", "bad event time");
  expect_bad("methods=avg\nbase.months_begin=3\nbase.months_end=1\n", "months_end");
  // Recurring expansion past the horizon is caught by the embedded base
  // scenario validation.
  expect_bad(
      "methods=avg\nbase.event.0=down,86400,4,repeat_every=864000,repeat_count=9\n",
      "horizon");
  // ... and the same semantic checks cover every (cluster, profile)
  // combination the matrix would expand, not just the base spec.
  expect_bad(
      "methods=avg\nprofile.0.name=calendar\n"
      "profile.0.event.0=down,86400,4,repeat_every=864000,repeat_count=9\n",
      "horizon");
  expect_bad("methods=avg\nclusters=a100,v1000\n", "unknown cluster");
  expect_bad(
      "methods=avg\nclusters=v100\nprofile.0.name=big\n"
      "profile.0.event.0=burst,86400,999,4,3600,3600\n",
      "more nodes");
  expect_bad("methods=avg,moe_dqn,avg\n", "duplicate method");
  expect_bad("methods=avg\nname=../../escape\n", "path component");
  expect_bad("methods=avg\nname=nested/run\n", "path component");
  expect_bad("methods=avg\njob_nodes=4294967297\n", "bad value");  // int32 wrap
}

TEST(ExperimentPlan, StoreAndRunnerGuardProgrammaticPlans) {
  // parse_plan is bypassed when plans are built in code; the store and
  // runner must still refuse path-escaping names and duplicate methods.
  TempDir tmp("guards");
  auto evil = tiny_plan("ok");
  evil.name = "../escape";
  ArtifactStore store(tmp.dir("store"));
  std::string error;
  EXPECT_FALSE(store.init_run(evil, &error));
  EXPECT_NE(error.find("path component"), std::string::npos);
  EXPECT_THROW((void)LabRunner::run_serial(evil, store), std::runtime_error);

  auto dup = tiny_plan("dup");
  dup.methods = {core::Method::kAvg, core::Method::kAvg};
  ArtifactStore dup_store(tmp.dir("dup"));
  EXPECT_THROW((void)LabRunner::run_serial(dup, dup_store), std::invalid_argument);
}

TEST(ExperimentPlan, JobIdsAreCellMajorAndStable) {
  const auto plan = tiny_plan("ids");
  const auto jobs = expand_jobs(plan);
  ASSERT_EQ(jobs.size(), plan.job_count());
  EXPECT_EQ(jobs[0].id(), "c000__avg");
  EXPECT_EQ(jobs[1].id(), "c000__moe_dqn");
  EXPECT_EQ(jobs[2].id(), "c001__avg");
  EXPECT_EQ(jobs[3].id(), "c001__moe_dqn");
  EXPECT_NE(jobs[0].cell.seed, jobs[2].cell.seed);  // per-cell seeds differ
  EXPECT_EQ(jobs[0].cell.seed, jobs[1].cell.seed);  // methods share the cell
}

// ------------------------------------------------------------ Leaderboard

JobResult make_row(std::size_t cell_index, const std::string& cell, const std::string& method,
                   bool eventful, std::size_t episodes, double wait, double zero,
                   const std::string& checkpoint = "") {
  JobResult r;
  r.cell_index = cell_index;
  r.cell = cell;
  r.cluster = "a100";
  r.seed = 7;
  r.method = method;
  r.eventful = eventful;
  r.episodes = episodes;
  r.mean_interruption_h = wait;
  r.max_interruption_h = 2 * wait;
  r.mean_overlap_h = 0.5;
  r.zero_fraction = zero;
  r.cell_load = "light";
  r.checkpoint = checkpoint;
  return r;
}

TEST(Leaderboard, AggregatesAndRanksPerMethod) {
  std::vector<JobResult> rows;
  rows.push_back(make_row(0, "calm", "slow", false, 10, 4.0, 0.2));
  rows.push_back(make_row(0, "calm", "fast", false, 10, 1.0, 0.5, "c000__fast.ckpt"));
  rows.push_back(make_row(1, "storm", "slow", true, 30, 8.0, 0.1));
  rows.push_back(make_row(1, "storm", "fast", true, 30, 3.0, 0.3, "c001__fast.ckpt"));
  const auto board = Leaderboard::build(rows);

  ASSERT_EQ(board.standings.size(), 2u);
  EXPECT_EQ(board.standings[0].method, "fast");  // lower mean wait ranks first
  const auto& fast = board.standings[0];
  EXPECT_DOUBLE_EQ(fast.mean_wait_h, 2.0);
  EXPECT_DOUBLE_EQ(fast.worst_wait_h, 3.0);
  EXPECT_DOUBLE_EQ(fast.eventful_wait_h, 3.0);
  EXPECT_DOUBLE_EQ(fast.calm_wait_h, 1.0);
  EXPECT_DOUBLE_EQ(fast.robustness_spread_h, 2.0);
  // Episode-weighted zero fraction: (0.5*10 + 0.3*30) / 40.
  EXPECT_DOUBLE_EQ(fast.zero_fraction, 0.35);
  EXPECT_TRUE(fast.has_checkpoint);
  EXPECT_FALSE(board.standings[1].has_checkpoint);
  EXPECT_EQ(board.best(/*require_checkpoint=*/true), &board.standings[0]);
}

TEST(Leaderboard, CsvEscapesHostileNamesRoundTrip) {
  // Satellite contract: cell/profile/method names containing delimiters
  // must survive to_csv -> util::csv parse.
  const std::string evil_cell = "a100/u1.00,d8/\"flash, crowd\"";
  const std::string evil_method = "MoE+DQN,v2\nnightly";
  std::vector<JobResult> rows;
  rows.push_back(make_row(0, evil_cell, evil_method, true, 5, 1.5, 0.4));
  const auto board = Leaderboard::build(rows);

  const auto table = util::CsvTable::parse(board.to_csv(), /*has_header=*/true);
  ASSERT_EQ(table.row_count(), 1u);
  const int cell_col = table.column("cell");
  const int method_col = table.column("method");
  ASSERT_GE(cell_col, 0);
  ASSERT_GE(method_col, 0);
  EXPECT_EQ(table.row(0)[static_cast<std::size_t>(cell_col)], evil_cell);
  EXPECT_EQ(table.row(0)[static_cast<std::size_t>(method_col)], evil_method);

  const auto standings = util::CsvTable::parse(board.standings_csv(), /*has_header=*/true);
  ASSERT_EQ(standings.row_count(), 1u);
  EXPECT_EQ(standings.row(0)[1], evil_method);
}

// ---------------------------------------------------------- ArtifactStore

TEST(ArtifactStore, ManifestRoundTripIsBitwise) {
  TempDir tmp("manifest");
  const auto plan = tiny_plan("manifest");
  ArtifactStore store(tmp.dir("store"));
  ASSERT_TRUE(store.init_run(plan));
  const auto jobs = expand_jobs(plan);

  // Awkward doubles: non-terminating binary fractions and denormal-ish
  // magnitudes must round-trip bitwise through the %.17g manifest.
  JobResult row = make_row(jobs[0].cell_index, jobs[0].cell.name,
                           core::method_name(jobs[0].method), false, 7, 1.0 / 3.0, 2.0 / 7.0);
  row.seed = jobs[0].cell.seed;
  row.cell_mean_wait_h = 1e-17;
  row.cell_p95_wait_h = 123456.78901234567;
  row.cell_utilization = 0.1 + 0.2;  // famously not 0.3
  ASSERT_TRUE(store.save(plan, jobs[0], row));

  const auto loaded = store.load(plan, jobs[0]);
  ASSERT_TRUE(loaded);
  EXPECT_TRUE(*loaded == row);
  EXPECT_TRUE(loaded->resumed);
  EXPECT_EQ(store.count_complete(plan), 1u);
}

TEST(ArtifactStore, StalePlanArtifactsAreNotReused) {
  TempDir tmp("stale");
  auto plan = tiny_plan("stale");
  ArtifactStore store(tmp.dir("store"));
  ASSERT_TRUE(store.init_run(plan));
  const auto jobs = expand_jobs(plan);
  JobResult row = make_row(jobs[0].cell_index, jobs[0].cell.name,
                           core::method_name(jobs[0].method), false, 7, 1.0, 0.5);
  row.seed = jobs[0].cell.seed;
  ASSERT_TRUE(store.save(plan, jobs[0], row));
  ASSERT_TRUE(store.load(plan, jobs[0]));

  // Any budget change is a different plan hash -> artifacts invalidated
  // (the run directory itself moves).
  auto revised = plan;
  revised.budget.eval_episodes += 1;
  EXPECT_NE(revised.hash(), plan.hash());
  EXPECT_FALSE(store.load(revised, expand_jobs(revised)[0]));
  EXPECT_EQ(store.count_complete(revised), 0u);
}

TEST(ArtifactStore, ManifestPromisingLostCheckpointIsNotResumable) {
  TempDir tmp("lostckpt");
  const auto plan = tiny_plan("lostckpt");
  ArtifactStore store(tmp.dir("store"));
  ASSERT_TRUE(store.init_run(plan));
  const auto jobs = expand_jobs(plan);
  JobResult row = make_row(jobs[1].cell_index, jobs[1].cell.name,
                           core::method_name(jobs[1].method), false, 7, 1.0, 0.5,
                           jobs[1].id() + ".ckpt");
  row.seed = jobs[1].cell.seed;
  ASSERT_TRUE(store.save(plan, jobs[1], row));
  EXPECT_FALSE(store.load(plan, jobs[1]));  // ckpt file was never written

  std::ofstream(store.checkpoint_path(plan, jobs[1])) << "bytes";
  EXPECT_TRUE(store.load(plan, jobs[1]));
}

TEST(ArtifactStore, InitRunRestoresTornPlanText) {
  // A run killed while writing plan.txt leaves a prefix of it behind; the
  // next init_run must commit the full plan text over it.
  TempDir tmp("tornplan");
  const auto plan = tiny_plan("tornplan");
  ArtifactStore store(tmp.dir("store"));
  const fs::path plan_file = fs::path(store.run_dir(plan)) / "plan.txt";
  const std::string text = plan.to_text();
  fs::create_directories(plan_file.parent_path());
  std::ofstream(plan_file, std::ios::binary) << text.substr(0, 10);

  ASSERT_TRUE(store.init_run(plan));
  std::ifstream in(plan_file, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, text);
}

// ----------------------------------------------------------------- Runner

TEST(LabRunner, SerialRunProducesArtifactsAndCheckpoints) {
  TempDir tmp("serial");
  const auto plan = tiny_plan("serial");
  ArtifactStore store(tmp.dir("store"));
  const auto report = LabRunner::run_serial(plan, store);

  EXPECT_EQ(report.jobs_total, 4u);
  EXPECT_EQ(report.jobs_run, 4u);
  EXPECT_EQ(report.jobs_resumed, 0u);
  ASSERT_EQ(report.leaderboard.rows.size(), 4u);
  for (const auto& row : report.leaderboard.rows) {
    EXPECT_GT(row.episodes, 0u);
    if (row.method == "MoE+DQN") {
      ASSERT_FALSE(row.checkpoint.empty());
      EXPECT_TRUE(fs::exists(fs::path(store.run_dir(plan)) / row.checkpoint));
    } else {
      EXPECT_TRUE(row.checkpoint.empty());
    }
  }
  // One eventful and one calm cell -> a defined robustness spread.
  const auto* best = report.leaderboard.best();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->cells, 2u);
  EXPECT_EQ(store.count_complete(plan), 4u);
  EXPECT_TRUE(fs::exists(fs::path(store.run_dir(plan)) / "plan.txt"));
}

TEST(LabRunner, ParallelLeaderboardBitwiseIdenticalToSerial) {
  TempDir tmp("par");
  const auto plan = tiny_plan("par");
  ArtifactStore serial_store(tmp.dir("serial"));
  ArtifactStore parallel_store(tmp.dir("parallel"));
  const auto serial = LabRunner::run_serial(plan, serial_store);
  const auto parallel = LabRunner(/*threads=*/3).run(plan, parallel_store);
  EXPECT_EQ(parallel.jobs_run, 4u);
  EXPECT_TRUE(parallel.leaderboard == serial.leaderboard);
}

/// Multi-partition plan with a preemption + correlated-failure profile:
/// the partition axis crosses a single-pool layout with a 3-pool layout,
/// and the failure profile preempts the a100 pool and fires a correlated
/// rack burst. Heuristic-only methods keep it fast; episodes still build
/// partitioned simulators and replay the events (cell_pipeline_config).
ExperimentPlan partitioned_plan(const std::string& name) {
  using scenario::ScenarioEvent;
  using scenario::ScenarioEventKind;
  ExperimentPlan plan;
  plan.name = name;
  plan.methods = {core::Method::kAvg, core::Method::kReactive};
  plan.budget.collector_anchors = 4;
  plan.budget.eval_episodes = 4;
  plan.budget.online_episodes = 2;
  plan.budget.pretrain_epochs = 1;

  auto& base = plan.matrix.base;
  base.cluster = "a100";
  base.months_begin = 0;
  base.months_end = 1;
  base.seed = 11;
  base.job_count_scale = 0.25;
  base.utilization_scale = 1.2;

  ScenarioEvent preempt{ScenarioEventKind::kPreempt, 5 * util::kDay, 6};
  preempt.partition = "a100";
  preempt.requeue_delay = 3600;
  ScenarioEvent correlated{ScenarioEventKind::kCorrelatedDown, 9 * util::kDay, 8};
  correlated.rack_size = 4;
  ScenarioEvent restore{ScenarioEventKind::kNodeRestore, 12 * util::kDay, 8};
  restore.partition = "a100";
  plan.matrix.event_profiles = {{"none", {}}, {"failures", {preempt, correlated, restore}}};
  plan.matrix.partition_layouts = {
      {"3pool", {{"v100", 8}, {"rtx", 6}, {"a100", 6}}},
  };
  return plan;
}

TEST(ExperimentPlan, PartitionLayoutAxisRoundTripsThroughPlanText) {
  const auto plan = partitioned_plan("parts");
  const std::string text = plan.to_text();
  std::string error;
  const auto parsed = parse_plan(text, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->to_text(), text);
  EXPECT_EQ(parsed->hash(), plan.hash());
  ASSERT_EQ(parsed->matrix.partition_layouts.size(), 1u);
  EXPECT_EQ(parsed->matrix.partition_layouts[0].name, "3pool");
  ASSERT_EQ(parsed->matrix.partition_layouts[0].partitions.size(), 3u);
  EXPECT_EQ(parsed->matrix.partition_layouts[0].partitions[1].name, "rtx");
  EXPECT_EQ(parsed->matrix.partition_layouts[0].partitions[1].node_count, 6);
  ASSERT_EQ(parsed->matrix.event_profiles.size(), 2u);
  const auto& failures = parsed->matrix.event_profiles[1].events;
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_EQ(failures[0].kind, scenario::ScenarioEventKind::kPreempt);
  EXPECT_EQ(failures[0].partition, "a100");
  EXPECT_EQ(failures[0].requeue_delay, 3600);
  EXPECT_EQ(failures[1].kind, scenario::ScenarioEventKind::kCorrelatedDown);
  EXPECT_EQ(failures[1].rack_size, 4);

  // A layout naming a partition the failure profile targets must validate;
  // one that drops the a100 pool must be rejected up front.
  auto bad = plan;
  bad.matrix.partition_layouts = {{"nopool", {{"v100", 10}, {"rtx", 10}}}};
  std::string bad_error;
  EXPECT_FALSE(parse_plan(bad.to_text(), &bad_error));
  EXPECT_NE(bad_error.find("unknown partition"), std::string::npos) << bad_error;
}

TEST(LabRunner, PartitionedPlanParallelEqualsSerialBitwise) {
  // Acceptance: a multi-partition sweep with preemption + correlated-down
  // events runs parallel == serial bitwise through lab::LabRunner.
  TempDir tmp("parts");
  const auto plan = partitioned_plan("parts");
  ArtifactStore serial_store(tmp.dir("serial"));
  ArtifactStore parallel_store(tmp.dir("parallel"));
  const auto serial = LabRunner::run_serial(plan, serial_store);
  const auto parallel = LabRunner(/*threads=*/3).run(plan, parallel_store);
  EXPECT_EQ(serial.jobs_total, 4u);  // 2 profiles x 1 layout x 2 methods
  EXPECT_TRUE(parallel.leaderboard == serial.leaderboard);
}

TEST(LabRunner, KilledRunResumesToBitwiseIdenticalLeaderboard) {
  TempDir tmp("resume");
  const auto plan = tiny_plan("resume");

  ArtifactStore reference_store(tmp.dir("reference"));
  const auto reference = LabRunner::run_serial(plan, reference_store);

  // "Kill" a run mid-way: complete run, then truncate the artifact dir —
  // drop the second cell's manifests and checkpoints, as if the process
  // died before finishing it.
  ArtifactStore store(tmp.dir("killed"));
  (void)LabRunner::run_serial(plan, store);
  const auto jobs = expand_jobs(plan);
  std::size_t dropped = 0;
  for (const auto& job : jobs) {
    if (job.cell_index != 1) continue;
    dropped += fs::remove(store.manifest_path(plan, job));
    fs::remove(store.checkpoint_path(plan, job));
  }
  ASSERT_EQ(dropped, 2u);
  ASSERT_EQ(store.count_complete(plan), 2u);

  const auto resumed = LabRunner(/*threads=*/2).run(plan, store);
  EXPECT_EQ(resumed.jobs_resumed, 2u);
  EXPECT_EQ(resumed.jobs_run, 2u);
  EXPECT_TRUE(resumed.leaderboard == reference.leaderboard);

  // A second resume touches nothing and still reproduces the leaderboard.
  const auto noop = LabRunner(/*threads=*/2).run(plan, store);
  EXPECT_EQ(noop.jobs_run, 0u);
  EXPECT_EQ(noop.jobs_resumed, 4u);
  EXPECT_TRUE(noop.leaderboard == reference.leaderboard);
}

// -------------------------------------------------------------- Promotion

/// Deterministic synthetic cluster snapshot stream (as in serve_test).
sim::StateSample make_sample(std::uint64_t session, std::uint64_t step) {
  util::Rng rng(session * 1000003ull + step * 7919ull + 1);
  sim::StateSample s;
  s.now = static_cast<util::SimTime>(step) * 600;
  s.total_nodes = 20;
  s.free_nodes = static_cast<std::int32_t>(rng.uniform_int(0, 20));
  const auto nq = rng.uniform_int(0, 6);
  for (std::int64_t i = 0; i < nq; ++i) {
    s.queued_sizes.push_back(static_cast<double>(rng.uniform_int(1, 4)));
    s.queued_ages.push_back(rng.uniform(0.0, 86400.0));
    s.queued_limits.push_back(rng.uniform(3600.0, 172800.0));
  }
  return s;
}

TEST(Promotion, BestCheckpointHotReloadsIntoLiveServiceUnderConcurrentSessions) {
  TempDir tmp("promote");
  const auto plan = tiny_plan("promote");
  ArtifactStore store(tmp.dir("store"));
  const auto report = LabRunner(/*threads=*/2).run(plan, store);

  serve::ModelRegistry registry(registry_config(plan));
  const auto first = promote_best(report.leaderboard, plan, store, registry);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.method, "MoE+DQN");  // the only checkpointable method
  EXPECT_EQ(first.key.cluster, "a100");
  EXPECT_EQ(first.key.method, "dqn");
  EXPECT_EQ(first.key.foundation, "moe");
  ASSERT_NE(registry.lookup(first.key), nullptr);

  // Live service keyed on the promoted model; clients decide while the
  // lab re-promotes (atomic hot reload, no dropped decisions).
  serve::ServiceConfig cfg;
  cfg.history_len = serving_history_len(plan);
  cfg.engine.max_batch = 8;
  serve::ProvisioningService service(registry, first.key, cfg);
  service.start();

  constexpr int kClients = 3;
  constexpr int kDecisionsPerClient = 24;
  std::atomic<int> failures{0};
  std::mutex versions_mutex;
  std::set<std::uint64_t> versions_seen;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto id = service.open_session();
      rl::JobPairContext ctx;
      ctx.pred_nodes = 1 + c;
      for (int t = 0; t < kDecisionsPerClient; ++t) {
        service.observe(id, make_sample(static_cast<std::uint64_t>(c), t), ctx);
        try {
          const auto d = service.decide(id);
          std::lock_guard<std::mutex> lock(versions_mutex);
          versions_seen.insert(d.model_version);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }

  std::uint64_t last_version = first.version;
  for (int r = 0; r < 8; ++r) {
    const auto again = promote_best(report.leaderboard, plan, store, registry);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.key, first.key);
    EXPECT_GT(again.version, last_version);
    last_version = again.version;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : clients) t.join();
  service.drain_and_stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(versions_seen.size(), 1u);
  ASSERT_NE(registry.lookup(first.key), nullptr);
  EXPECT_EQ(registry.lookup(first.key)->version(), last_version);
  EXPECT_EQ(service.report().decisions,
            static_cast<std::uint64_t>(kClients * kDecisionsPerClient));
}

TEST(Promotion, RestartRepromotesSameCheckpoint) {
  // The served model needs no log of its own: after a restart the lab's
  // manifests resume every job without retraining, and promote_best picks
  // the same checkpoint, which serves bitwise-equal decisions.
  TempDir tmp("repromote");
  const auto plan = tiny_plan("repromote");
  PromotionResult before;
  std::vector<std::vector<float>> observations;
  std::vector<serve::Decision> decided;
  {
    ArtifactStore store(tmp.dir("store"));
    const auto report = LabRunner(/*threads=*/2).run(plan, store);
    serve::ModelRegistry registry(registry_config(plan));
    before = promote_best(report.leaderboard, plan, store, registry);
    ASSERT_TRUE(before.ok) << before.error;
    const auto model = registry.lookup(before.key);
    ASSERT_NE(model, nullptr);
    util::Rng rng(7);
    observations.assign(5, std::vector<float>(model->observation_dim()));
    for (auto& o : observations) {
      for (auto& x : o) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    decided = model->infer(observations);
  }

  ArtifactStore store(tmp.dir("store"));
  const auto resumed = LabRunner(/*threads=*/2).run(plan, store);
  EXPECT_EQ(resumed.jobs_run, 0u);
  serve::ModelRegistry registry(registry_config(plan));
  const auto after = promote_best(resumed.leaderboard, plan, store, registry);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.checkpoint_path, before.checkpoint_path);
  EXPECT_EQ(after.key, before.key);
  const auto model = registry.lookup(after.key);
  ASSERT_NE(model, nullptr);
  const auto redecided = model->infer(observations);
  ASSERT_EQ(redecided.size(), decided.size());
  for (std::size_t i = 0; i < decided.size(); ++i) {
    EXPECT_EQ(redecided[i].action, decided[i].action) << "observation " << i;
    EXPECT_EQ(redecided[i].score_wait, decided[i].score_wait) << "observation " << i;
    EXPECT_EQ(redecided[i].score_submit, decided[i].score_submit) << "observation " << i;
  }
}

TEST(Promotion, PartitionedPlanTrainsAndPromotesWiderFrames) {
  // End-to-end acceptance: an RL method trained on a 3-partition cell (its
  // episodes observing per-partition capacity features and replaying the
  // cell's preemption/correlated events) produces a checkpoint with the
  // wider frame, and registry_config sizes serving for it.
  TempDir tmp("partpromo");
  auto plan = partitioned_plan("partpromo");
  plan.methods = {core::Method::kMoeDqn};
  plan.matrix.event_profiles.erase(plan.matrix.event_profiles.begin());  // 1 cell: failures only

  const auto cfg = registry_config(plan);
  EXPECT_EQ(cfg.expected_state_dim, rl::frame_dim(3));  // 40 + 3 partitions + action
  EXPECT_EQ(serving_partition_count(plan), 3u);

  ArtifactStore store(tmp.dir("store"));
  const auto report = LabRunner::run_serial(plan, store);
  ASSERT_EQ(report.jobs_run, 1u);

  serve::ModelRegistry registry(cfg);
  const auto promoted = promote_best(report.leaderboard, plan, store, registry);
  ASSERT_TRUE(promoted.ok) << promoted.error;
  ASSERT_NE(registry.lookup(promoted.key), nullptr);

  // Sessions configured for the plan's partition count can feed the
  // promoted model multi-partition StateSamples end to end.
  serve::ServiceConfig svc;
  svc.history_len = serving_history_len(plan);
  svc.partition_count = serving_partition_count(plan);
  serve::ProvisioningService service(registry, promoted.key, svc);
  service.start();
  const auto session = service.open_session();
  sim::StateSample sample;
  sample.now = 600;
  sample.total_nodes = 20;
  sample.free_nodes = 9;
  sample.partition_total = {8, 6, 6};
  sample.partition_free = {4, 2, 3};
  service.observe(session, sample, rl::JobPairContext{});
  const auto decision = service.decide(session);
  EXPECT_TRUE(decision.action == 0 || decision.action == 1);
  service.drain_and_stop();
}

TEST(Promotion, FailsLoudlyWithoutCheckpoints) {
  TempDir tmp("nockpt");
  auto plan = tiny_plan("nockpt");
  plan.methods = {core::Method::kAvg};  // nothing checkpointable
  ArtifactStore store(tmp.dir("store"));
  const auto report = LabRunner::run_serial(plan, store);
  serve::ModelRegistry registry(registry_config(plan));
  const auto promotion = promote_best(report.leaderboard, plan, store, registry);
  EXPECT_FALSE(promotion.ok);
  EXPECT_NE(promotion.error.find("checkpoint"), std::string::npos);
  EXPECT_EQ(registry.size(), 0u);
}

}  // namespace
}  // namespace mirage::lab
