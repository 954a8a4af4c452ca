#include "lab/runner.hpp"

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "core/evaluator.hpp"
#include "nn/parallel.hpp"
#include "obs/span.hpp"
#include "scenario/scenario.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace mirage::lab {

namespace {

/// Evaluator aggregate -> leaderboard row. The overall aggregate (not a
/// single load class) is the cross-cell comparison currency: cells differ
/// in load precisely because the plan sweeps load.
JobResult make_result(const LabJob& job, const core::MethodEval& eval,
                      const scenario::ScenarioResult& cell_ctx) {
  JobResult r;
  r.cell_index = job.cell_index;
  r.cell = job.cell.name;
  r.cluster = job.cell.cluster;
  r.seed = job.cell.seed;
  r.method = core::method_name(job.method);
  r.eventful = job.cell.has_events();
  r.episodes = eval.overall.episodes;
  r.mean_interruption_h = eval.overall.interruption_hours.mean();
  r.max_interruption_h = eval.overall.interruption_hours.max();
  r.mean_overlap_h = eval.overall.overlap_hours.mean();
  r.zero_fraction = eval.overall.zero_interruption_fraction();
  r.cell_mean_wait_h = cell_ctx.metrics.mean_wait_hours;
  r.cell_p95_wait_h = cell_ctx.metrics.p95_wait_hours;
  r.cell_utilization = cell_ctx.metrics.average_utilization;
  r.cell_load = core::load_class_name(cell_ctx.load);
  r.cell_killed = cell_ctx.killed_jobs;
  r.cell_preempted = cell_ctx.preempted_jobs;
  r.cell_partition_counts = cell_ctx.partition_counts_text();
  return r;
}

struct CellOutcome {
  std::vector<JobResult> rows;  ///< plan method order
  std::size_t resumed = 0;
  std::string error;            ///< non-empty on artifact IO failure
};

/// Run (or resume) every method of one cell. Pure function of (plan, cell,
/// artifacts on disk) — the runner's determinism contract. `plan_hash` is
/// plan.hash(), computed once per run and shared by every cell.
CellOutcome run_cell(const ExperimentPlan& plan, std::uint64_t plan_hash, ArtifactStore& store,
                     std::size_t cell_index, const scenario::ScenarioSpec& cell) {
  CellOutcome outcome;
  const std::size_t n_methods = plan.methods.size();
  std::vector<LabJob> jobs;
  std::vector<std::optional<JobResult>> cached;
  jobs.reserve(n_methods);
  cached.reserve(n_methods);
  std::vector<core::Method> missing;
  for (const core::Method m : plan.methods) {
    jobs.push_back(LabJob{cell_index, cell, m});
    cached.push_back(store.load(plan, jobs.back(), plan_hash));
    if (!cached.back()) missing.push_back(m);
  }
  outcome.resumed = n_methods - missing.size();

  std::vector<JobResult> fresh;
  if (!missing.empty()) {
    // Method-independent cell context: the reactive background schedule.
    const auto cell_ctx = scenario::run_scenario(cell);

    core::MiragePipeline pipeline(cell_pipeline_config(plan, cell));
    pipeline.prepare(scenario::build_workload(cell));
    bool need_offline = false;
    for (const core::Method m : missing) {
      need_offline = need_offline || core::is_rl_method(m) || core::is_statistical_method(m);
    }
    if (need_offline) pipeline.collect_offline();
    {
      OBS_SPAN("lab_train_job");
      for (const core::Method m : missing) pipeline.train(m);
    }
    const auto evals = [&] {
      OBS_SPAN("lab_eval_job");
      return pipeline.evaluate(missing);
    }();

    fresh.reserve(missing.size());
    for (std::size_t i = 0; i < missing.size(); ++i) {
      const LabJob job{cell_index, cell, missing[i]};
      JobResult row = make_result(job, evals[i], cell_ctx);
      ArtifactStore::FileWriter write_checkpoint;
      if (core::is_checkpointable_method(missing[i])) {
        row.checkpoint = std::filesystem::path(store.checkpoint_path(plan, job)).filename().string();
        write_checkpoint = [&pipeline, m = missing[i]](const std::string& path) {
          return pipeline.save_checkpoint(m, path);
        };
      }
      std::string save_error;
      if (!store.save(plan, job, row, &save_error, plan_hash, write_checkpoint)) {
        outcome.error = save_error;
        return outcome;
      }
      fresh.push_back(std::move(row));
    }
  }

  outcome.rows.reserve(n_methods);
  std::size_t next_fresh = 0;
  for (std::size_t i = 0; i < n_methods; ++i) {
    outcome.rows.push_back(cached[i] ? std::move(*cached[i]) : std::move(fresh[next_fresh++]));
  }
  return outcome;
}

LabRunReport run_impl(const ExperimentPlan& plan, ArtifactStore& store, std::size_t threads,
                      bool serial) {
  if (plan.methods.empty()) throw std::invalid_argument("plan has no methods");
  for (std::size_t a = 0; a < plan.methods.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.methods.size(); ++b) {
      if (plan.methods[a] == plan.methods[b]) {
        throw std::invalid_argument("duplicate method in plan: " +
                                    core::method_name(plan.methods[a]));
      }
    }
  }
  std::string error;
  if (!store.init_run(plan, &error)) throw std::runtime_error(error);

  const std::uint64_t plan_hash = plan.hash();
  const auto cells = plan.matrix.expand();
  std::vector<CellOutcome> outcomes(cells.size());
  // GEMM threads per cell: the plan's explicit value wins; otherwise serial
  // runs fan each forward across the machine while parallel sweeps pin
  // cells to 1 GEMM thread (the cells themselves already saturate the
  // cores). Either way results are bitwise identical — the GEMM tile
  // partition is thread-count-invariant — which is exactly why run() and
  // run_serial() can keep producing identical leaderboards.
  const std::size_t gemm_threads =
      plan.budget.nn_threads != 0 ? plan.budget.nn_threads : (serial ? 0 : 1);
  const auto run_one = [&](std::size_t i) {
    nn::ScopedNumThreads nn_scope(gemm_threads);
    outcomes[i] = run_cell(plan, plan_hash, store, i, cells[i]);
  };
  if (serial) {
    for (std::size_t i = 0; i < cells.size(); ++i) run_one(i);
  } else {
    util::ThreadPool pool(threads);
    pool.parallel_for(cells.size(), run_one);
  }

  LabRunReport report;
  report.jobs_total = cells.size() * plan.methods.size();
  std::vector<JobResult> rows;
  rows.reserve(report.jobs_total);
  for (auto& outcome : outcomes) {
    if (!outcome.error.empty()) throw std::runtime_error(outcome.error);
    report.jobs_resumed += outcome.resumed;
    for (auto& row : outcome.rows) rows.push_back(std::move(row));
  }
  report.jobs_run = report.jobs_total - report.jobs_resumed;
  report.leaderboard = Leaderboard::build(std::move(rows));
  util::log_info("lab[", plan.name, "]: ", report.jobs_total, " jobs (", report.jobs_run,
                 " run, ", report.jobs_resumed, " resumed) across ", cells.size(), " cells");
  return report;
}

}  // namespace

LabRunReport LabRunner::run(const ExperimentPlan& plan, ArtifactStore& store) const {
  return run_impl(plan, store, threads_, /*serial=*/false);
}

LabRunReport LabRunner::run_serial(const ExperimentPlan& plan, ArtifactStore& store) {
  return run_impl(plan, store, /*threads=*/1, /*serial=*/true);
}

}  // namespace mirage::lab
