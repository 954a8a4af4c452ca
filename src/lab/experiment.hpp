// Experiment lab (ROADMAP: "sweep-driven training"): an ExperimentPlan
// crosses a scenario::SweepMatrix with a set of core::Methods into concrete
// train/evaluate jobs. Plans round-trip through a key=value text format
// (scenario axes, event profiles, method list, training-scale knobs), and
// hash() fingerprints the full plan text so artifacts from a stale plan are
// never silently reused on resume.
//
// The job list is a pure function of the plan: cells come from
// SweepMatrix::expand() (per-cell seeds pre-assigned in expansion order)
// and methods are crossed in plan order, so job identity — and therefore
// artifact identity — is independent of how jobs later execute.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/methods.hpp"
#include "core/pipeline.hpp"
#include "scenario/sweep.hpp"

namespace mirage::lab {

/// Training-scale knobs applied on top of core::PipelineConfig::compact.
/// Defaults are sized for sweep-scale runs (many cells per minute), not
/// paper-scale fidelity; raise them for real experiments.
struct TrainBudget {
  std::int32_t job_nodes = 1;           ///< predecessor/successor job size
  std::size_t collector_anchors = 12;   ///< offline dataset anchors
  std::size_t pretrain_epochs = 4;
  std::size_t online_episodes = 16;
  std::size_t eval_episodes = 12;       ///< validation anchors per cell
  util::SimTime warmup = 12 * util::kHour;
  util::SimTime max_horizon = 3 * util::kDay;
  util::SimTime job_runtime = 24 * util::kHour;
  /// GEMM threads per cell forward/backward (nn::ScopedNumThreads). 0 =
  /// pick per run mode: serial runs use every core inside each cell,
  /// parallel cell sweeps pin cells to 1 GEMM thread (the sweep already
  /// saturates the machine). Results are bitwise identical either way —
  /// the parallel-GEMM determinism contract keeps leaderboards stable
  /// across this knob.
  std::size_t nn_threads = 0;

  bool operator==(const TrainBudget& o) const = default;
};

struct ExperimentPlan {
  std::string name = "lab";
  scenario::SweepMatrix matrix;
  std::vector<core::Method> methods;
  TrainBudget budget;

  /// Serialize to the plan text format (fixed key order — the byte stream
  /// hash() fingerprints).
  std::string to_text() const;
  /// FNV-1a over to_text(); recorded in every artifact manifest.
  std::uint64_t hash() const;

  std::size_t cell_count() const { return matrix.cell_count(); }
  std::size_t job_count() const { return cell_count() * methods.size(); }
};

/// One (cell, method) unit of work. `cell` is the fully-expanded spec
/// (its seed already assigned by SweepMatrix::expand()).
struct LabJob {
  std::size_t cell_index = 0;
  scenario::ScenarioSpec cell;
  core::Method method = core::Method::kReactive;

  /// Stable artifact stem, e.g. "c003__moe_dqn".
  std::string id() const;
};

/// True when `name` can be a single path component of a run directory:
/// non-empty, no separator, no "..". parse_plan and ArtifactStore::init_run
/// both refuse any other plan name — it would escape the store root.
bool is_plain_path_component(const std::string& name);

/// Expand the plan into jobs, cell-major then plan method order.
std::vector<LabJob> expand_jobs(const ExperimentPlan& plan);

/// Parse a plan from text. Returns nullopt (never throws) on malformed
/// input — unknown keys or methods, bad numbers, malformed event profiles,
/// an invalid embedded base scenario — with a diagnostic in *error.
std::optional<ExperimentPlan> parse_plan(const std::string& text, std::string* error = nullptr);

/// Load and parse a plan file; nullopt (with diagnostic) when the file is
/// unreadable or malformed.
std::optional<ExperimentPlan> load_plan_file(const std::string& path,
                                             std::string* error = nullptr);

/// Write plan.to_text() to a file; false when it cannot be written.
bool save_plan_file(const ExperimentPlan& plan, const std::string& path);

/// Pipeline configuration for one cell: scenario::to_pipeline_config with
/// the plan's TrainBudget applied. Every job of a cell shares this config.
core::PipelineConfig cell_pipeline_config(const ExperimentPlan& plan,
                                          const scenario::ScenarioSpec& cell);

}  // namespace mirage::lab
