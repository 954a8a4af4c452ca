// Durable artifact store for lab runs. Each plan gets one run directory
// (root/<name>__<hash16>/) holding the serialized plan plus, per completed
// job, a manifest (plan hash, cell spec identity, seed, metrics, status)
// and — for checkpointable methods — the trained agent in core::checkpoint
// format.
//
// The store is the only module that knows the run directory's commit
// protocol, and every file in it goes through the same routine: write
// <name>.tmp, fsync it, then rename it over <name> and fsync the directory
// (util::wal::rename_durable). A committed file therefore survives power
// loss, not just process death, and a killed writer leaves at most a
// *.tmp. A job's checkpoint commits before its manifest, so the manifest
// is the commit point: it is the only record that a job finished.
//
// Resume semantics: a job is skipped iff its manifest parses, says
// status=complete, and its (plan hash, job id, cell name, cell seed,
// method) all match the live plan — anything else (including artifacts
// from a stale plan revision) recomputes. Doubles round-trip through
// "%.17g", so resumed rows are bitwise equal to freshly computed ones.
// Every init_run() purges what a kill -9 strands: *.tmp files and *.ckpt
// files no complete manifest references.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>

#include "lab/experiment.hpp"
#include "lab/leaderboard.hpp"

namespace mirage::lab {

class ArtifactStore {
 public:
  /// Writes one artifact's bytes to the path it is given; false on IO
  /// failure. The path is a temp file the store then commits.
  using FileWriter = std::function<bool(const std::string& path)>;

  explicit ArtifactStore(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }

  /// Run directory for a plan (not created until init_run).
  std::string run_dir(const ExperimentPlan& plan) const;
  /// Create the run directory, commit plan.txt (rewritten on every call,
  /// so a torn one from a killed run is restored) and purge stranded
  /// partial artifacts; false + diagnostic on IO failure or a plan name
  /// that is not a plain path component.
  bool init_run(const ExperimentPlan& plan, std::string* error = nullptr);

  /// Absolute path of a job's manifest / checkpoint artifact.
  std::string manifest_path(const ExperimentPlan& plan, const LabJob& job) const;
  std::string checkpoint_path(const ExperimentPlan& plan, const LabJob& job) const;

  /// Load a completed job's result; nullopt when the artifact is missing,
  /// incomplete, or belongs to a different plan/cell/seed. For jobs that
  /// recorded a checkpoint, the checkpoint file must still exist.
  ///
  /// Serializing + hashing a plan is not free, so the hot orchestration
  /// path computes plan.hash() once and passes it to load/save; when
  /// `plan_hash` is provided it MUST equal plan.hash().
  std::optional<JobResult> load(const ExperimentPlan& plan, const LabJob& job,
                                std::optional<std::uint64_t> plan_hash = std::nullopt) const;

  /// Persist a completed job. With `write_checkpoint`, the bytes it writes
  /// are committed first as result.checkpoint (a file name in the run
  /// directory, normally that of checkpoint_path()); the manifest commits
  /// last.
  bool save(const ExperimentPlan& plan, const LabJob& job, const JobResult& result,
            std::string* error = nullptr,
            std::optional<std::uint64_t> plan_hash = std::nullopt,
            const FileWriter& write_checkpoint = {});

  /// Completed-artifact count for a plan (cheap resume preview).
  std::size_t count_complete(const ExperimentPlan& plan) const;

 private:
  std::filesystem::path dir_for(const ExperimentPlan& plan, std::uint64_t plan_hash) const;

  std::string root_;
};

}  // namespace mirage::lab
