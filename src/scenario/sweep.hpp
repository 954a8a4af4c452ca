// Parallel sweep harness: expand a scenario matrix (cluster x load scale x
// scheduler depth x event profile) into concrete cells and run every cell
// on a util::ThreadPool. Each cell carries its own pre-assigned seed drawn
// from a util::Rng stream during expansion, and run_scenario() is a pure
// function of the spec, so parallel results are bitwise identical to a
// single-threaded run of the same cells — the determinism contract the
// sweep tests and the scenario_sweep example verify.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace mirage::scenario {

/// Named event profile, one axis value of the matrix ("none", "outage",
/// "maintenance", "flash-crowd", ...).
struct EventProfile {
  std::string name = "none";
  std::vector<ScenarioEvent> events;
};

/// Named partition layout, one axis value of the matrix ("single",
/// "3-pool", ...). An empty partition list means "keep the preset's
/// layout" (single pool for the paper presets).
struct PartitionLayout {
  std::string name = "single";
  std::vector<trace::ClusterPartition> partitions;
};

/// Cross-product scenario matrix. Empty axes inherit the base spec's
/// value, so any subset of axes can vary.
struct SweepMatrix {
  ScenarioSpec base;
  std::vector<std::string> clusters;            ///< empty = {base.cluster}
  std::vector<double> utilization_scales;       ///< empty = {base.utilization_scale}
  std::vector<std::int32_t> reservation_depths; ///< empty = {base.scheduler.reservation_depth}
  std::vector<EventProfile> event_profiles;     ///< empty = {base.events as "base"}
  std::vector<PartitionLayout> partition_layouts;  ///< empty = {base.partitions}, no name suffix

  /// Expand to concrete cells in a fixed axis order (cluster-major). Cell
  /// names encode their coordinates; per-cell seeds are drawn in
  /// expansion order from util::Rng(base.seed), so the expansion itself
  /// is deterministic and independent of how cells later execute.
  std::vector<ScenarioSpec> expand() const;

  std::size_t cell_count() const;
};

struct SweepReport {
  std::vector<ScenarioResult> cells;  ///< expansion order

  /// Cross-cell aggregates (consumed by evaluation tooling).
  double mean_wait_hours = 0.0;       ///< mean of per-cell mean waits
  double worst_p95_wait_hours = 0.0;
  double mean_utilization = 0.0;
  std::size_t total_killed = 0;
  std::size_t total_preempted = 0;
  std::size_t total_unscheduled = 0;
  std::size_t heavy_cells = 0;        ///< cells classified LoadClass::kHeavy

  std::string to_csv() const;
  std::string format_table() const;
};

/// Compute the aggregate fields of a report from its cells.
void finalize_report(SweepReport& report);

/// Per-cell sim-time trace capture for one sweep run. One fixed-capacity
/// obs::TraceRing per cell, allocated up front (prepare), written by the
/// cell's simulator during the run, and exported afterwards in expansion
/// order (pid = cell index, tid = partition id). Because every ring holds
/// only deterministic sim-time events and tracks are merged in expansion
/// order, the exported bytes are identical whether the sweep ran serial
/// or parallel — the contract the obs determinism test pins.
class SweepTrace {
 public:
  /// Allocate one ring per cell (labels come from the specs). Re-entrant:
  /// re-preparing resets the capture.
  void prepare(const std::vector<ScenarioSpec>& specs, std::size_t ring_capacity = 1 << 16);

  std::size_t cell_count() const { return rings_.size(); }
  obs::TraceRing* ring(std::size_t i) { return rings_[i].get(); }
  const obs::TraceRing* ring(std::size_t i) const { return rings_[i].get(); }

  /// Export tracks (each ring's snapshot) in expansion order.
  std::vector<obs::TraceTrack> tracks() const;
  std::string to_chrome_json() const { return obs::to_chrome_json(tracks()); }

  /// Total events recorded across all cells (incl. overwritten ones).
  std::uint64_t total_events() const;

 private:
  std::vector<std::unique_ptr<obs::TraceRing>> rings_;
  std::vector<std::string> labels_;
};

class SweepRunner {
 public:
  /// threads == 0 means hardware concurrency.
  explicit SweepRunner(std::size_t threads = 0) : threads_(threads) {}

  /// Run every cell on the thread pool; cells[i] of the report corresponds
  /// to specs[i] regardless of completion order. When `trace` is non-null
  /// each cell records sim-time events into its own ring (the trace is
  /// prepared automatically if its cell count does not match).
  SweepReport run(const std::vector<ScenarioSpec>& specs, SweepTrace* trace = nullptr) const;

  /// Single-threaded reference run (same per-cell computation).
  static SweepReport run_serial(const std::vector<ScenarioSpec>& specs,
                                SweepTrace* trace = nullptr);

 private:
  std::size_t threads_;
};

}  // namespace mirage::scenario
