#include "scenario/sweep.hpp"

#include <cstdio>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mirage::scenario {

std::size_t SweepMatrix::cell_count() const {
  const std::size_t c = clusters.empty() ? 1 : clusters.size();
  const std::size_t u = utilization_scales.empty() ? 1 : utilization_scales.size();
  const std::size_t d = reservation_depths.empty() ? 1 : reservation_depths.size();
  const std::size_t e = event_profiles.empty() ? 1 : event_profiles.size();
  const std::size_t p = partition_layouts.empty() ? 1 : partition_layouts.size();
  return c * u * d * e * p;
}

std::vector<ScenarioSpec> SweepMatrix::expand() const {
  const std::vector<std::string> cs = clusters.empty() ? std::vector<std::string>{base.cluster}
                                                       : clusters;
  const std::vector<double> us = utilization_scales.empty()
                                     ? std::vector<double>{base.utilization_scale}
                                     : utilization_scales;
  const std::vector<std::int32_t> ds =
      reservation_depths.empty() ? std::vector<std::int32_t>{base.scheduler.reservation_depth}
                                 : reservation_depths;
  std::vector<EventProfile> es = event_profiles;
  if (es.empty()) es.push_back(EventProfile{"base", base.events});
  // The partition axis is optional; without it, cells inherit the base
  // layout and cell names keep their pre-partition shape (so existing
  // artifact ids and seed assignments stay stable).
  std::vector<PartitionLayout> ps = partition_layouts;
  const bool partition_axis = !ps.empty();
  if (!partition_axis) ps.push_back(PartitionLayout{"base", base.partitions});

  // Per-cell child seeds come from one deterministic stream, assigned in
  // expansion order — execution order (and thread count) cannot change
  // which seed a cell gets.
  util::Rng seeder(base.seed);

  std::vector<ScenarioSpec> cells;
  cells.reserve(cs.size() * us.size() * ds.size() * es.size() * ps.size());
  char buf[192];
  for (const auto& c : cs) {
    for (const double u : us) {
      for (const std::int32_t d : ds) {
        for (const auto& e : es) {
          for (const auto& p : ps) {
            ScenarioSpec cell = base;
            cell.cluster = c;
            cell.utilization_scale = u;
            cell.scheduler.reservation_depth = d;
            cell.events = e.events;
            cell.partitions = p.partitions;
            cell.seed = seeder.next_u64();
            if (partition_axis) {
              std::snprintf(buf, sizeof(buf), "%s/u%.2f/d%d/%s/%s", c.c_str(), u, d,
                            e.name.c_str(), p.name.c_str());
            } else {
              std::snprintf(buf, sizeof(buf), "%s/u%.2f/d%d/%s", c.c_str(), u, d,
                            e.name.c_str());
            }
            cell.name = buf;
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

void finalize_report(SweepReport& report) {
  report.mean_wait_hours = 0.0;
  report.worst_p95_wait_hours = 0.0;
  report.mean_utilization = 0.0;
  report.total_killed = 0;
  report.total_preempted = 0;
  report.total_unscheduled = 0;
  report.heavy_cells = 0;
  if (report.cells.empty()) return;
  for (const auto& cell : report.cells) {
    report.mean_wait_hours += cell.metrics.mean_wait_hours;
    report.worst_p95_wait_hours = std::max(report.worst_p95_wait_hours,
                                           cell.metrics.p95_wait_hours);
    report.mean_utilization += cell.metrics.average_utilization;
    report.total_killed += cell.killed_jobs;
    report.total_preempted += cell.preempted_jobs;
    report.total_unscheduled += cell.unscheduled;
    report.heavy_cells += cell.load == core::LoadClass::kHeavy;
  }
  const auto n = static_cast<double>(report.cells.size());
  report.mean_wait_hours /= n;
  report.mean_utilization /= n;
}

void SweepTrace::prepare(const std::vector<ScenarioSpec>& specs, std::size_t ring_capacity) {
  rings_.clear();
  labels_.clear();
  rings_.reserve(specs.size());
  labels_.reserve(specs.size());
  for (const auto& spec : specs) {
    rings_.push_back(std::make_unique<obs::TraceRing>(ring_capacity));
    labels_.push_back(spec.name);
  }
}

std::vector<obs::TraceTrack> SweepTrace::tracks() const {
  std::vector<obs::TraceTrack> out;
  out.reserve(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    out.push_back(obs::TraceTrack{labels_[i], static_cast<std::uint32_t>(i),
                                  rings_[i]->snapshot(), rings_[i]->dropped()});
  }
  return out;
}

std::uint64_t SweepTrace::total_events() const {
  std::uint64_t n = 0;
  for (const auto& ring : rings_) n += ring->recorded();
  return n;
}

namespace {

/// Run one cell, bracketed by deterministic sim-time lifecycle events in
/// its ring: kCellStart at t=0 and a kCellFinish slice spanning the cell's
/// makespan (arg0 = cell index, arg1 = jobs).
ScenarioResult run_traced_cell(const ScenarioSpec& spec, std::size_t index,
                               obs::TraceRing* ring) {
  if (ring == nullptr || !obs::enabled()) return run_scenario(spec);
  {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kCellStart;
    ev.name = "cell_start";
    ev.arg0 = static_cast<std::int64_t>(index);
    ring->record(ev);
  }
  ScenarioResult result = run_scenario(spec, ring);
  {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kCellFinish;
    ev.name = "cell";
    ev.dur = static_cast<std::int64_t>(result.metrics.makespan_hours * 3600.0);
    ev.arg0 = static_cast<std::int64_t>(index);
    ev.arg1 = static_cast<std::int64_t>(result.jobs);
    ring->record(ev);
  }
  return result;
}

}  // namespace

SweepReport SweepRunner::run(const std::vector<ScenarioSpec>& specs, SweepTrace* trace) const {
  if (trace != nullptr && trace->cell_count() != specs.size()) trace->prepare(specs);
  SweepReport report;
  report.cells.resize(specs.size());
  util::ThreadPool pool(threads_);
  pool.parallel_for(specs.size(), [&](std::size_t i) {
    report.cells[i] = run_traced_cell(specs[i], i, trace ? trace->ring(i) : nullptr);
  });
  finalize_report(report);
  return report;
}

SweepReport SweepRunner::run_serial(const std::vector<ScenarioSpec>& specs, SweepTrace* trace) {
  if (trace != nullptr && trace->cell_count() != specs.size()) trace->prepare(specs);
  SweepReport report;
  report.cells.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    report.cells.push_back(run_traced_cell(specs[i], i, trace ? trace->ring(i) : nullptr));
  }
  finalize_report(report);
  return report;
}

std::string SweepReport::to_csv() const {
  std::ostringstream out;
  util::CsvWriter writer(out);
  writer.write_row({"scenario", "nodes", "jobs", "unscheduled", "killed", "preempted",
                    "partition_counts", "load", "mean_wait_h", "p95_wait_h", "utilization",
                    "makespan_h", "passes", "schedule_hash"});
  char num[48];
  for (const auto& c : cells) {
    std::vector<std::string> row;
    row.push_back(c.name);
    row.push_back(std::to_string(c.total_nodes));
    row.push_back(std::to_string(c.jobs));
    row.push_back(std::to_string(c.unscheduled));
    row.push_back(std::to_string(c.killed_jobs));
    row.push_back(std::to_string(c.preempted_jobs));
    row.push_back(c.partition_counts_text());
    row.push_back(core::load_class_name(c.load));
    std::snprintf(num, sizeof(num), "%.6f", c.metrics.mean_wait_hours);
    row.push_back(num);
    std::snprintf(num, sizeof(num), "%.6f", c.metrics.p95_wait_hours);
    row.push_back(num);
    std::snprintf(num, sizeof(num), "%.6f", c.metrics.average_utilization);
    row.push_back(num);
    std::snprintf(num, sizeof(num), "%.6f", c.metrics.makespan_hours);
    row.push_back(num);
    row.push_back(std::to_string(c.scheduler_passes));
    std::snprintf(num, sizeof(num), "%016llx",
                  static_cast<unsigned long long>(c.schedule_hash));
    row.push_back(num);
    writer.write_row(row);
  }
  return out.str();
}

std::string SweepReport::format_table() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %6s %6s %5s %5s %6s  %-6s %10s %10s %6s\n",
                "scenario", "jobs", "unsch", "kill", "pree", "util", "load", "mean_w(h)",
                "p95_w(h)", "passes");
  out << line;
  for (const auto& c : cells) {
    std::snprintf(line, sizeof(line),
                  "%-34s %6zu %6zu %5zu %5zu %5.1f%%  %-6s %10.2f %10.2f %6llu\n",
                  c.name.c_str(), c.jobs, c.unscheduled, c.killed_jobs, c.preempted_jobs,
                  100.0 * c.metrics.average_utilization, core::load_class_name(c.load),
                  c.metrics.mean_wait_hours, c.metrics.p95_wait_hours,
                  static_cast<unsigned long long>(c.scheduler_passes));
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "cells %zu | mean wait %.2f h | worst p95 %.2f h | mean util %.1f%% | "
                "killed %zu | preempted %zu | unscheduled %zu | heavy cells %zu\n",
                cells.size(), mean_wait_hours, worst_p95_wait_hours, 100.0 * mean_utilization,
                total_killed, total_preempted, total_unscheduled, heavy_cells);
  out << line;
  return out.str();
}

}  // namespace mirage::scenario
