#include "lab/experiment.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strconv.hpp"

namespace mirage::lab {

namespace {

using util::format_double_exact;
using util::parse_f64;
using util::parse_i32;
using util::parse_i64;

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

template <typename T>
std::string join_csv(const std::vector<T>& values, std::string (*fmt)(T)) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += fmt(values[i]);
  }
  return out;
}

}  // namespace

bool is_plain_path_component(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos && name.find("..") == std::string::npos;
}

std::string LabJob::id() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "c%03zu__%s", cell_index,
                core::method_file_name(method).c_str());
  return buf;
}

std::vector<LabJob> expand_jobs(const ExperimentPlan& plan) {
  const auto cells = plan.matrix.expand();
  std::vector<LabJob> jobs;
  jobs.reserve(cells.size() * plan.methods.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (const core::Method m : plan.methods) {
      jobs.push_back(LabJob{i, cells[i], m});
    }
  }
  return jobs;
}

std::string ExperimentPlan::to_text() const {
  std::ostringstream out;
  out << "# mirage experiment plan\n";
  out << "name=" << name << '\n';
  out << "methods="
      << join_csv<core::Method>(methods, +[](core::Method m) { return core::method_file_name(m); })
      << '\n';
  out << "job_nodes=" << budget.job_nodes << '\n';
  out << "collector_anchors=" << budget.collector_anchors << '\n';
  out << "pretrain_epochs=" << budget.pretrain_epochs << '\n';
  out << "online_episodes=" << budget.online_episodes << '\n';
  out << "eval_episodes=" << budget.eval_episodes << '\n';
  out << "warmup=" << budget.warmup << '\n';
  out << "max_horizon=" << budget.max_horizon << '\n';
  out << "job_runtime=" << budget.job_runtime << '\n';
  // Emitted only when set: nn_threads never changes results (bitwise
  // determinism contract), and keeping it out of default plan text keeps
  // pre-existing plan hashes — and their resumable artifacts — valid.
  if (budget.nn_threads != 0) out << "nn_threads=" << budget.nn_threads << '\n';
  if (!matrix.clusters.empty()) {
    out << "clusters="
        << join_csv<std::string>(matrix.clusters, +[](std::string s) { return s; }) << '\n';
  }
  if (!matrix.utilization_scales.empty()) {
    out << "utilization_scales="
        << join_csv<double>(matrix.utilization_scales, +[](double v) { return format_double_exact(v); })
        << '\n';
  }
  if (!matrix.reservation_depths.empty()) {
    out << "reservation_depths="
        << join_csv<std::int32_t>(matrix.reservation_depths,
                                  +[](std::int32_t v) { return std::to_string(v); })
        << '\n';
  }
  for (std::size_t i = 0; i < matrix.event_profiles.size(); ++i) {
    const auto& profile = matrix.event_profiles[i];
    out << "profile." << i << ".name=" << profile.name << '\n';
    for (std::size_t j = 0; j < profile.events.size(); ++j) {
      out << "profile." << i << ".event." << j << '='
          << scenario::event_to_csv(profile.events[j]) << '\n';
    }
  }
  for (std::size_t i = 0; i < matrix.partition_layouts.size(); ++i) {
    const auto& layout = matrix.partition_layouts[i];
    out << "layout." << i << ".name=" << layout.name << '\n';
    for (std::size_t j = 0; j < layout.partitions.size(); ++j) {
      out << "layout." << i << ".partition." << j << '=' << layout.partitions[j].name << ','
          << layout.partitions[j].node_count << '\n';
    }
  }
  // Embed the base scenario with a "base." prefix, reusing its own
  // serialization line-for-line (comment lines dropped).
  std::istringstream base(matrix.base.to_text());
  std::string line;
  while (std::getline(base, line)) {
    if (line.empty() || line[0] == '#') continue;
    out << "base." << line << '\n';
  }
  return out.str();
}

std::uint64_t ExperimentPlan::hash() const {
  const std::string text = to_text();
  std::uint64_t h = util::kFnv1a64Basis;
  for (const char c : text) h = util::fnv1a64(h, static_cast<std::uint8_t>(c));
  return h;
}

std::optional<ExperimentPlan> parse_plan(const std::string& text, std::string* error) {
  // Structural scan: every non-comment, non-blank line must be key=value.
  if (const auto bad = util::first_malformed_line(text)) {
    fail(error, "malformed line (expected key=value): " + *bad);
    return std::nullopt;
  }

  const auto cfg = util::Config::from_text(text);
  ExperimentPlan plan;
  std::ostringstream base_text;
  // profile index -> (name, event index -> csv). Ordered maps keep the
  // numeric keys sorted so expansion order matches file order. Partition
  // layouts (the partition axis) use the same two-level key scheme.
  std::map<std::int64_t, std::string> profile_names;
  std::map<std::int64_t, std::map<std::int64_t, std::string>> profile_events;
  std::map<std::int64_t, std::string> layout_names;
  std::map<std::int64_t, std::map<std::int64_t, trace::ClusterPartition>> layout_partitions;

  for (const auto& key : cfg.keys()) {
    const std::string value = cfg.get_string(key, "");
    std::int64_t i = 0;
    double d = 0;
    bool ok = true;
    if (key == "name") {
      plan.name = value;
    } else if (key == "methods") {
      for (const auto& token : util::parse_csv_line(value)) {
        const auto m = core::method_from_name(token);
        if (!m) {
          fail(error, "unknown method: " + token);
          return std::nullopt;
        }
        plan.methods.push_back(*m);
      }
    } else if (key == "job_nodes") {
      std::int32_t i32 = 0;
      ok = parse_i32(value, i32) && i32 > 0;
      plan.budget.job_nodes = i32;
    } else if (key == "collector_anchors") {
      ok = parse_i64(value, i) && i > 0;
      plan.budget.collector_anchors = static_cast<std::size_t>(i);
    } else if (key == "pretrain_epochs") {
      ok = parse_i64(value, i) && i >= 0;
      plan.budget.pretrain_epochs = static_cast<std::size_t>(i);
    } else if (key == "online_episodes") {
      ok = parse_i64(value, i) && i >= 0;
      plan.budget.online_episodes = static_cast<std::size_t>(i);
    } else if (key == "eval_episodes") {
      ok = parse_i64(value, i) && i > 0;
      plan.budget.eval_episodes = static_cast<std::size_t>(i);
    } else if (key == "warmup") {
      ok = parse_i64(value, i) && i >= 0;
      plan.budget.warmup = i;
    } else if (key == "max_horizon") {
      ok = parse_i64(value, i) && i > 0;
      plan.budget.max_horizon = i;
    } else if (key == "job_runtime") {
      ok = parse_i64(value, i) && i > 0;
      plan.budget.job_runtime = i;
    } else if (key == "nn_threads") {
      ok = parse_i64(value, i) && i >= 0;
      plan.budget.nn_threads = static_cast<std::size_t>(i);
    } else if (key == "clusters") {
      plan.matrix.clusters = util::parse_csv_line(value);
    } else if (key == "utilization_scales") {
      for (const auto& token : util::parse_csv_line(value)) {
        if (!parse_f64(token, d) || d <= 0) {
          fail(error, "bad utilization scale: " + token);
          return std::nullopt;
        }
        plan.matrix.utilization_scales.push_back(d);
      }
    } else if (key == "reservation_depths") {
      for (const auto& token : util::parse_csv_line(value)) {
        std::int32_t depth = 0;
        if (!parse_i32(token, depth) || depth < 0) {
          fail(error, "bad reservation depth: " + token);
          return std::nullopt;
        }
        plan.matrix.reservation_depths.push_back(depth);
      }
    } else if (key.rfind("profile.", 0) == 0) {
      const std::string rest = key.substr(8);
      const auto dot = rest.find('.');
      std::int64_t index = 0;
      if (dot == std::string::npos || !parse_i64(rest.substr(0, dot), index) || index < 0) {
        fail(error, "bad profile key: " + key);
        return std::nullopt;
      }
      const std::string field = rest.substr(dot + 1);
      if (field == "name") {
        profile_names[index] = value;
      } else if (field.rfind("event.", 0) == 0) {
        std::int64_t ev_index = 0;
        if (!parse_i64(field.substr(6), ev_index) || ev_index < 0) {
          fail(error, "bad profile event key: " + key);
          return std::nullopt;
        }
        profile_events[index][ev_index] = value;
      } else {
        fail(error, "unknown profile field: " + key);
        return std::nullopt;
      }
    } else if (key.rfind("layout.", 0) == 0) {
      const std::string rest = key.substr(7);
      const auto dot = rest.find('.');
      std::int64_t index = 0;
      if (dot == std::string::npos || !parse_i64(rest.substr(0, dot), index) || index < 0) {
        fail(error, "bad layout key: " + key);
        return std::nullopt;
      }
      const std::string field = rest.substr(dot + 1);
      if (field == "name") {
        layout_names[index] = value;
      } else if (field.rfind("partition.", 0) == 0) {
        std::int64_t part_index = 0;
        if (!parse_i64(field.substr(10), part_index) || part_index < 0) {
          fail(error, "bad layout partition key: " + key);
          return std::nullopt;
        }
        trace::ClusterPartition part;
        std::string part_error;
        if (!scenario::parse_partition_csv(value, part, &part_error)) {
          fail(error, "layout " + part_error);
          return std::nullopt;
        }
        layout_partitions[index][part_index] = part;
      } else {
        fail(error, "unknown layout field: " + key);
        return std::nullopt;
      }
    } else if (key.rfind("base.", 0) == 0) {
      base_text << key.substr(5) << '=' << value << '\n';
    } else {
      fail(error, "unknown key: " + key);
      return std::nullopt;
    }
    if (!ok) {
      fail(error, "bad value for " + key + ": " + value);
      return std::nullopt;
    }
  }

  if (plan.methods.empty()) {
    fail(error, "plan needs a methods= list");
    return std::nullopt;
  }
  for (std::size_t a = 0; a < plan.methods.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.methods.size(); ++b) {
      if (plan.methods[a] == plan.methods[b]) {
        fail(error, "duplicate method: " + core::method_name(plan.methods[a]));
        return std::nullopt;
      }
    }
  }
  if (!is_plain_path_component(plan.name)) {
    fail(error, "plan name must be a plain path component: '" + plan.name + "'");
    return std::nullopt;
  }

  std::string base_error;
  const auto base = scenario::parse_scenario(base_text.str(), &base_error);
  if (!base) {
    fail(error, "bad base scenario: " + base_error);
    return std::nullopt;
  }
  plan.matrix.base = *base;

  for (const auto& [index, name] : profile_names) {
    scenario::EventProfile profile;
    profile.name = name;
    if (const auto evs = profile_events.find(index); evs != profile_events.end()) {
      for (const auto& [ev_index, csv] : evs->second) {
        scenario::ScenarioEvent ev;
        std::string ev_error;
        if (!scenario::parse_event_csv(csv, ev, &ev_error)) {
          fail(error, "bad profile event: " + ev_error);
          return std::nullopt;
        }
        profile.events.push_back(ev);
      }
    }
    plan.matrix.event_profiles.push_back(std::move(profile));
  }
  for (const auto& [index, evs] : profile_events) {
    if (!profile_names.count(index)) {
      fail(error, "profile." + std::to_string(index) + " has events but no name");
      return std::nullopt;
    }
  }

  for (const auto& [index, name] : layout_names) {
    scenario::PartitionLayout layout;
    layout.name = name;
    if (const auto parts = layout_partitions.find(index); parts != layout_partitions.end()) {
      for (const auto& [part_index, part] : parts->second) layout.partitions.push_back(part);
    }
    plan.matrix.partition_layouts.push_back(std::move(layout));
  }
  for (const auto& [index, parts] : layout_partitions) {
    if (!layout_names.count(index)) {
      fail(error, "layout." + std::to_string(index) + " has partitions but no name");
      return std::nullopt;
    }
  }

  // Semantic validation of the matrix axes: every (cluster, profile)
  // combination the expansion will produce must be a valid scenario —
  // unknown cluster names, oversize bursts, and recurring calendars past
  // the horizon fail here with a diagnostic instead of throwing (or
  // silently no-op'ing) mid-run from a worker thread.
  const std::vector<std::string> clusters = plan.matrix.clusters.empty()
                                                ? std::vector<std::string>{plan.matrix.base.cluster}
                                                : plan.matrix.clusters;
  std::vector<scenario::EventProfile> profiles = plan.matrix.event_profiles;
  if (profiles.empty()) profiles.push_back({"base", plan.matrix.base.events});
  std::vector<scenario::PartitionLayout> layouts = plan.matrix.partition_layouts;
  if (layouts.empty()) layouts.push_back({"base", plan.matrix.base.partitions});
  for (const auto& cluster : clusters) {
    scenario::ScenarioSpec probe = plan.matrix.base;
    probe.cluster = cluster;
    for (const auto& profile : profiles) {
      probe.events = profile.events;
      for (const auto& layout : layouts) {
        probe.partitions = layout.partitions;
        std::string probe_error;
        if (!scenario::validate_spec(probe, &probe_error)) {
          fail(error, "invalid cell (cluster " + cluster + ", profile " + profile.name +
                          ", layout " + layout.name + "): " + probe_error);
          return std::nullopt;
        }
      }
    }
  }
  return plan;
}

std::optional<ExperimentPlan> load_plan_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open plan file: " + path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_plan(text.str(), error);
}

bool save_plan_file(const ExperimentPlan& plan, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << plan.to_text();
  return static_cast<bool>(out);
}

core::PipelineConfig cell_pipeline_config(const ExperimentPlan& plan,
                                          const scenario::ScenarioSpec& cell) {
  auto cfg = scenario::to_pipeline_config(cell, plan.budget.job_nodes);
  cfg.collector.anchors = plan.budget.collector_anchors;
  cfg.pretrain.epochs = plan.budget.pretrain_epochs;
  cfg.online.episodes = plan.budget.online_episodes;
  cfg.eval.episodes = plan.budget.eval_episodes;
  cfg.episode.warmup = plan.budget.warmup;
  cfg.episode.max_horizon = plan.budget.max_horizon;
  cfg.episode.job_runtime = plan.budget.job_runtime;
  cfg.episode.job_limit = plan.budget.job_runtime;
  // Capacity events reach the training/evaluation episodes themselves (a
  // PR 3 follow-on): every episode simulator of the cell replays the
  // cell's outages/drains/preemptions, not just the background metrics.
  cfg.episode.cluster_events = scenario::capacity_events(cell);
  return cfg;
}

}  // namespace mirage::lab
