#include "lab/artifact_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/strconv.hpp"
#include "util/wal.hpp"

namespace mirage::lab {

namespace fs = std::filesystem;

namespace {

using util::format_double_exact;
using util::parse_f64;
using util::parse_u64;

std::string hash_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Minimal manifest parser: first-'=' split, full-line '#' comments only —
/// values (cell names) may legally contain '#' or '='.
std::map<std::string, std::string> parse_manifest(std::istream& in) {
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

/// The run directory's one commit protocol: `write` fills <path>.tmp, the
/// temp file is fsynced so its bytes are durable before the rename
/// publishes them, and rename_durable fsyncs the directory after it, so
/// the rename itself survives power loss — not merely process death.
bool commit_file(const fs::path& path, const ArtifactStore::FileWriter& write,
                 std::string* error) {
  const std::string tmp = path.string() + ".tmp";
  if (!write(tmp)) return fail(error, "cannot write " + tmp);
  std::string io_error;
  if (!util::wal::fsync_path(tmp, &io_error) ||
      !util::wal::rename_durable(tmp, path.string(), &io_error)) {
    return fail(error, "cannot commit " + path.string() + ": " + io_error);
  }
  return true;
}

bool commit_text(const fs::path& path, const std::string& text, std::string* error) {
  return commit_file(
      path,
      [&text](const std::string& tmp) {
        std::ofstream out(tmp, std::ios::binary);
        out << text;
        out.close();
        return !out.fail();
      },
      error);
}

/// Remove what a kill -9 strands: a *.tmp mid-commit, or a committed
/// checkpoint whose manifest never landed (the checkpoint commits first).
/// Neither is resumable; the manifest is the commit point, so only the
/// checkpoints complete manifests reference are kept.
void purge_stranded(const fs::path& dir) {
  std::set<std::string> referenced;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 9 || name.substr(name.size() - 9) != ".manifest") continue;
    std::ifstream in(entry.path());
    if (!in) continue;
    const auto kv = parse_manifest(in);
    const auto status = kv.find("status");
    const auto ckpt = kv.find("checkpoint");
    if (status != kv.end() && status->second == "complete" && ckpt != kv.end() &&
        !ckpt->second.empty()) {
      referenced.insert(ckpt->second);
    }
  }
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool stranded_tmp = name.size() > 4 && name.substr(name.size() - 4) == ".tmp";
    const bool orphan_ckpt = name.size() > 5 && name.substr(name.size() - 5) == ".ckpt" &&
                             referenced.find(name) == referenced.end();
    if (stranded_tmp || orphan_ckpt) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

}  // namespace

fs::path ArtifactStore::dir_for(const ExperimentPlan& plan, std::uint64_t plan_hash) const {
  return fs::path(root_) / (plan.name + "__" + hash_hex(plan_hash));
}

std::string ArtifactStore::run_dir(const ExperimentPlan& plan) const {
  return dir_for(plan, plan.hash()).string();
}

bool ArtifactStore::init_run(const ExperimentPlan& plan, std::string* error) {
  // parse_plan rejects these; guard programmatically-built plans too.
  if (!is_plain_path_component(plan.name)) {
    return fail(error, "plan name must be a plain path component: '" + plan.name + "'");
  }
  std::error_code ec;
  const fs::path dir = run_dir(plan);
  fs::create_directories(dir, ec);
  if (ec) return fail(error, "cannot create run dir " + dir.string() + ": " + ec.message());
  if (!commit_text(dir / "plan.txt", plan.to_text(), error)) return false;
  purge_stranded(dir);
  return true;
}

std::string ArtifactStore::manifest_path(const ExperimentPlan& plan, const LabJob& job) const {
  return (fs::path(run_dir(plan)) / (job.id() + ".manifest")).string();
}

std::string ArtifactStore::checkpoint_path(const ExperimentPlan& plan, const LabJob& job) const {
  return (fs::path(run_dir(plan)) / (job.id() + ".ckpt")).string();
}

std::optional<JobResult> ArtifactStore::load(const ExperimentPlan& plan, const LabJob& job,
                                             std::optional<std::uint64_t> plan_hash_hint) const {
  const std::uint64_t plan_hash = plan_hash_hint ? *plan_hash_hint : plan.hash();
  const fs::path dir = dir_for(plan, plan_hash);
  std::ifstream in(dir / (job.id() + ".manifest"));
  if (!in) return std::nullopt;
  const auto kv = parse_manifest(in);
  const auto get = [&kv](const char* key) -> std::string {
    const auto it = kv.find(key);
    return it == kv.end() ? std::string() : it->second;
  };

  // Identity checks: any mismatch means the artifact belongs to another
  // plan revision (or a different cell landed on this id) — recompute.
  if (get("status") != "complete") return std::nullopt;
  if (get("plan_hash") != hash_hex(plan_hash)) return std::nullopt;
  if (get("job") != job.id()) return std::nullopt;
  if (get("cell") != job.cell.name) return std::nullopt;
  if (get("method") != core::method_name(job.method)) return std::nullopt;
  std::uint64_t seed = 0;
  if (!parse_u64(get("seed"), seed) || seed != job.cell.seed) return std::nullopt;

  JobResult r;
  r.cell_index = job.cell_index;
  r.cell = job.cell.name;
  r.cluster = get("cluster");
  r.seed = seed;
  r.method = get("method");
  r.eventful = get("eventful") == "1";
  std::uint64_t episodes = 0;
  if (!parse_u64(get("episodes"), episodes)) return std::nullopt;
  r.episodes = episodes;
  if (!parse_f64(get("mean_interruption_h"), r.mean_interruption_h)) return std::nullopt;
  if (!parse_f64(get("max_interruption_h"), r.max_interruption_h)) return std::nullopt;
  if (!parse_f64(get("mean_overlap_h"), r.mean_overlap_h)) return std::nullopt;
  if (!parse_f64(get("zero_fraction"), r.zero_fraction)) return std::nullopt;
  if (!parse_f64(get("cell_mean_wait_h"), r.cell_mean_wait_h)) return std::nullopt;
  if (!parse_f64(get("cell_p95_wait_h"), r.cell_p95_wait_h)) return std::nullopt;
  if (!parse_f64(get("cell_utilization"), r.cell_utilization)) return std::nullopt;
  r.cell_load = get("cell_load");
  // Strict parse of the per-partition victim counts (added with src/obs/):
  // manifests written before these keys existed fail here and recompute —
  // a silent zero would disagree with the cell's traces.
  std::uint64_t cell_killed = 0;
  std::uint64_t cell_preempted = 0;
  if (!parse_u64(get("cell_killed"), cell_killed)) return std::nullopt;
  if (!parse_u64(get("cell_preempted"), cell_preempted)) return std::nullopt;
  r.cell_killed = cell_killed;
  r.cell_preempted = cell_preempted;
  if (kv.find("cell_partition_counts") == kv.end()) return std::nullopt;
  r.cell_partition_counts = get("cell_partition_counts");
  r.checkpoint = get("checkpoint");
  r.resumed = true;

  // A manifest that promises a checkpoint the filesystem lost is not
  // resumable — the promotion path would dangle.
  if (!r.checkpoint.empty()) {
    std::error_code ec;
    if (!fs::exists(dir / r.checkpoint, ec)) return std::nullopt;
  }
  return r;
}

bool ArtifactStore::save(const ExperimentPlan& plan, const LabJob& job, const JobResult& result,
                         std::string* error, std::optional<std::uint64_t> plan_hash_hint,
                         const FileWriter& write_checkpoint) {
  const std::uint64_t plan_hash = plan_hash_hint ? *plan_hash_hint : plan.hash();
  const fs::path dir = dir_for(plan, plan_hash);
  if (write_checkpoint && !commit_file(dir / result.checkpoint, write_checkpoint, error)) {
    return false;
  }
  std::ostringstream out;
  out << "# mirage lab manifest\n";
  out << "plan_hash=" << hash_hex(plan_hash) << '\n';
  out << "job=" << job.id() << '\n';
  out << "cell=" << result.cell << '\n';
  out << "cluster=" << result.cluster << '\n';
  out << "seed=" << result.seed << '\n';
  out << "method=" << result.method << '\n';
  out << "eventful=" << (result.eventful ? 1 : 0) << '\n';
  out << "episodes=" << result.episodes << '\n';
  out << "mean_interruption_h=" << format_double_exact(result.mean_interruption_h) << '\n';
  out << "max_interruption_h=" << format_double_exact(result.max_interruption_h) << '\n';
  out << "mean_overlap_h=" << format_double_exact(result.mean_overlap_h) << '\n';
  out << "zero_fraction=" << format_double_exact(result.zero_fraction) << '\n';
  out << "cell_mean_wait_h=" << format_double_exact(result.cell_mean_wait_h) << '\n';
  out << "cell_p95_wait_h=" << format_double_exact(result.cell_p95_wait_h) << '\n';
  out << "cell_utilization=" << format_double_exact(result.cell_utilization) << '\n';
  out << "cell_load=" << result.cell_load << '\n';
  out << "cell_killed=" << result.cell_killed << '\n';
  out << "cell_preempted=" << result.cell_preempted << '\n';
  out << "cell_partition_counts=" << result.cell_partition_counts << '\n';
  out << "checkpoint=" << result.checkpoint << '\n';
  out << "status=complete\n";
  return commit_text(dir / (job.id() + ".manifest"), out.str(), error);
}

std::size_t ArtifactStore::count_complete(const ExperimentPlan& plan) const {
  std::size_t n = 0;
  for (const auto& job : expand_jobs(plan)) {
    if (load(plan, job)) ++n;
  }
  return n;
}

}  // namespace mirage::lab
