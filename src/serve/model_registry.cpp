#include "serve/model_registry.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/replay_buffer.hpp"
#include "rl/state_encoder.hpp"
#include "util/time_utils.hpp"

namespace mirage::serve {

namespace {
constexpr float kSubmitOrdinal = 1.0f;
constexpr float kNoSubmitOrdinal = -1.0f;
}  // namespace

// ----------------------------------------------------------- ServableModel

std::vector<Decision> ServableModel::infer(
    const std::vector<std::vector<float>>& observations) const {
  std::vector<Decision> out;
  infer_into(observations, out);
  return out;
}

void ServableModel::infer_into(const std::vector<std::vector<float>>& observations,
                               std::vector<Decision>& out) const {
  out.clear();
  out.resize(observations.size());
  if (observations.empty()) return;
  const std::size_t dim = observation_dim();
  const std::size_t k = info_.history_len;
  const std::size_t batch = observations.size();

  for (const auto& o : observations) {
    if (o.size() != dim) {
      throw std::invalid_argument("ServableModel::infer: observation dim " +
                                  std::to_string(o.size()) + " != model input dim " +
                                  std::to_string(dim) + " (history_len/state_dim mismatch)");
    }
  }
  std::lock_guard<std::mutex> lock(infer_mutex_);
  if (is_dqn()) {
    // One [2B, dim] Q-pass: row 2i is "wait", row 2i+1 is "submit".
    nn::Tensor x(2 * batch, dim);
    std::vector<float> obs;
    for (std::size_t i = 0; i < batch; ++i) {
      obs = observations[i];
      rl::set_action_channel(obs, k, kNoSubmitOrdinal);
      std::copy(obs.begin(), obs.end(), x.row(2 * i));
      rl::set_action_channel(obs, k, kSubmitOrdinal);
      std::copy(obs.begin(), obs.end(), x.row(2 * i + 1));
    }
    nn::Tensor q = model_->forward_q(x);
    for (std::size_t i = 0; i < batch; ++i) {
      out[i].score_wait = q.at(2 * i, 0);
      out[i].score_submit = q.at(2 * i + 1, 0);
      out[i].action = out[i].score_submit > out[i].score_wait ? 1 : 0;
      out[i].model_version = version_;
    }
  } else {
    // One [B, dim] policy pass with the action channel zeroed.
    nn::Tensor x(batch, dim);
    std::vector<float> obs;
    for (std::size_t i = 0; i < batch; ++i) {
      obs = observations[i];
      rl::set_action_channel(obs, k, 0.0f);
      std::copy(obs.begin(), obs.end(), x.row(i));
    }
    nn::Tensor probs = model_->forward_policy(x);
    for (std::size_t i = 0; i < batch; ++i) {
      out[i].score_wait = probs.at(i, 0);
      out[i].score_submit = probs.at(i, 1);
      // Same rule as PgAgent::act_greedy — rounded softmax rows need not
      // sum to exactly 1, so p_submit > p_wait could flip a near-tie.
      out[i].action = out[i].score_submit > 0.5f ? 1 : 0;
      out[i].model_version = version_;
    }
  }
}

// ----------------------------------------------------------- ModelRegistry

RegistryConfig::RegistryConfig() : expected_state_dim(rl::kFrameDim) {}

ModelRegistry::ModelRegistry(RegistryConfig config) : config_(std::move(config)) {}

std::string cluster_from_filename(const std::string& path) {
  const std::string stem = std::filesystem::path(path).stem().string();
  const auto sep = stem.find("__");
  return sep == std::string::npos ? stem : stem.substr(0, sep);
}

ModelRegistry::LoadResult ModelRegistry::load_file(const std::string& path,
                                                   const std::string& cluster) {
  LoadResult res;
  const auto info = core::read_checkpoint_info(path);
  if (!info) {
    res.error = path + ": unreadable or not a Mirage checkpoint";
    return res;
  }
  res.key = ModelKey{cluster, info->kind, info->foundation};
  if (info->kind != "dqn" && info->kind != "pg") {
    res.error = path + ": unknown agent kind '" + info->kind + "'";
    return res;
  }
  nn::FoundationType type;
  if (info->foundation == "transformer") {
    type = nn::FoundationType::kTransformer;
  } else if (info->foundation == "moe") {
    type = nn::FoundationType::kMoE;
  } else {
    res.error = path + ": unknown foundation '" + info->foundation + "'";
    return res;
  }
  if (info->state_dim != config_.expected_state_dim) {
    res.error = path + ": state_dim " + std::to_string(info->state_dim) +
                " != serving frame width " + std::to_string(config_.expected_state_dim);
    return res;
  }
  if (info->history_len == 0 || info->d_model == 0 ||
      (type == nn::FoundationType::kMoE && info->moe_experts == 0)) {
    res.error = path + ": degenerate architecture header";
    return res;
  }

  // Header fields come from the checkpoint; depth/width knobs not covered
  // by the header come from the registry defaults. Any disagreement with
  // the actual parameter shapes is caught by load_model below.
  nn::FoundationConfig net = config_.net_defaults;
  net.history_len = info->history_len;
  net.state_dim = info->state_dim;
  net.d_model = info->d_model;
  net.moe_experts = info->moe_experts;
  net.moe_top1 = info->moe_top1;  // select-vs-blend gate semantics

  auto nn_model = std::make_unique<nn::DualHeadModel>(type, net, /*seed=*/0);
  if (!core::load_model(*nn_model, info->kind, type, net, path)) {
    res.error = path + ": architecture mismatch (header or parameter shapes "
                       "disagree with registry defaults)";
    return res;
  }

  const std::uint64_t version = next_version_.fetch_add(1, std::memory_order_relaxed);
  auto model =
      std::make_shared<const ServableModel>(res.key, *info, path, version, std::move(nn_model));
  {
    std::unique_lock lock(mutex_);
    models_[res.key] = std::move(model);  // atomic swap for hot reload
  }
  res.ok = true;
  res.version = version;
  if (!journal_promotion(cluster, path)) {
    // The promotion happened (the registry swap is done); a failed log
    // append must not un-promote, but it must be loud — a silent gap here
    // would break the restart-reloads-last-promotion contract.
    res.error = path + ": promoted, but promotion log append failed";
  }
  if (obs::enabled()) {
    static obs::Counter* reloads = obs::registry().counter(
        "mirage_serve_checkpoint_reloads_total", "model checkpoints loaded or hot-swapped");
    reloads->add(1);
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kCheckpointReload;
    ev.ts = static_cast<std::int64_t>(util::wall_seconds() * 1e6);
    ev.arg1 = static_cast<std::int64_t>(version);
    ev.tid = static_cast<std::uint32_t>(obs::detail::thread_shard());
    obs::global_trace().record(ev);
  }
  return res;
}

namespace {
// Promotion-log record: u8 type | u32 cluster_len | bytes | u32 path_len |
// bytes. RecordReader bounds-checks replay, so foreign bytes are skipped.
constexpr std::uint8_t kRecPromotion = 1;
}  // namespace

bool ModelRegistry::journal_promotion(const std::string& cluster, const std::string& path) {
  std::lock_guard<std::mutex> lock(promotion_mutex_);
  if (!promotion_log_.is_open() || replaying_) return true;
  std::uint8_t head[5], mid[4];
  head[0] = kRecPromotion;
  util::wal::store_u32_le(head + 1, static_cast<std::uint32_t>(cluster.size()));
  util::wal::store_u32_le(mid, static_cast<std::uint32_t>(path.size()));
  const util::wal::Chunk chunks[] = {
      {head, sizeof(head)},
      {cluster.data(), cluster.size()},
      {mid, sizeof(mid)},
      {path.data(), path.size()},
  };
  return promotion_log_.append(chunks, 4) && promotion_log_.commit();
}

bool ModelRegistry::attach_promotion_log(const std::string& dir,
                                         const util::wal::WalOptions& options,
                                         std::string* error) {
  std::lock_guard<std::mutex> lock(promotion_mutex_);
  return promotion_log_.open(dir, options, error);
}

std::size_t ModelRegistry::recover_promotions(const std::string& dir,
                                              std::vector<LoadResult>* results,
                                              std::string* error) {
  std::vector<std::pair<std::string, std::string>> promotions;  // (cluster, path), log order
  const auto replay = [&promotions](const void* data, std::size_t size) {
    util::wal::RecordReader r(data, size);
    if (r.u8() != kRecPromotion) return;
    std::string cluster = r.str(r.u32());
    std::string path = r.str(r.u32());
    if (r.ok) promotions.emplace_back(std::move(cluster), std::move(path));
  };
  if (!util::wal::recover(dir, replay, nullptr, error)) return 0;

  std::size_t restored = 0;
  for (std::size_t i = 0; i < promotions.size(); ++i) {
    // Last promotion of a (cluster, path) pair wins; earlier ones are
    // superseded history and skipping them avoids redundant loads.
    bool superseded = false;
    for (std::size_t j = i + 1; j < promotions.size() && !superseded; ++j) {
      superseded = promotions[j] == promotions[i];
    }
    if (superseded) continue;
    {
      std::lock_guard<std::mutex> lock(promotion_mutex_);
      replaying_ = true;
    }
    auto res = load_file(promotions[i].second, promotions[i].first);
    {
      std::lock_guard<std::mutex> lock(promotion_mutex_);
      replaying_ = false;
    }
    restored += res.ok;
    if (results) results->push_back(std::move(res));
  }
  return restored;
}

std::size_t ModelRegistry::scan_directory(const std::string& dir,
                                          std::vector<LoadResult>* results) {
  std::error_code ec;
  std::vector<std::string> paths;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    // A mistyped directory must not look like an empty one.
    if (results) {
      LoadResult res;
      res.error = dir + ": " + ec.message();
      results->push_back(std::move(res));
    }
    return 0;
  }
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".ckpt") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic load order
  std::size_t ok = 0;
  for (const auto& p : paths) {
    auto res = load_file(p, cluster_from_filename(p));
    ok += res.ok;
    if (results) results->push_back(std::move(res));
  }
  return ok;
}

ModelSnapshot ModelRegistry::lookup(const ModelKey& key) const {
  std::shared_lock lock(mutex_);
  const auto it = models_.find(key);
  return it == models_.end() ? nullptr : it->second;
}

ModelSnapshot ModelRegistry::find(const std::string& cluster, const std::string& method) const {
  std::shared_lock lock(mutex_);
  for (const auto& [key, model] : models_) {
    if (key.cluster == cluster && key.method == method) return model;
  }
  return nullptr;
}

std::vector<ModelKey> ModelRegistry::keys() const {
  std::shared_lock lock(mutex_);
  std::vector<ModelKey> out;
  out.reserve(models_.size());
  for (const auto& [key, model] : models_) out.push_back(key);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::shared_lock lock(mutex_);
  return models_.size();
}

bool ModelRegistry::erase(const ModelKey& key) {
  std::unique_lock lock(mutex_);
  return models_.erase(key) > 0;
}

}  // namespace mirage::serve
