// Durable model store for online serving. A registry scans a directory of
// agent checkpoints (core::save_agent format), validates each header via
// core::read_checkpoint_info, rebuilds the dual-head model behind it, and
// hands out immutable snapshots keyed by (cluster, method, foundation).
//
// Hot reload is atomic: loading a newer checkpoint for an existing key
// swaps the shared_ptr under the registry lock, so in-flight requests keep
// serving from the snapshot they already hold and new requests pick up the
// new version — no drop, no torn state. This generalizes the checkpoint
// layer's fail-loudly contract ("models are cluster-specific", paper §1)
// to a multi-model, multi-tenant setting.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "nn/dual_head.hpp"
#include "util/wal.hpp"

namespace mirage::serve {

/// Identity of a servable model. `method` is the checkpoint kind ("dqn" |
/// "pg"); `foundation` is "transformer" | "moe"; `cluster` comes from the
/// checkpoint filename (everything before the first "__", e.g.
/// "v100__moe_dqn.ckpt" -> "v100").
struct ModelKey {
  std::string cluster;
  std::string method;
  std::string foundation;

  bool operator<(const ModelKey& o) const {
    if (cluster != o.cluster) return cluster < o.cluster;
    if (method != o.method) return method < o.method;
    return foundation < o.foundation;
  }
  bool operator==(const ModelKey& o) const {
    return cluster == o.cluster && method == o.method && foundation == o.foundation;
  }
  std::string to_string() const { return cluster + "/" + method + "/" + foundation; }
};

/// One decision for one session: submit now (1) or wait (0). Scores are
/// Q-values for DQN models and action probabilities for PG models.
struct Decision {
  int action = 0;
  float score_wait = 0.0f;
  float score_submit = 0.0f;
  std::uint64_t model_version = 0;
};

/// A loaded model plus its provenance. Inference serializes on an internal
/// mutex (the dual-head model caches activations), so a snapshot is safe
/// to share across threads; the batched engine amortizes that lock over
/// whole batches. infer_into is virtual so harnesses (e.g. the serve soak
/// bench) can substitute an allocation-free stub, with a null model, and
/// audit the service layer in isolation from the NN forward.
class ServableModel {
 public:
  ServableModel(ModelKey key, core::CheckpointInfo info, std::string path, std::uint64_t version,
                std::unique_ptr<nn::DualHeadModel> model)
      : key_(std::move(key)),
        info_(std::move(info)),
        path_(std::move(path)),
        version_(version),
        model_(std::move(model)) {}
  virtual ~ServableModel() = default;

  const ModelKey& key() const { return key_; }
  const core::CheckpointInfo& info() const { return info_; }
  const std::string& path() const { return path_; }
  std::uint64_t version() const { return version_; }
  bool is_dqn() const { return info_.kind == "dqn"; }
  std::size_t observation_dim() const { return info_.history_len * info_.state_dim; }

  /// Batched decision pass: one forward over all observations. Each
  /// observation is the flattened [k * state_dim] model input; the action
  /// channel is overwritten per model kind (±1 rows for the DQN Q-head,
  /// 0 for the PG P-head). Per-row results are bitwise identical to a
  /// B=1 pass over the same observation.
  std::vector<Decision> infer(const std::vector<std::vector<float>>& observations) const;

  /// Same pass writing into a caller-owned buffer (resized to match); the
  /// batched engine reuses one buffer across ticks so the decision vector
  /// itself never churns the heap. The default NN-backed implementation
  /// still allocates tensors inside the forward; an override (soak-bench
  /// stub) can be fully allocation-free.
  virtual void infer_into(const std::vector<std::vector<float>>& observations,
                          std::vector<Decision>& out) const;

 private:
  ModelKey key_;
  core::CheckpointInfo info_;
  std::string path_;
  std::uint64_t version_;
  std::unique_ptr<nn::DualHeadModel> model_;
  mutable std::mutex infer_mutex_;  ///< forward caches are not reentrant
};

using ModelSnapshot = std::shared_ptr<const ServableModel>;

struct RegistryConfig {
  /// Architecture knobs that are not part of the checkpoint header
  /// (num_heads, num_layers, ffn_hidden, moe_top1). Header fields
  /// (history_len, state_dim, d_model, moe_experts) always come from the
  /// checkpoint itself; a parameter-shape mismatch against these defaults
  /// is rejected at load time by nn::deserialize_params.
  nn::FoundationConfig net_defaults;
  /// Reject checkpoints whose per-frame width differs from the serving
  /// state encoder (rl::kFrameDim unless a caller overrides it).
  std::size_t expected_state_dim;

  RegistryConfig();
};

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig config = {});

  struct LoadResult {
    bool ok = false;
    ModelKey key;
    std::uint64_t version = 0;
    std::string error;
  };

  /// Load (or hot-reload) one checkpoint file under the given cluster
  /// name. On success the (cluster, kind, foundation) entry atomically
  /// points at the new model; on failure the registry is untouched.
  LoadResult load_file(const std::string& path, const std::string& cluster);

  /// Load every "*.ckpt" file in `dir` (cluster parsed from the filename);
  /// returns the number successfully loaded. Invalid checkpoints are
  /// skipped (collect errors via the optional out-param).
  std::size_t scan_directory(const std::string& dir, std::vector<LoadResult>* results = nullptr);

  /// Current snapshot for a key; nullptr when absent. The snapshot stays
  /// valid (and servable) even if the entry is reloaded or erased.
  ModelSnapshot lookup(const ModelKey& key) const;
  /// First snapshot matching (cluster, method) over any foundation.
  ModelSnapshot find(const std::string& cluster, const std::string& method) const;

  std::vector<ModelKey> keys() const;
  std::size_t size() const;
  bool erase(const ModelKey& key);

  const RegistryConfig& config() const { return config_; }

  /// Attach a WAL promotion log: every subsequent successful load_file is
  /// journaled (cluster + checkpoint path), so a restarted service can
  /// recover_promotions() and reload the last promoted checkpoint per key
  /// instead of starting empty. false + diagnostic if the log directory
  /// cannot be opened.
  bool attach_promotion_log(const std::string& dir, const util::wal::WalOptions& options = {},
                            std::string* error = nullptr);

  /// Replay a promotion log into this registry: for each (cluster, path)
  /// pair the LAST promotion wins and is re-loaded via load_file (skipping
  /// earlier superseded entries). Checkpoints that vanished from disk are
  /// reported as failed LoadResults, not fatal errors — recovery restores
  /// what it can. Re-loads are not re-journaled. Returns the number of
  /// models successfully restored.
  std::size_t recover_promotions(const std::string& dir,
                                 std::vector<LoadResult>* results = nullptr,
                                 std::string* error = nullptr);

 private:
  bool journal_promotion(const std::string& cluster, const std::string& path);

  RegistryConfig config_;
  mutable std::shared_mutex mutex_;
  std::map<ModelKey, ModelSnapshot> models_;
  std::atomic<std::uint64_t> next_version_{1};
  std::mutex promotion_mutex_;
  util::wal::Writer promotion_log_;
  bool replaying_ = false;  ///< suppress re-journaling during recovery
};

/// "v100__moe_dqn.ckpt" -> "v100"; no "__" -> whole stem.
std::string cluster_from_filename(const std::string& path);

}  // namespace mirage::serve
