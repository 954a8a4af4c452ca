// Foundation models (paper §4.6-4.7): a transformer encoder over the k-step
// state history, and an MoE ensemble of such encoders with a softmax gate.
//
// Input convention (paper §4.3): a batch of flattened state matrices,
// [B, k*(m+1)] where each of the k frames is the m=40 state variables plus
// the ordinal action variable (+1 submit / -1 no-submit for the Q-head,
// always 0 for the P-head). The foundation embeds each frame, adds
// sinusoidal positions, runs encoder layers and mean-pools to [B, d_model].
#pragma once

#include <memory>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layers.hpp"

namespace mirage::nn {

struct FoundationConfig {
  std::size_t history_len = 24;  ///< k; paper default 144 (10-min x 24 h)
  std::size_t state_dim = 41;    ///< m+1 (40 state vars + action ordinal)
  std::size_t d_model = 32;
  std::size_t num_heads = 2;
  std::size_t num_layers = 2;
  std::size_t ffn_hidden = 64;
  // MoE-only knobs.
  std::size_t moe_experts = 4;   ///< paper default 10
  bool moe_top1 = false;         ///< Top-1 sparse gate vs dense weighted average

  std::size_t input_dim() const { return history_len * state_dim; }
};

/// Abstract foundation: [B, k*(m+1)] -> pooled [B, d_model].
class Foundation : public Module {
 public:
  virtual const FoundationConfig& config() const = 0;
  /// Deep copy (independent parameters and caches).
  virtual std::unique_ptr<Foundation> clone() const = 0;
};

/// Pre-LN transformer encoder layer: x += MHSA(LN(x)); x += FFN(LN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(std::size_t seq_len, std::size_t d_model, std::size_t num_heads,
                          std::size_t ffn_hidden, util::Rng& rng, const std::string& name);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;

 private:
  LayerNorm ln1_, ln2_;
  MultiHeadSelfAttention attn_;
  Linear ffn1_, ffn2_;
  GELU gelu_;
};

class TransformerFoundation : public Foundation {
 public:
  TransformerFoundation(FoundationConfig config, std::uint64_t seed,
                        const std::string& name = "tf");
  TransformerFoundation(const TransformerFoundation& other);
  TransformerFoundation& operator=(const TransformerFoundation&) = delete;

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  const FoundationConfig& config() const override { return config_; }
  std::unique_ptr<Foundation> clone() const override;

 private:
  FoundationConfig config_;
  std::string name_;
  std::uint64_t seed_;
  Linear embed_;
  Tensor positional_;  ///< [k, d_model] sinusoidal table (not trained)
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  LayerNorm final_ln_;
  std::size_t batch_ = 0;
};

/// Mixture of transformer experts with a softmax gate over the mean frame
/// (paper Eq. 7 / Fig 6). Dense mode combines all experts with the gate
/// weights; Top-1 mode routes each sample to its argmax expert (selection
/// semantics).
///
/// Training evaluates every expert on every row: the straight-through
/// gate gradient needs each expert's output. Inference runs an expert only
/// on the rows its gate weight is nonzero for (every row under a dense
/// gate, its routed rows under Top-1). Rows are independent in every
/// expert kernel, so both give the same bits; Top-1 inference does about
/// 1/E of the expert compute.
class MoEFoundation : public Foundation {
 public:
  MoEFoundation(FoundationConfig config, std::uint64_t seed, const std::string& name = "moe");
  MoEFoundation(const MoEFoundation& other);
  MoEFoundation& operator=(const MoEFoundation&) = delete;

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;
  const FoundationConfig& config() const override { return config_; }
  std::unique_ptr<Foundation> clone() const override;

  std::size_t num_experts() const { return experts_.size(); }

 private:
  /// Mean frame per item: [B, state_dim] (the gate's input).
  Tensor mean_frames(const Tensor& x) const;

  FoundationConfig config_;
  std::string name_;
  Linear gate_;
  std::vector<std::unique_ptr<TransformerFoundation>> experts_;
  // Caches of the last forward(x, true).
  Tensor gate_probs_;               ///< [B, E] (post-softmax or one-hot)
  Tensor gate_soft_;                ///< [B, E] softmax (for top-1 backward)
  std::vector<Tensor> expert_out_;  ///< per expert: [B, d_model]
};

enum class FoundationType { kTransformer, kMoE };

std::unique_ptr<Foundation> make_foundation(FoundationType type, const FoundationConfig& config,
                                            std::uint64_t seed);

}  // namespace mirage::nn
