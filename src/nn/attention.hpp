// Multi-head self-attention over fixed-length sequences.
//
// Activation convention inside the encoder: a batch of B sequences of
// length S with model width D is stored as a [B*S, D] tensor (row r
// belongs to item r/S, position r%S). Attention is the only layer that
// needs to know S; everything else is row-wise.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace mirage::nn {

class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::size_t seq_len, std::size_t d_model, std::size_t num_heads,
                         util::Rng& rng, const std::string& name = "mhsa");

  /// x: [B*S, D] -> [B*S, D].
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  /// The same, with the attention core at the lane width of `isa` (tests
  /// run each; every ISA gives the same bits).
  Tensor forward(const Tensor& x, bool train, simd::Isa isa);
  Tensor backward(const Tensor& grad_out, simd::Isa isa);
  void collect_params(std::vector<Parameter*>& out) override;

  std::size_t seq_len() const { return seq_; }
  std::size_t num_heads() const { return heads_; }

 private:
  std::size_t seq_, d_model_, heads_, d_head_;
  Linear wq_, wk_, wv_, wo_;
  // Caches for backward.
  Tensor q_, k_, v_;  ///< [B*S, D]
  Tensor attn_;       ///< [B*H*S, S]: the [S, S] softmax weights of each (item, head)
  std::size_t batch_ = 0;
};

}  // namespace mirage::nn
