// Core layers: Linear, GELU, LayerNorm.
#pragma once

#include "nn/module.hpp"
#include "nn/simd.hpp"

namespace mirage::nn {

// Elementwise kernels behind GELU. `isa` pins the lane width
// (tests and benches run each one); every ISA gives the same bits.
//
// tanh is a branch-free, lane-parallel port of fdlibm's tanhf/expm1f (the
// code glibc shipped up to 2.40), special classes (0, |x| < 2^-55,
// |x| >= 22, inf, NaN) included, so an element's bits depend neither on
// its lane position nor on the libm the program links.

/// y[i] = tanh(x[i]).
void tanh(const float* x, float* y, std::size_t n, simd::Isa isa = simd::active_isa());
/// y[i] = GELU(x[i]), tanh approximation.
void gelu_forward(const float* x, float* y, std::size_t n,
                  simd::Isa isa = simd::active_isa());
/// grad[i] *= GELU'(x[i]).
void gelu_backward(const float* x, float* grad, std::size_t n,
                   simd::Isa isa = simd::active_isa());

/// y = x W^T + b, x: [batch, in], W: [out, in], b: [1, out].
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
         const std::string& name = "linear");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  std::size_t in_, out_;
  Parameter w_, b_;
  Tensor cached_input_;
};

/// GELU with the tanh approximation (as in BERT/GPT).
class GELU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_input_;
};

/// Per-row layer normalization with learned gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t dim, const std::string& name = "ln", float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;

 private:
  std::size_t dim_;
  float eps_;
  Parameter gamma_, beta_;
  Tensor cached_norm_;     ///< normalized input (pre gain/bias)
  Tensor cached_inv_std_;  ///< 1/sigma per row
};

}  // namespace mirage::nn
