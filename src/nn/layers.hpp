// Core layers: Linear, activations, LayerNorm, Dropout, Sequential.
#pragma once

#include <memory>

#include "nn/module.hpp"
#include "nn/simd.hpp"

namespace mirage::nn {

// Elementwise kernels behind Tanh and GELU. `isa` pins the lane width
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

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
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

class Tanh : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_output_;
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

/// Inverted dropout; identity in eval mode. Deterministic given its RNG.
class Dropout : public Module {
 public:
  Dropout(float p, util::Rng rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  float p_;
  util::Rng rng_;
  Tensor mask_;
  bool active_ = false;
};

/// Runs children in order; owns them.
class Sequential : public Module {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Module> m) { children_.push_back(std::move(m)); }
  std::size_t size() const { return children_.size(); }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Parameter*>& out) override;

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace mirage::nn
