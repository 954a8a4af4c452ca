// Layer-graph module framework: each module owns its parameters and caches
// whatever activations its backward pass needs. This is sufficient for the
// static architectures in Mirage (transformer / MoE encoders with MLP
// heads) and avoids the complexity of a full autograd tape.
//
// All modules are value types (deep copy = clone), so parallel rollout
// workers can hold independent snapshots of a policy.
#pragma once

#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace mirage::nn {

/// A trainable tensor plus its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, std::size_t rows, std::size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  void zero_grad() { grad.zero(); }
};

/// Abstract layer. forward(x, /*train=*/true) must be called before
/// backward(); forward(x, false) is inference and caches nothing for a
/// backward. backward() consumes dL/d(output) and returns dL/d(input),
/// accumulating parameter gradients (+=) so multiple micro-batches can
/// share one optimizer step.
class Module {
 public:
  virtual ~Module() = default;

  virtual Tensor forward(const Tensor& x, bool train) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Append raw pointers to this module's parameters (stable across calls;
  /// invalidated by copying/moving the module).
  virtual void collect_params(std::vector<Parameter*>& out) { (void)out; }
};

/// Zero the gradients of a parameter set.
inline void zero_grads(const std::vector<Parameter*>& params) {
  for (auto* p : params) p->zero_grad();
}

/// Total parameter count of a parameter set.
inline std::size_t param_count(const std::vector<Parameter*>& params) {
  std::size_t n = 0;
  for (auto* p : params) n += p->value.size();
  return n;
}

/// Global gradient-norm clipping; returns the pre-clip norm.
float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm);

// Weight initialization (Glorot/He uniform).
void init_xavier_uniform(Tensor& w, std::size_t fan_in, std::size_t fan_out, util::Rng& rng);
void init_he_uniform(Tensor& w, std::size_t fan_in, util::Rng& rng);

}  // namespace mirage::nn
