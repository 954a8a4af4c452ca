// Dual-head architecture (paper §4, Fig 5): one shared foundation model
// with a V-head (Q-value regression, state-action input) and a P-head
// (action-probability output, state-only input). The two heads are trained
// independently (§4.9); only one head participates in any given
// forward/backward pair.
#pragma once

#include <memory>

#include "nn/foundation.hpp"

namespace mirage::nn {

class DualHeadModel {
 public:
  DualHeadModel(FoundationType type, FoundationConfig config, std::uint64_t seed);
  DualHeadModel(const DualHeadModel& other);
  DualHeadModel& operator=(const DualHeadModel&) = delete;

  const FoundationConfig& config() const { return foundation_->config(); }
  FoundationType type() const { return type_; }

  /// Q-head: x is [B, k*(m+1)] with the action ordinal baked into the
  /// frames; returns [B, 1] Q-values.
  Tensor forward_q(const Tensor& x, bool train = false);
  /// Backward for the last forward_q; grad is dL/dQ [B,1].
  void backward_q(const Tensor& grad);

  /// P-head: x is [B, k*(m+1)] with the action channel zeroed; returns
  /// [B, 2] action probabilities (softmax over {no-submit, submit}).
  Tensor forward_policy(const Tensor& x, bool train = false);
  /// Backward for the last forward_policy; grad is dL/d(logits) [B,2].
  void backward_policy_logits(const Tensor& grad);

  /// All trainable parameters: foundation + both heads.
  std::vector<Parameter*> parameters();
  /// Parameters touched by Q-head training (foundation + V-head).
  std::vector<Parameter*> q_parameters();
  /// Parameters touched by P-head training (foundation + P-head).
  std::vector<Parameter*> policy_parameters();

  /// Copy parameter values from a same-architecture model (target network
  /// sync, rollout workers).
  void copy_params_from(const DualHeadModel& other);

  /// Direct access to the policy head (e.g. to bias its initial logits: a
  /// freshly initialized head submits ~50% of the time, which ends every
  /// rollout immediately and starves REINFORCE of contrast).
  Linear& policy_head() { return p_head_; }

 private:
  FoundationType type_;
  std::unique_ptr<Foundation> foundation_;
  Linear v_head_;
  Linear p_head_;
};

}  // namespace mirage::nn
