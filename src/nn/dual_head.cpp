#include "nn/dual_head.hpp"

#include <cassert>

namespace mirage::nn {

namespace {
Linear make_head(std::size_t in, std::size_t out, std::uint64_t seed, const std::string& name) {
  util::Rng rng(seed);
  return Linear(in, out, rng, name);
}
}  // namespace

DualHeadModel::DualHeadModel(FoundationType type, FoundationConfig config, std::uint64_t seed)
    : type_(type),
      foundation_(make_foundation(type, config, seed)),
      v_head_(make_head(config.d_model, 1, seed ^ 0x5ead1, "v_head")),
      p_head_(make_head(config.d_model, 2, seed ^ 0x5ead2, "p_head")) {}

DualHeadModel::DualHeadModel(const DualHeadModel& other)
    : type_(other.type_),
      foundation_(other.foundation_->clone()),
      v_head_(other.v_head_),
      p_head_(other.p_head_) {}

Tensor DualHeadModel::forward_q(const Tensor& x, bool train) {
  Tensor pooled = foundation_->forward(x, train);
  return v_head_.forward(pooled, train);
}

void DualHeadModel::backward_q(const Tensor& grad) {
  Tensor d = v_head_.backward(grad);
  foundation_->backward(d);
}

Tensor DualHeadModel::forward_policy(const Tensor& x, bool train) {
  Tensor pooled = foundation_->forward(x, train);
  Tensor logits = p_head_.forward(pooled, train);
  softmax_rows(logits);
  return logits;
}

void DualHeadModel::backward_policy_logits(const Tensor& grad) {
  Tensor d = p_head_.backward(grad);
  foundation_->backward(d);
}

std::vector<Parameter*> DualHeadModel::parameters() {
  std::vector<Parameter*> out;
  foundation_->collect_params(out);
  v_head_.collect_params(out);
  p_head_.collect_params(out);
  return out;
}

std::vector<Parameter*> DualHeadModel::q_parameters() {
  std::vector<Parameter*> out;
  foundation_->collect_params(out);
  v_head_.collect_params(out);
  return out;
}

std::vector<Parameter*> DualHeadModel::policy_parameters() {
  std::vector<Parameter*> out;
  foundation_->collect_params(out);
  p_head_.collect_params(out);
  return out;
}

void DualHeadModel::copy_params_from(const DualHeadModel& other) {
  std::vector<Parameter*> dst = parameters();
  std::vector<Parameter*> src = const_cast<DualHeadModel&>(other).parameters();
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    assert(dst[i]->value.size() == src[i]->value.size());
    dst[i]->value = src[i]->value;
  }
}

}  // namespace mirage::nn
