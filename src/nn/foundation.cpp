#include "nn/foundation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mirage::nn {

// ------------------------------------------------- TransformerEncoderLayer

TransformerEncoderLayer::TransformerEncoderLayer(std::size_t seq_len, std::size_t d_model,
                                                 std::size_t num_heads, std::size_t ffn_hidden,
                                                 util::Rng& rng, const std::string& name)
    : ln1_(d_model, name + ".ln1"),
      ln2_(d_model, name + ".ln2"),
      attn_(seq_len, d_model, num_heads, rng, name + ".attn"),
      ffn1_(d_model, ffn_hidden, rng, name + ".ffn1"),
      ffn2_(ffn_hidden, d_model, rng, name + ".ffn2") {
  // Two draws that once seeded dropout, kept so later init bits stay put.
  rng.split();
  rng.split();
}

Tensor TransformerEncoderLayer::forward(const Tensor& x, bool train) {
  // Pre-LN residual blocks keep gradients stable for shallow-but-trained-
  // from-scratch encoders.
  Tensor h = x;
  h.add(attn_.forward(ln1_.forward(x, train), train));
  Tensor out = h;
  out.add(ffn2_.forward(gelu_.forward(ffn1_.forward(ln2_.forward(h, train), train), train), train));
  return out;
}

Tensor TransformerEncoderLayer::backward(const Tensor& grad_out) {
  // FFN block: out = h + FFN(LN2(h))
  Tensor d_h = grad_out;
  {
    Tensor d = ffn2_.backward(grad_out);
    d = gelu_.backward(d);
    d = ffn1_.backward(d);
    d = ln2_.backward(d);
    d_h.add(d);
  }
  // Attention block: h = x + Attn(LN1(x))
  Tensor d_x = d_h;
  {
    Tensor d = attn_.backward(d_h);
    d = ln1_.backward(d);
    d_x.add(d);
  }
  return d_x;
}

void TransformerEncoderLayer::collect_params(std::vector<Parameter*>& out) {
  ln1_.collect_params(out);
  attn_.collect_params(out);
  ln2_.collect_params(out);
  ffn1_.collect_params(out);
  ffn2_.collect_params(out);
}

// ---------------------------------------------------- TransformerFoundation

namespace {
Tensor make_positional_table(std::size_t seq_len, std::size_t d_model) {
  Tensor pe(seq_len, d_model);
  for (std::size_t pos = 0; pos < seq_len; ++pos) {
    for (std::size_t i = 0; i < d_model; ++i) {
      const double angle =
          static_cast<double>(pos) /
          std::pow(10000.0, 2.0 * static_cast<double>(i / 2) / static_cast<double>(d_model));
      pe.at(pos, i) = static_cast<float>((i % 2 == 0) ? std::sin(angle) : std::cos(angle));
    }
  }
  return pe;
}

util::Rng seeded_rng(std::uint64_t seed) { return util::Rng(seed); }
}  // namespace

TransformerFoundation::TransformerFoundation(FoundationConfig config, std::uint64_t seed,
                                             const std::string& name)
    : config_(config),
      name_(name),
      seed_(seed),
      embed_([&] {
        util::Rng rng = seeded_rng(seed);
        return Linear(config.state_dim, config.d_model, rng, name + ".embed");
      }()),
      positional_(make_positional_table(config.history_len, config.d_model)),
      final_ln_(config.d_model, name + ".final_ln") {
  util::Rng rng = seeded_rng(seed ^ 0xabcdef12345ull);
  // Re-init the embedding with the layer rng so the lambda trick above only
  // sets shapes deterministically.
  init_xavier_uniform(embed_.weight().value, config.state_dim, config.d_model, rng);
  layers_.reserve(config.num_layers);
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        config.history_len, config.d_model, config.num_heads, config.ffn_hidden, rng,
        name + ".layer" + std::to_string(l)));
  }
}

TransformerFoundation::TransformerFoundation(const TransformerFoundation& other)
    : TransformerFoundation(other.config_, other.seed_, other.name_) {
  // Copy trained parameter values (layer construction re-randomizes).
  std::vector<Parameter*> dst, src;
  collect_params(dst);
  const_cast<TransformerFoundation&>(other).collect_params(src);
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i]->value = src[i]->value;
}

std::unique_ptr<Foundation> TransformerFoundation::clone() const {
  return std::make_unique<TransformerFoundation>(*this);
}

Tensor TransformerFoundation::forward(const Tensor& x, bool train) {
  const std::size_t k = config_.history_len;
  const std::size_t m = config_.state_dim;
  assert(x.cols() == k * m);
  batch_ = x.rows();

  // Unfold [B, k*m] into frames [B*k, m].
  Tensor frames(batch_ * k, m);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = x.row(b);
    for (std::size_t s = 0; s < k; ++s) {
      float* dst = frames.row(b * k + s);
      for (std::size_t c = 0; c < m; ++c) dst[c] = src[s * m + c];
    }
  }

  Tensor h = embed_.forward(frames, train);
  // Add positional encoding per frame index.
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t s = 0; s < k; ++s) {
      float* row = h.row(b * k + s);
      const float* pe = positional_.row(s);
      for (std::size_t c = 0; c < config_.d_model; ++c) row[c] += pe[c];
    }
  }

  for (auto& layer : layers_) h = layer->forward(h, train);
  h = final_ln_.forward(h, train);

  // Mean-pool each item's k frames -> [B, d_model].
  Tensor pooled(batch_, config_.d_model);
  const float inv_k = 1.0f / static_cast<float>(k);
  for (std::size_t b = 0; b < batch_; ++b) {
    float* out = pooled.row(b);
    for (std::size_t s = 0; s < k; ++s) {
      const float* row = h.row(b * k + s);
      for (std::size_t c = 0; c < config_.d_model; ++c) out[c] += row[c] * inv_k;
    }
  }
  return pooled;
}

Tensor TransformerFoundation::backward(const Tensor& grad_out) {
  const std::size_t k = config_.history_len;
  const std::size_t m = config_.state_dim;
  assert(grad_out.rows() == batch_ && grad_out.cols() == config_.d_model);

  // Un-pool: every frame of item b receives grad/k.
  Tensor d_h(batch_ * k, config_.d_model);
  const float inv_k = 1.0f / static_cast<float>(k);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* g = grad_out.row(b);
    for (std::size_t s = 0; s < k; ++s) {
      float* row = d_h.row(b * k + s);
      for (std::size_t c = 0; c < config_.d_model; ++c) row[c] = g[c] * inv_k;
    }
  }

  d_h = final_ln_.backward(d_h);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) d_h = (*it)->backward(d_h);
  // Positional table is constant: gradient passes through unchanged.
  Tensor d_frames = embed_.backward(d_h);

  // Fold frame grads back to [B, k*m].
  Tensor dx(batch_, k * m);
  for (std::size_t b = 0; b < batch_; ++b) {
    float* dst = dx.row(b);
    for (std::size_t s = 0; s < k; ++s) {
      const float* src = d_frames.row(b * k + s);
      for (std::size_t c = 0; c < m; ++c) dst[s * m + c] = src[c];
    }
  }
  return dx;
}

void TransformerFoundation::collect_params(std::vector<Parameter*>& out) {
  embed_.collect_params(out);
  for (auto& l : layers_) l->collect_params(out);
  final_ln_.collect_params(out);
}

// ------------------------------------------------------------ MoEFoundation

MoEFoundation::MoEFoundation(FoundationConfig config, std::uint64_t seed, const std::string& name)
    : config_(config), name_(name), gate_([&] {
        util::Rng rng = seeded_rng(seed ^ 0x6a7e);
        return Linear(config.state_dim, config.moe_experts, rng, name + ".gate");
      }()) {
  experts_.reserve(config.moe_experts);
  for (std::size_t e = 0; e < config.moe_experts; ++e) {
    experts_.push_back(std::make_unique<TransformerFoundation>(
        config, seed + 0x1000 * (e + 1), name + ".expert" + std::to_string(e)));
  }
}

MoEFoundation::MoEFoundation(const MoEFoundation& other)
    : config_(other.config_), name_(other.name_), gate_(other.gate_) {
  experts_.reserve(other.experts_.size());
  for (const auto& e : other.experts_) {
    experts_.push_back(std::make_unique<TransformerFoundation>(*e));
  }
}

std::unique_ptr<Foundation> MoEFoundation::clone() const {
  return std::make_unique<MoEFoundation>(*this);
}

Tensor MoEFoundation::mean_frames(const Tensor& x) const {
  const std::size_t k = config_.history_len;
  const std::size_t m = config_.state_dim;
  Tensor mean(x.rows(), m);
  const float inv_k = 1.0f / static_cast<float>(k);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const float* src = x.row(b);
    float* dst = mean.row(b);
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t c = 0; c < m; ++c) dst[c] += src[s * m + c] * inv_k;
    }
  }
  return mean;
}

Tensor MoEFoundation::forward(const Tensor& x, bool train) {
  Tensor soft = gate_.forward(mean_frames(x), train);
  softmax_rows(soft);
  Tensor probs = soft;
  if (config_.moe_top1) {
    // One-hot on the argmax expert (selection semantics of Top-1 routing).
    for (std::size_t b = 0; b < probs.rows(); ++b) {
      float* row = probs.row(b);
      std::size_t best = 0;
      for (std::size_t e = 1; e < experts_.size(); ++e) {
        if (row[e] > row[best]) best = e;
      }
      for (std::size_t e = 0; e < experts_.size(); ++e) row[e] = (e == best) ? 1.0f : 0.0f;
    }
  }

  const std::size_t batch = x.rows();
  if (train) expert_out_.resize(experts_.size());
  Tensor out(batch, config_.d_model);
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    std::size_t routed = 0;
    for (std::size_t b = 0; b < batch; ++b) routed += probs.at(b, e) != 0.0f;
    // At inference an expert sees only its routed rows, gathered in row
    // order; every row routed (or training) means no gather.
    const bool gather = !train && routed < batch;
    if (gather && routed == 0) continue;
    Tensor eo;
    if (gather) {
      Tensor sub(routed, x.cols());
      for (std::size_t b = 0, i = 0; b < batch; ++b) {
        if (probs.at(b, e) != 0.0f) std::copy(x.row(b), x.row(b) + x.cols(), sub.row(i++));
      }
      eo = experts_[e]->forward(sub, /*train=*/false);
    } else {
      eo = experts_[e]->forward(x, train);
    }
    for (std::size_t b = 0, i = 0; b < batch; ++b) {
      const float g = probs.at(b, e);
      if (g == 0.0f) continue;
      float* o = out.row(b);
      const float* eo_row = eo.row(gather ? i++ : b);
      for (std::size_t c = 0; c < config_.d_model; ++c) o[c] += g * eo_row[c];
    }
    if (train) expert_out_[e] = std::move(eo);
  }
  if (train) {
    gate_soft_ = std::move(soft);
    gate_probs_ = std::move(probs);
  }
  return out;
}

Tensor MoEFoundation::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.rows();
  const std::size_t ne = experts_.size();

  // d gate_probs[b,e] = <expert_out_e[b], grad_out[b]>.
  Tensor d_gate_probs(batch, ne);
  for (std::size_t e = 0; e < ne; ++e) {
    for (std::size_t b = 0; b < batch; ++b) {
      const float* eo = expert_out_[e].row(b);
      const float* g = grad_out.row(b);
      float acc = 0.0f;
      for (std::size_t c = 0; c < config_.d_model; ++c) acc += eo[c] * g[c];
      d_gate_probs.at(b, e) = acc;
    }
  }

  // Softmax backward into gate logits. In Top-1 mode, gradient flows
  // through the soft probabilities (straight-through on the selection).
  Tensor d_logits(batch, ne);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* p = gate_soft_.row(b);
    const float* dp = d_gate_probs.row(b);
    float dot = 0.0f;
    for (std::size_t e = 0; e < ne; ++e) dot += p[e] * dp[e];
    float* dl = d_logits.row(b);
    for (std::size_t e = 0; e < ne; ++e) dl[e] = p[e] * (dp[e] - dot);
  }
  Tensor d_mean = gate_.backward(d_logits);

  // Experts: each receives g_e-scaled output grad.
  Tensor dx(batch, config_.input_dim());
  for (std::size_t e = 0; e < ne; ++e) {
    Tensor d_out_e(batch, config_.d_model);
    bool any = false;
    for (std::size_t b = 0; b < batch; ++b) {
      const float g = gate_probs_.at(b, e);
      if (g == 0.0f) continue;
      any = true;
      const float* go = grad_out.row(b);
      float* d = d_out_e.row(b);
      for (std::size_t c = 0; c < config_.d_model; ++c) d[c] = g * go[c];
    }
    if (!any) continue;
    dx.add(experts_[e]->backward(d_out_e));
  }

  // Gate input is the frame mean: spread d_mean/k over every frame slot.
  const std::size_t k = config_.history_len;
  const std::size_t m = config_.state_dim;
  const float inv_k = 1.0f / static_cast<float>(k);
  for (std::size_t b = 0; b < batch; ++b) {
    float* d = dx.row(b);
    const float* dm = d_mean.row(b);
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t c = 0; c < m; ++c) d[s * m + c] += dm[c] * inv_k;
    }
  }
  return dx;
}

void MoEFoundation::collect_params(std::vector<Parameter*>& out) {
  gate_.collect_params(out);
  for (auto& e : experts_) e->collect_params(out);
}

std::unique_ptr<Foundation> make_foundation(FoundationType type, const FoundationConfig& config,
                                            std::uint64_t seed) {
  switch (type) {
    case FoundationType::kTransformer:
      return std::make_unique<TransformerFoundation>(config, seed);
    case FoundationType::kMoE:
      return std::make_unique<MoEFoundation>(config, seed);
  }
  return nullptr;
}

}  // namespace mirage::nn
