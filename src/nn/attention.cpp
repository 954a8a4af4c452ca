#include "nn/attention.hpp"

#include <cassert>
#include <cmath>

namespace mirage::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t seq_len, std::size_t d_model,
                                               std::size_t num_heads, util::Rng& rng,
                                               const std::string& name)
    : seq_(seq_len),
      d_model_(d_model),
      heads_(num_heads),
      d_head_(d_model / num_heads),
      wq_(d_model, d_model, rng, name + ".wq"),
      wk_(d_model, d_model, rng, name + ".wk"),
      wv_(d_model, d_model, rng, name + ".wv"),
      wo_(d_model, d_model, rng, name + ".wo") {
  assert(d_model % num_heads == 0);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, bool train) {
  assert(x.cols() == d_model_ && x.rows() % seq_ == 0);
  batch_ = x.rows() / seq_;
  Tensor q = wq_.forward(x, train);
  Tensor k = wk_.forward(x, train);
  Tensor v = wv_.forward(x, train);

  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));
  // Training keeps every (item, head) softmax for backward; inference
  // reuses one score matrix.
  if (train) attn_.assign(batch_ * heads_, Tensor(seq_, seq_));
  Tensor scratch(train ? 0 : seq_, train ? 0 : seq_);
  Tensor concat(x.rows(), d_model_);

  for (std::size_t b = 0; b < batch_; ++b) {
    const std::size_t base = b * seq_;
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t off = h * d_head_;
      Tensor& scores = train ? attn_[b * heads_ + h] : scratch;
      // scores[s,t] = <Q[s], K[t]> / sqrt(d_head)
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* qr = q.row(base + s) + off;
        float* sr = scores.row(s);
        for (std::size_t t = 0; t < seq_; ++t) {
          const float* kr = k.row(base + t) + off;
          float acc = 0.0f;
          for (std::size_t d = 0; d < d_head_; ++d) acc += qr[d] * kr[d];
          sr[t] = acc * inv_sqrt;
        }
      }
      softmax_rows(scores);
      // out[s] = sum_t attn[s,t] * V[t]
      for (std::size_t s = 0; s < seq_; ++s) {
        float* out = concat.row(base + s) + off;
        const float* ar = scores.row(s);
        for (std::size_t d = 0; d < d_head_; ++d) out[d] = 0.0f;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float a = ar[t];
          if (a == 0.0f) continue;
          const float* vr = v.row(base + t) + off;
          for (std::size_t d = 0; d < d_head_; ++d) out[d] += a * vr[d];
        }
      }
    }
  }
  if (train) {
    q_ = std::move(q);
    k_ = std::move(k);
    v_ = std::move(v);
  }
  return wo_.forward(concat, train);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  // Through the output projection first.
  Tensor d_concat = wo_.backward(grad_out);

  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Tensor dq(q_.rows(), d_model_), dk(k_.rows(), d_model_), dv(v_.rows(), d_model_);

  for (std::size_t b = 0; b < batch_; ++b) {
    const std::size_t base = b * seq_;
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t off = h * d_head_;
      const Tensor& attn = attn_[b * heads_ + h];

      // dV[t] += sum_s attn[s,t] * d_out[s]
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* go = d_concat.row(base + s) + off;
        const float* ar = attn.row(s);
        for (std::size_t t = 0; t < seq_; ++t) {
          const float a = ar[t];
          if (a == 0.0f) continue;
          float* dvr = dv.row(base + t) + off;
          for (std::size_t d = 0; d < d_head_; ++d) dvr[d] += a * go[d];
        }
      }

      // d_attn[s,t] = <d_out[s], V[t]>; softmax backward row-wise;
      // dQ[s] += dscores[s,t] * K[t] * inv_sqrt; dK[t] += dscores[s,t] * Q[s] * inv_sqrt.
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* go = d_concat.row(base + s) + off;
        const float* ar = attn.row(s);
        d_attn_.assign(seq_, 0.0f);  // reused scratch: no per-row allocation
        float* d_attn = d_attn_.data();
        // Same 4-row blocking as the forward scores: independent chains
        // per (s,t) dot, bitwise-identical sums.
        std::size_t tb = 0;
        for (; tb + 4 <= seq_; tb += 4) {
          const float* v0 = v_.row(base + tb) + off;
          const float* v1 = v_.row(base + tb + 1) + off;
          const float* v2 = v_.row(base + tb + 2) + off;
          const float* v3 = v_.row(base + tb + 3) + off;
          float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
          for (std::size_t d = 0; d < d_head_; ++d) {
            const float gv = go[d];
            a0 += gv * v0[d];
            a1 += gv * v1[d];
            a2 += gv * v2[d];
            a3 += gv * v3[d];
          }
          d_attn[tb] = a0;
          d_attn[tb + 1] = a1;
          d_attn[tb + 2] = a2;
          d_attn[tb + 3] = a3;
        }
        for (; tb < seq_; ++tb) {
          const float* vr = v_.row(base + tb) + off;
          float acc = 0.0f;
          for (std::size_t d = 0; d < d_head_; ++d) acc += go[d] * vr[d];
          d_attn[tb] = acc;
        }
        float dot = 0.0f;
        for (std::size_t t = 0; t < seq_; ++t) dot += d_attn[t] * ar[t];
        float* dqr = dq.row(base + s) + off;
        const float* qr = q_.row(base + s) + off;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float ds = ar[t] * (d_attn[t] - dot) * inv_sqrt;
          if (ds == 0.0f) continue;
          const float* kr = k_.row(base + t) + off;
          float* dkr = dk.row(base + t) + off;
          for (std::size_t d = 0; d < d_head_; ++d) {
            dqr[d] += ds * kr[d];
            dkr[d] += ds * qr[d];
          }
        }
      }
    }
  }

  Tensor dx = wq_.backward(dq);
  dx.add(wk_.backward(dk));
  dx.add(wv_.backward(dv));
  return dx;
}

void MultiHeadSelfAttention::collect_params(std::vector<Parameter*>& out) {
  wq_.collect_params(out);
  wk_.collect_params(out);
  wv_.collect_params(out);
  wo_.collect_params(out);
}

}  // namespace mirage::nn
