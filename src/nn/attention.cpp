// W=8 kernels pass vectors between always-inlined helpers: see simd.hpp.
#pragma GCC diagnostic ignored "-Wpsabi"

#include "nn/attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "nn/softmax_lanes.hpp"

namespace mirage::nn {

// ------------------------------------------------------ the attention core
//
// Per (item, head) the core is built from two products on W lanes, each
// keeping every output element's scalar arithmetic exactly, so every lane
// width gives the bits of the plain loops:
//   dots:    out[i][j] = acc * scale, with acc = +0 and acc += a[i][p] *
//            b[j][p] for ascending p. Lanes over j, read from a transposed,
//            zero-padded tile of b.
//   scatter: out[i][:] = +0, then out[i][:] += w(i, j) * tile[j][:] for
//            ascending j, skipping every j with w(i, j) == 0. Lanes over
//            the head's columns, read from a zero-padded tile.
// Both hold a block of outputs in registers across the whole reduction:
// 8 rows x 1 vector, or 4 rows x 2 vectors. Tiles live in a thread-local
// scratch that stops allocating once warm.
namespace {

template <int W>
constexpr std::size_t padded(std::size_t n) {
  return (n + W - 1) / W * W;
}

/// dst[r][c] = src[r * ld + c] for c < d, zero for d <= c < ldd.
inline void copy_tile(const float* src, std::size_t ld, std::size_t rows, std::size_t d,
                      float* dst, std::size_t ldd) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(src + r * ld, src + r * ld + d, dst + r * ldd);
    std::fill(dst + r * ldd + d, dst + (r + 1) * ldd, 0.0f);
  }
}

/// dst[c][r] = src[r * ld + c] for r < rows, zero for rows <= r < ldt.
inline void transpose_tile(const float* src, std::size_t ld, std::size_t rows, std::size_t d,
                           float* dst, std::size_t ldt) {
  for (std::size_t c = 0; c < d; ++c) {
    float* row = dst + c * ldt;
    for (std::size_t r = 0; r < rows; ++r) row[r] = src[r * ld + c];
    std::fill(row + rows, row + ldt, 0.0f);
  }
}

/// Stores the first `cols` columns of an R x NV block of accumulators.
template <int W, int R, int NV>
MIRAGE_SIMD_INLINE void store_block(const typename simd::Lanes<W>::F (&acc)[R][NV], float* out,
                                    std::size_t ldo, std::size_t cols) {
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      const std::size_t c0 = static_cast<std::size_t>(v) * W;
      if (c0 + W <= cols) {
        simd::store(out + r * ldo + c0, acc[r][v]);
      } else if (c0 < cols) {
        simd::store_n(out + r * ldo + c0, acc[r][v], cols - c0);
      }
    }
  }
}

template <int W, int R, int NV>
MIRAGE_SIMD_INLINE void dots_block(const float* a, std::size_t lda, const float* bt,
                                   std::size_t ldt, std::size_t k, float* out, std::size_t ldo,
                                   std::size_t cols, const float* scale) {
  using F = typename simd::Lanes<W>::F;
  F acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = F{};
  }
  for (std::size_t p = 0; p < k; ++p) {
    F bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = simd::load<F>(bt + p * ldt + v * W);
    for (int r = 0; r < R; ++r) {
      const F av = simd::splat<F>(a[r * lda + p]);
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  if (scale != nullptr) {
    const F s = simd::splat<F>(*scale);
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NV; ++v) acc[r][v] *= s;
    }
  }
  store_block<W, R, NV>(acc, out, ldo, cols);
}

/// out[i][j] = <a[i], b[j]> (* *scale when scale is set) for i < rows,
/// j < cols, over k terms; a has row stride lda, bt = b^T has row stride
/// ldt >= padded<W>(cols).
template <int W>
MIRAGE_SIMD_INLINE void dots(const float* a, std::size_t lda, const float* bt, std::size_t ldt,
                             std::size_t k, std::size_t rows, std::size_t cols, float* out,
                             std::size_t ldo, const float* scale) {
  for (std::size_t jb = 0; jb < cols; jb += 2 * W) {
    const std::size_t n = std::min<std::size_t>(2 * W, cols - jb);
    std::size_t i = 0;
    if (n > W) {
      for (; i + 4 <= rows; i += 4) {
        dots_block<W, 4, 2>(a + i * lda, lda, bt + jb, ldt, k, out + i * ldo + jb, ldo, n, scale);
      }
      for (; i < rows; ++i) {
        dots_block<W, 1, 2>(a + i * lda, lda, bt + jb, ldt, k, out + i * ldo + jb, ldo, n, scale);
      }
    } else {
      for (; i + 8 <= rows; i += 8) {
        dots_block<W, 8, 1>(a + i * lda, lda, bt + jb, ldt, k, out + i * ldo + jb, ldo, n, scale);
      }
      for (; i < rows; ++i) {
        dots_block<W, 1, 1>(a + i * lda, lda, bt + jb, ldt, k, out + i * ldo + jb, ldo, n, scale);
      }
    }
  }
}

template <int W, int R, int NV>
MIRAGE_SIMD_INLINE void scatter_block(const float* w, std::size_t wi, std::size_t wj,
                                      const float* tile, std::size_t ldd, std::size_t n,
                                      float* out, std::size_t ldo, std::size_t cols) {
  using F = typename simd::Lanes<W>::F;
  F acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = F{};
  }
  for (std::size_t j = 0; j < n; ++j) {
    F tv[NV];
    for (int v = 0; v < NV; ++v) tv[v] = simd::load<F>(tile + j * ldd + v * W);
    for (int r = 0; r < R; ++r) {
      const float x = w[r * wi + j * wj];
      if (x == 0.0f) continue;
      const F xv = simd::splat<F>(x);
      for (int v = 0; v < NV; ++v) acc[r][v] += xv * tv[v];
    }
  }
  store_block<W, R, NV>(acc, out, ldo, cols);
}

/// out[i][c] = sum over j < n of w[i * wi + j * wj] * tile[j][c] for
/// i < rows, c < d; tile has row stride ldd >= padded<W>(d).
template <int W>
MIRAGE_SIMD_INLINE void scatter(const float* w, std::size_t wi, std::size_t wj,
                                const float* tile, std::size_t ldd, std::size_t rows,
                                std::size_t n, std::size_t d, float* out, std::size_t ldo) {
  for (std::size_t cb = 0; cb < d; cb += 2 * W) {
    const std::size_t cols = std::min<std::size_t>(2 * W, d - cb);
    std::size_t i = 0;
    const float* t = tile + cb;
    if (cols > W) {
      for (; i + 4 <= rows; i += 4) {
        scatter_block<W, 4, 2>(w + i * wi, wi, wj, t, ldd, n, out + i * ldo + cb, ldo, cols);
      }
      for (; i < rows; ++i) {
        scatter_block<W, 1, 2>(w + i * wi, wi, wj, t, ldd, n, out + i * ldo + cb, ldo, cols);
      }
    } else {
      for (; i + 8 <= rows; i += 8) {
        scatter_block<W, 8, 1>(w + i * wi, wi, wj, t, ldd, n, out + i * ldo + cb, ldo, cols);
      }
      for (; i < rows; ++i) {
        scatter_block<W, 1, 1>(w + i * wi, wi, wj, t, ldd, n, out + i * ldo + cb, ldo, cols);
      }
    }
  }
}

/// Tensors are [B*S, H*dh] row-major; `at` below is the offset of an
/// (item, head) block. attn, when set, receives every block's [S, S]
/// softmax weights, stacked.
struct AttentionForward {
  template <int W>
  MIRAGE_SIMD_INLINE static void run(const float* q, const float* k, const float* v,
                                     float* concat, float* attn, std::size_t batch,
                                     std::size_t seq, std::size_t heads, std::size_t dh,
                                     float inv_sqrt) {
    const std::size_t d_model = heads * dh;
    const std::size_t ldt = padded<W>(seq);
    const std::size_t ldd = padded<W>(dh);
    thread_local std::vector<float> scratch(1);
    const std::size_t need = dh * ldt + seq * ldd + seq * seq;
    if (scratch.size() < need) scratch.resize(need);
    float* kt = scratch.data();
    float* vt = kt + dh * ldt;
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t h = 0; h < heads; ++h) {
        const std::size_t at = b * seq * d_model + h * dh;
        float* a = attn != nullptr ? attn + (b * heads + h) * seq * seq : vt + seq * ldd;
        // a[s, t] = softmax_t(<Q[s], K[t]> / sqrt(dh)); out[s] = sum_t a[s, t] V[t]
        transpose_tile(k + at, d_model, seq, dh, kt, ldt);
        dots<W>(q + at, d_model, kt, ldt, dh, seq, seq, a, seq, &inv_sqrt);
        simd::softmax_rows<W>(a, seq, seq);
        copy_tile(v + at, d_model, seq, dh, vt, ldd);
        scatter<W>(a, seq, 1, vt, ldd, seq, seq, dh, concat + at, d_model);
      }
    }
  }
};

struct AttentionBackward {
  template <int W>
  MIRAGE_SIMD_INLINE static void run(const float* q, const float* k, const float* v,
                                     const float* attn, const float* d_out, float* dq,
                                     float* dk, float* dv, std::size_t batch, std::size_t seq,
                                     std::size_t heads, std::size_t dh, float inv_sqrt) {
    const std::size_t d_model = heads * dh;
    const std::size_t ldt = padded<W>(seq);
    const std::size_t ldd = padded<W>(dh);
    thread_local std::vector<float> scratch(1);
    const std::size_t need = dh * ldt + seq * ldd + seq * seq;
    if (scratch.size() < need) scratch.resize(need);
    float* vt = scratch.data();
    float* tile = vt + dh * ldt;
    float* ds = tile + seq * ldd;
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t h = 0; h < heads; ++h) {
        const std::size_t at = b * seq * d_model + h * dh;
        const float* a = attn + (b * heads + h) * seq * seq;
        // dV[t] = sum_s a[s, t] d_out[s]
        copy_tile(d_out + at, d_model, seq, dh, tile, ldd);
        scatter<W>(a, 1, seq, tile, ldd, seq, seq, dh, dv + at, d_model);
        // d_attn[s, t] = <d_out[s], V[t]>, then the softmax backward row by
        // row: ds[s, t] = a[s, t] (d_attn[s, t] - <d_attn[s], a[s]>) / sqrt(dh).
        transpose_tile(v + at, d_model, seq, dh, vt, ldt);
        dots<W>(d_out + at, d_model, vt, ldt, dh, seq, seq, ds, seq, nullptr);
        for (std::size_t s = 0; s < seq; ++s) {
          float* dr = ds + s * seq;
          const float* ar = a + s * seq;
          float dot = 0.0f;
          for (std::size_t t = 0; t < seq; ++t) dot += dr[t] * ar[t];
          for (std::size_t t = 0; t < seq; ++t) dr[t] = ar[t] * (dr[t] - dot) * inv_sqrt;
        }
        // dQ[s] = sum_t ds[s, t] K[t]; dK[t] = sum_s ds[s, t] Q[s]
        copy_tile(k + at, d_model, seq, dh, tile, ldd);
        scatter<W>(ds, seq, 1, tile, ldd, seq, seq, dh, dq + at, d_model);
        copy_tile(q + at, d_model, seq, dh, tile, ldd);
        scatter<W>(ds, 1, seq, tile, ldd, seq, seq, dh, dk + at, d_model);
      }
    }
  }
};

}  // namespace

// ----------------------------------------------------------------- module

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
  return forward(x, train, simd::active_isa());
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, bool train, simd::Isa isa) {
  assert(x.cols() == d_model_ && x.rows() % seq_ == 0);
  batch_ = x.rows() / seq_;
  Tensor q = wq_.forward(x, train);
  Tensor k = wk_.forward(x, train);
  Tensor v = wv_.forward(x, train);

  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));
  // Training keeps every (item, head) softmax for backward; inference
  // leaves them in the kernel's scratch.
  if (train) attn_ = Tensor(batch_ * heads_ * seq_, seq_);
  Tensor concat(x.rows(), d_model_);
  simd::dispatch<AttentionForward>(isa, q.data(), k.data(), v.data(), concat.data(),
                                   train ? attn_.data() : nullptr, batch_, seq_, heads_,
                                   d_head_, inv_sqrt);
  if (train) {
    q_ = std::move(q);
    k_ = std::move(k);
    v_ = std::move(v);
  }
  return wo_.forward(concat, train);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  return backward(grad_out, simd::active_isa());
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out, simd::Isa isa) {
  // Through the output projection first.
  Tensor d_concat = wo_.backward(grad_out);

  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Tensor dq(q_.rows(), d_model_), dk(k_.rows(), d_model_), dv(v_.rows(), d_model_);
  simd::dispatch<AttentionBackward>(isa, q_.data(), k_.data(), v_.data(), attn_.data(),
                                    d_concat.data(), dq.data(), dk.data(), dv.data(), batch_,
                                    seq_, heads_, d_head_, inv_sqrt);

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
