// W=8 kernels pass vectors between always-inlined helpers: see simd.hpp.
#pragma GCC diagnostic ignored "-Wpsabi"

#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace mirage::nn {

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng,
               const std::string& name)
    : in_(in_features),
      out_(out_features),
      w_(name + ".w", out_features, in_features),
      b_(name + ".b", 1, out_features) {
  init_xavier_uniform(w_.value, in_, out_, rng);
}

Tensor Linear::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  Tensor y;
  matmul_nt(x, w_.value, y);  // [B,in] * [out,in]^T
  add_bias_rows(y, b_.value);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  // dW += grad^T * x ; db += column sums of grad ; dx = grad * W.
  matmul_tn(grad_out, cached_input_, w_.grad, /*accumulate=*/true);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const float* g = grad_out.row(r);
    float* db = b_.grad.data();
    for (std::size_t c = 0; c < out_; ++c) db[c] += g[c];
  }
  Tensor dx;
  matmul(grad_out, w_.value, dx);  // [B,out] * [out,in]
  return dx;
}

void Linear::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

// ------------------------------------------------------- tanh and GELU

namespace {

/// fdlibm expm1f(u) on W lanes, for the two argument ranges tanh passes:
/// 2 <= u < 44 (`up` lanes, k = 3..63) and -2 < u <= -2^-54 (k = 0..-3).
/// Every branch of the scalar code that those ranges reach is computed on
/// every lane, and each lane selects its own branch at the end, so it gets
/// exactly the scalar result. The argument reductions for k = 0, k = -1 and
/// general k are one formula: with t = k, hi = u - t*ln2_hi and
/// lo = t*ln2_lo reproduce the special-cased hi/lo bit for bit.
template <int W>
MIRAGE_SIMD_INLINE typename simd::Lanes<W>::F expm1_lanes(const typename simd::Lanes<W>::F& u,
                                                          const typename simd::Lanes<W>::I& up) {
  using F = typename simd::Lanes<W>::F;
  using I = typename simd::Lanes<W>::I;
  using U = typename simd::Lanes<W>::U;
  using simd::select;
  using simd::splat;
  const F one = splat<F>(1.0f);
  const I hx = (I)u & 0x7fffffff;
  const I k0 = hx <= 0x3eb17218;  // |u| <= 0.5 ln2

  const F kf = splat<F>(1.4426950216e+00f) * u + select(up, splat<F>(0.5f), splat<F>(-0.5f));
  I k = __builtin_convertvector(kf, I);
  k = select(hx < 0x3F851592, splat<I>(-1), k);  // |u| < 1.5 ln2 (u < 0 here)
  k = select(k0, splat<I>(0), k);
  const F t = __builtin_convertvector(k, F);
  const F hi = u - t * splat<F>(6.9313812256e-01f);
  const F lo = t * splat<F>(9.0580006145e-06f);
  const F x = hi - lo;
  const F c = (hi - x) - lo;

  const F hfx = splat<F>(0.5f) * x;
  const F hxs = x * hfx;
  const F r1 =
      one + hxs * (splat<F>(-3.3333335072e-02f) +
                   hxs * (splat<F>(1.5873016091e-03f) +
                          hxs * (splat<F>(-7.9365076090e-05f) +
                                 hxs * (splat<F>(4.0082177293e-06f) +
                                        hxs * splat<F>(-2.0109921195e-07f)))));
  const F tt = splat<F>(3.0f) - r1 * hfx;
  const F e = hxs * ((r1 - tt) / (splat<F>(6.0f) - x * tt));

  const F r_k0 = x - (x * e - hxs);
  const F e2 = (x * (e - c) - c) - hxs;
  const F r_km1 = splat<F>(0.5f) * (x - e2) - splat<F>(0.5f);
  // Scaling by 2^k adds k to the exponent field.
  const I kexp = (I)((U)k << 23);
  const F two_mk = (F)((0x7f - k) << 23);  // 2^-k
  const F r_far = (F)((I)(one - (e2 - x)) + kexp) - one;
  const F r_mid = (F)((I)((one - two_mk) - (e2 - x)) + kexp);
  const F r_high = (F)((I)((x - (e2 + two_mk)) + one) + kexp);

  F r = select(k < 23, r_mid, r_high);
  r = select((k <= -2) | (k > 56), r_far, r);
  r = select(k == -1, r_km1, r);
  r = select(k0, r_k0, r);
  return select(hx < 0x33000000, u, r);  // |u| < 2^-25: expm1(u) = u
}

/// fdlibm tanhf on W lanes.
template <int W>
MIRAGE_SIMD_INLINE typename simd::Lanes<W>::F tanh_lanes(const typename simd::Lanes<W>::F& x) {
  using F = typename simd::Lanes<W>::F;
  using I = typename simd::Lanes<W>::I;
  using simd::select;
  using simd::splat;
  const F one = splat<F>(1.0f);
  const F two = splat<F>(2.0f);
  const I jx = (I)x;
  const I ix = jx & 0x7fffffff;
  const I sign = jx & (I)splat<F>(-0.0f);

  // |x| in [2^-55, 22) goes through expm1. The other lanes run it on 1.0,
  // so no lane computes on inf or NaN; their results come from their own
  // branches below.
  const I regular = (ix >= 0x24000000) & (ix < 0x41b00000);
  const F ax = (F)select(regular, ix, splat<I>(0x3f800000));
  const I ge1 = (I)ax >= 0x3f800000;
  const F t = expm1_lanes<W>(select(ge1, two * ax, splat<F>(-2.0f) * ax), ge1);
  const F q = select(ge1, two, -t) / (t + two);
  const F z = select(ge1, one - q, q);  // tanh(|x|) >= 0

  const F sat = one - splat<F>(1.0e-30f);  // |x| >= 22, inf: 1
  F r = (F)((I)select(regular, z, sat) ^ sign);
  r = select(ix > 0x7f800000, x + x, r);             // NaN: the quiet NaN 1/x +- 1 gives
  return select(ix < 0x24000000, x * (one + x), r);  // 0 and |x| < 2^-55
}

constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)

struct TanhOp {
  static constexpr bool kReadsOut = false;
  template <int W>
  MIRAGE_SIMD_INLINE static typename simd::Lanes<W>::F lanes(
      const typename simd::Lanes<W>::F& x, const typename simd::Lanes<W>::F&) {
    return tanh_lanes<W>(x);
  }
};

/// 0.5 x (1 + tanh(c (x + 0.044715 x^3))), with x^3 formed as ((0.044715 x) x) x.
struct GeluForwardOp {
  static constexpr bool kReadsOut = false;
  template <int W>
  MIRAGE_SIMD_INLINE static typename simd::Lanes<W>::F lanes(
      const typename simd::Lanes<W>::F& x, const typename simd::Lanes<W>::F&) {
    using F = typename simd::Lanes<W>::F;
    const F one = simd::splat<F>(1.0f);
    const F inner = simd::splat<F>(kGeluC) * (x + simd::splat<F>(0.044715f) * x * x * x);
    return simd::splat<F>(0.5f) * x * (one + tanh_lanes<W>(inner));
  }
};

/// grad * GELU'(x). The cube is formed as 0.044715 (x x x), which rounds
/// differently from the forward's ((0.044715 x) x) x, so the backward
/// runs its own tanh rather than reusing the forward's.
struct GeluBackwardOp {
  static constexpr bool kReadsOut = true;
  template <int W>
  MIRAGE_SIMD_INLINE static typename simd::Lanes<W>::F lanes(
      const typename simd::Lanes<W>::F& x, const typename simd::Lanes<W>::F& grad) {
    using F = typename simd::Lanes<W>::F;
    const F one = simd::splat<F>(1.0f);
    const F half = simd::splat<F>(0.5f);
    const F c = simd::splat<F>(kGeluC);
    const F x3 = x * x * x;
    const F t = tanh_lanes<W>(c * (x + simd::splat<F>(0.044715f) * x3));
    const F sech2 = one - t * t;
    return grad * (half * (one + t) +
                   half * x * sech2 * c * (one + simd::splat<F>(3.0f * 0.044715f) * x * x));
  }
};

/// out[i] = Op(in[i], out[i]) over n elements, W at a time (Op reads
/// out[i] only when Op::kReadsOut). The tail is padded with zeros so it
/// takes the same lane code.
template <class Op>
struct Elementwise {
  template <int W>
  MIRAGE_SIMD_INLINE static void run(const float* in, float* out, std::size_t n) {
    using F = typename simd::Lanes<W>::F;
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const F o = Op::kReadsOut ? simd::load<F>(out + i) : F{};
      simd::store(out + i, Op::template lanes<W>(simd::load<F>(in + i), o));
    }
    if (i < n) {
      float a[W] = {}, b[W] = {};
      std::memcpy(a, in + i, (n - i) * sizeof(float));
      if (Op::kReadsOut) std::memcpy(b, out + i, (n - i) * sizeof(float));
      simd::store(b, Op::template lanes<W>(simd::load<F>(a), simd::load<F>(b)));
      std::memcpy(out + i, b, (n - i) * sizeof(float));
    }
  }
};

}  // namespace

void tanh(const float* x, float* y, std::size_t n, simd::Isa isa) {
  simd::dispatch<Elementwise<TanhOp>>(isa, x, y, n);
}

void gelu_forward(const float* x, float* y, std::size_t n, simd::Isa isa) {
  simd::dispatch<Elementwise<GeluForwardOp>>(isa, x, y, n);
}

void gelu_backward(const float* x, float* grad, std::size_t n, simd::Isa isa) {
  simd::dispatch<Elementwise<GeluBackwardOp>>(isa, x, grad, n);
}

// ------------------------------------------------------------------ GELU

Tensor GELU::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  Tensor y(x.rows(), x.cols());
  gelu_forward(x.data(), y.data(), y.size());
  return y;
}

Tensor GELU::backward(const Tensor& grad_out) {
  Tensor dx = grad_out;
  gelu_backward(cached_input_.data(), dx.data(), dx.size());
  return dx;
}

// -------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(std::size_t dim, const std::string& name, float eps)
    : dim_(dim), eps_(eps), gamma_(name + ".g", 1, dim), beta_(name + ".b", 1, dim) {
  gamma_.value.fill(1.0f);
}

Tensor LayerNorm::forward(const Tensor& x, bool train) {
  Tensor y(x.rows(), x.cols());
  if (train) {
    cached_norm_ = Tensor(x.rows(), x.cols());
    cached_inv_std_ = Tensor(x.rows(), 1);
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    float mean = 0.0f;
    for (std::size_t c = 0; c < dim_; ++c) mean += xr[c];
    mean /= static_cast<float>(dim_);
    float var = 0.0f;
    for (std::size_t c = 0; c < dim_; ++c) {
      const float d = xr[c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(dim_);
    const float inv_std = 1.0f / std::sqrt(var + eps_);
    float* yr = y.row(r);
    const float* g = gamma_.value.data();
    const float* b = beta_.value.data();
    for (std::size_t c = 0; c < dim_; ++c) yr[c] = (xr[c] - mean) * inv_std;
    if (train) {
      cached_inv_std_.at(r, 0) = inv_std;
      std::copy(yr, yr + dim_, cached_norm_.row(r));
    }
    for (std::size_t c = 0; c < dim_; ++c) yr[c] = yr[c] * g[c] + b[c];
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  Tensor dx(grad_out.rows(), grad_out.cols());
  const float* g = gamma_.value.data();
  const float n = static_cast<float>(dim_);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const float* go = grad_out.row(r);
    const float* nr = cached_norm_.row(r);
    const float inv_std = cached_inv_std_.at(r, 0);
    // Accumulate parameter grads.
    float* dg = gamma_.grad.data();
    float* db = beta_.grad.data();
    float sum_gh = 0.0f;   // sum of gamma*grad
    float sum_ghn = 0.0f;  // sum of gamma*grad*norm
    for (std::size_t c = 0; c < dim_; ++c) {
      dg[c] += go[c] * nr[c];
      db[c] += go[c];
      const float gh = go[c] * g[c];
      sum_gh += gh;
      sum_ghn += gh * nr[c];
    }
    float* dxr = dx.row(r);
    for (std::size_t c = 0; c < dim_; ++c) {
      const float gh = go[c] * g[c];
      dxr[c] = inv_std * (gh - sum_gh / n - nr[c] * sum_ghn / n);
    }
  }
  return dx;
}

void LayerNorm::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

}  // namespace mirage::nn
