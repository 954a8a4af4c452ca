// Tests for the NN substrate: tensor ops, layers (with numerical gradient
// checks), attention, foundations, dual-head model, optimizers, losses and
// serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "nn/attention.hpp"
#include "nn/parallel.hpp"
#include "nn/dual_head.hpp"
#include "nn/foundation.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace mirage::nn {
namespace {

using util::Rng;

// ---------------------------------------------------------------- Tensor

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
  t.at(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(t.row(0)[1], -2.0f);
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a(1, 3);
  Tensor b(1, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    a.at(0, i) = static_cast<float>(i + 1);
    b.at(0, i) = 2.0f;
  }
  a.add(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 3.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 4.0f);
  a.mul(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 8.0f);
  a.scale(0.25f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f);
}

TEST(TensorTest, SquaredNorm) {
  Tensor t(1, 2);
  t.at(0, 0) = 3.0f;
  t.at(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(t.squared_norm(), 25.0f);
}

TEST(TensorTest, MatmulKnownValues) {
  Tensor a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Tensor c;
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorTest, MatmulVariantsAgree) {
  Rng rng(1);
  Tensor a(4, 5), b(5, 3);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  Tensor ref;
  matmul(a, b, ref);

  // matmul_nt: a * (b^T)^T — build bt = b^T and check.
  Tensor bt(3, 5);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  Tensor out_nt;
  matmul_nt(a, bt, out_nt);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out_nt.flat()[i], ref.flat()[i], 1e-5f);
  }

  // matmul_tn: (a^T)^T * b — build at = a^T and check.
  Tensor at(5, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  Tensor out_tn;
  matmul_tn(at, b, out_tn);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out_tn.flat()[i], ref.flat()[i], 1e-5f);
  }
}

TEST(TensorTest, MatmulAccumulate) {
  Tensor a(1, 1, 2.0f), b(1, 1, 3.0f), out(1, 1, 10.0f);
  matmul(a, b, out, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(out.at(0, 0), 16.0f);
}

TEST(TensorTest, SoftmaxRowsSumToOneAndStable) {
  Tensor t(2, 3);
  t.at(0, 0) = 1000.0f;  // overflow bait
  t.at(0, 1) = 1000.0f;
  t.at(0, 2) = 999.0f;
  t.at(1, 0) = -5.0f;
  softmax_rows(t);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(std::isfinite(t.at(r, c)));
      sum += t.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(t.at(0, 0), t.at(0, 2));
}

TEST(TensorTest, AddBiasRows) {
  Tensor x(2, 2, 1.0f), b(1, 2);
  b.at(0, 0) = 10.0f;
  b.at(0, 1) = 20.0f;
  add_bias_rows(x, b);
  EXPECT_FLOAT_EQ(x.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 21.0f);
}

// ---------------------------------------------------------- ParallelGemm
//
// The parallel GEMM's contract is bitwise: for every thread count the
// output must be byte-identical to the single-threaded run (fixed output
// tile grid, ascending-k accumulation — see nn/parallel.hpp). These
// suites compare raw bytes with memcmp, not EXPECT_NEAR.

/// ~10% exact zeros so the kernels' a==0 skip paths are exercised.
Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) {
    v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
  }
  return t;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0) << what;
}

/// Naive jik reference — a different loop order entirely, so agreement is
/// approximate (EXPECT_NEAR), unlike the bitwise T-invariance checks.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += double(a.at(i, p)) * double(b.at(p, j));
      out.at(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(ParallelGemm, BitwiseIdenticalAcrossThreadCounts) {
  // Ragged shapes chosen above the serial cutoff (m*k*n >= 64^3) so the
  // parallel path actually engages; they split tiles unevenly in both
  // dimensions (m=5 exercises a single ragged row-tile, n=401 a ragged
  // column split).
  const struct { std::size_t m, k, n; } shapes[] = {
      {67, 129, 65}, {128, 128, 128}, {30, 200, 77}, {5, 300, 401}};
  Rng rng(7);
  for (const auto& s : shapes) {
    const Tensor a = random_matrix(s.m, s.k, rng);
    const Tensor b = random_matrix(s.k, s.n, rng);
    const Tensor at = random_matrix(s.k, s.m, rng);  // matmul_tn input
    const Tensor bt = random_matrix(s.n, s.k, rng);  // matmul_nt input

    Tensor ref_nn, ref_tn, ref_nt;
    {
      ScopedNumThreads serial(1);
      matmul(a, b, ref_nn);
      matmul_tn(at, b, ref_tn);
      matmul_nt(a, bt, ref_nt);
    }
    for (const std::size_t threads : {2, 3, 4, 8}) {
      ScopedNumThreads scope(threads);
      Tensor out;
      matmul(a, b, out);
      expect_bitwise_equal(out, ref_nn, "matmul");
      matmul_tn(at, b, out);
      expect_bitwise_equal(out, ref_tn, "matmul_tn");
      matmul_nt(a, bt, out);
      expect_bitwise_equal(out, ref_nt, "matmul_nt");
    }
    // And the parallel result is the RIGHT answer, not just a stable one.
    const Tensor naive = naive_matmul(a, b);
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(ref_nn.flat()[i], naive.flat()[i], 2e-3f);
    }
  }
}

TEST(ParallelGemm, AccumulateIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Tensor a = random_matrix(70, 130, rng);
  const Tensor b = random_matrix(130, 90, rng);
  const Tensor base = random_matrix(70, 90, rng);

  Tensor ref = base;
  {
    ScopedNumThreads serial(1);
    matmul(a, b, ref, /*accumulate=*/true);
  }
  for (const std::size_t threads : {2, 4, 8}) {
    ScopedNumThreads scope(threads);
    Tensor out = base;
    matmul(a, b, out, /*accumulate=*/true);
    expect_bitwise_equal(out, ref, "matmul accumulate");
  }
}

TEST(ParallelGemm, ThreadCountKnobResolution) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  {
    ScopedNumThreads outer(2);
    EXPECT_EQ(num_threads(), 2u);
    {
      ScopedNumThreads inner(5);
      EXPECT_EQ(num_threads(), 5u);
    }
    EXPECT_EQ(num_threads(), 2u);  // nesting restores the outer override
  }
  EXPECT_EQ(num_threads(), 3u);
  {
    ScopedNumThreads inherit(0);  // 0 = defer to the process default
    EXPECT_EQ(num_threads(), 3u);
  }
  set_num_threads(0);  // restore: 0 = hardware_concurrency
  EXPECT_GE(num_threads(), 1u);
}

// ----------------------------------------------------------- SIMD kernels
//
// The tanh/GELU and matmul_nt kernels promise the same bits at every lane
// width. Each test runs every ISA the CPU has (AVX2 only where present)
// against a scalar reference and compares raw bits.

std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> isas{simd::Isa::kBaseline};
  if (simd::cpu_supports(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  return isas;
}

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

float float_of(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

// glibc up to 2.40 ships fdlibm's tanhf (later releases ship a correctly
// rounded one), so there std::tanh must agree with the port bit for bit.
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ == 2 && __GLIBC_MINOR__ <= 40)
constexpr bool kLibmIsFdlibm = true;
#else
constexpr bool kLibmIsFdlibm = false;
#endif

/// Scalar oracle: fdlibm's expm1f, transcribed branch for branch.
float fdlibm_expm1f(float x) {
  const float one = 1.0f, huge = 1.0e+30f, tiny = 1.0e-30f;
  const float o_threshold = 8.8721679688e+01f, ln2_hi = 6.9313812256e-01f,
              ln2_lo = 9.0580006145e-06f, invln2 = 1.4426950216e+00f;
  const float Q1 = -3.3333335072e-02f, Q2 = 1.5873016091e-03f, Q3 = -7.9365076090e-05f,
              Q4 = 4.0082177293e-06f, Q5 = -2.0109921195e-07f;
  float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
  std::int32_t k;
  std::uint32_t hx = bits_of(x);
  const std::uint32_t xsb = hx & 0x80000000u;
  hx &= 0x7fffffff;
  if (hx >= 0x4195b844) {  // |x| >= 27 ln2
    if (hx >= 0x42b17218) {
      if (hx > 0x7f800000) return x + x;  // NaN
      if (hx == 0x7f800000) return xsb == 0 ? x : -1.0f;
      if (x > o_threshold) return huge * huge;
    }
    if (xsb != 0) return tiny - one;
  }
  if (hx > 0x3eb17218) {    // |x| > 0.5 ln2
    if (hx < 0x3F851592) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + (xsb == 0 ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * ln2_hi;
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000) {  // |x| < 2^-25
    t = huge + x;
    return x - (t - (huge + x));
  } else {
    k = 0;
  }
  hfx = 0.5f * x;
  hxs = x * hfx;
  r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  t = 3.0f - r1 * hfx;
  e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {
    y = one - (e - x);
    y = k == 128 ? y * 2.0f * 0x1p127f : float_of(bits_of(y) + (static_cast<std::uint32_t>(k) << 23));
    return y - one;
  }
  if (k < 23) {
    t = float_of(0x3f800000 - (0x1000000 >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = float_of(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
  }
  return float_of(bits_of(y) + (static_cast<std::uint32_t>(k) << 23));
}

/// Scalar oracle: fdlibm's tanhf.
float fdlibm_tanhf(float x) {
  const float one = 1.0f, two = 2.0f, tiny = 1.0e-30f;
  const std::uint32_t jx = bits_of(x);
  const std::uint32_t ix = jx & 0x7fffffff;
  const bool pos = (jx & 0x80000000u) == 0;
  if (ix >= 0x7f800000) return pos ? one / x + one : one / x - one;  // inf, NaN
  float z;
  if (ix < 0x41b00000) {            // |x| < 22
    if (ix == 0) return x;          // +-0
    if (ix < 0x24000000) return x * (one + x);  // |x| < 2^-55
    if (ix >= 0x3f800000) {         // |x| >= 1
      const float t = fdlibm_expm1f(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      const float t = fdlibm_expm1f(-two * std::fabs(x));
      z = -t / (t + two);
    }
  } else {
    z = one - tiny;  // |x| >= 22: +-1
  }
  return pos ? z : -z;
}

/// Runs nn::tanh at `isa` over `xs` and counts elements whose bits differ
/// from the oracle (and from std::tanh where libm is fdlibm); reports the
/// first few.
std::size_t tanh_mismatches(const std::vector<float>& xs, simd::Isa isa) {
  std::vector<float> ys(xs.size());
  nn::tanh(xs.data(), ys.data(), xs.size(), isa);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint32_t got = bits_of(ys[i]);
    const bool ok = got == bits_of(fdlibm_tanhf(xs[i])) &&
                    (!kLibmIsFdlibm || got == bits_of(std::tanh(xs[i])));
    if (!ok && ++bad <= 5) {
      ADD_FAILURE() << simd::isa_name(isa) << ": tanh(0x" << std::hex << bits_of(xs[i])
                    << ") = 0x" << got << ", oracle 0x" << bits_of(fdlibm_tanhf(xs[i]));
    }
  }
  return bad;
}

/// Every branch boundary of tanhf and of the expm1f calls it makes, as
/// float bit patterns of x: the tanh thresholds, the expm1 thresholds on
/// |u| = 2|x|, and each k step of expm1's argument reduction.
std::vector<std::uint32_t> tanh_branch_boundaries() {
  std::vector<std::uint32_t> b = {0x00000000, 0x00000001, 0x00800000, 0x24000000,
                                  0x3f800000, 0x41b00000, 0x7f7fffff, 0x7f800000,
                                  0x7f800001, 0x7fc00000, 0x7fffffff};
  for (const std::uint32_t u : {0x33000000u, 0x3eb17218u, 0x3F851592u}) {
    b.push_back(bits_of(float_of(u) * 0.5f));
  }
  for (int k = -4; k <= 64; ++k) {  // kf = u/ln2 +- 0.5 crosses an integer
    b.push_back(bits_of(std::fabs((static_cast<float>(k) - 0.5f) * 0.6931472f) * 0.5f));
  }
  return b;
}

TEST(SimdKernels, ActiveIsaIsTheWidestSupported) {
  const simd::Isa want =
      simd::cpu_supports(simd::Isa::kAvx2) ? simd::Isa::kAvx2 : simd::Isa::kBaseline;
  EXPECT_EQ(simd::active_isa(), want);
  EXPECT_STRNE(simd::isa_name(simd::Isa::kBaseline), simd::isa_name(simd::Isa::kAvx2));
}

TEST(SimdKernels, TanhMatchesFdlibmOnAStridedSweep) {
  // An odd stride over all 2^32 bit patterns: >= 2^26 inputs covering
  // every exponent, both signs, NaN payloads and denormals.
  constexpr std::uint64_t kStride = 63;
  std::vector<float> xs;
  xs.reserve((std::uint64_t{1} << 32) / kStride + 1);
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += kStride) {
    xs.push_back(float_of(static_cast<std::uint32_t>(u)));
  }
  ASSERT_GE(xs.size(), std::size_t{1} << 26);
  for (const simd::Isa isa : runnable_isas()) {
    EXPECT_EQ(tanh_mismatches(xs, isa), 0u) << simd::isa_name(isa);
  }
}

TEST(SimdKernels, TanhMatchesFdlibmAtEveryBranchBoundary) {
  // +-64 ulps around each boundary (a superset of +-2: the k steps are
  // located only approximately), both signs, with odd lengths so every
  // lane position and the padded tail are hit.
  std::vector<float> xs;
  for (const std::uint32_t b : tanh_branch_boundaries()) {
    for (std::int64_t d = -64; d <= 64; ++d) {
      const std::int64_t u = static_cast<std::int64_t>(b) + d;
      if (u < 0 || u > 0x7fffffff) continue;
      xs.push_back(float_of(static_cast<std::uint32_t>(u)));
      xs.push_back(float_of(static_cast<std::uint32_t>(u) | 0x80000000u));
    }
  }
  xs.push_back(1.0f);  // odd total length
  for (const simd::Isa isa : runnable_isas()) {
    EXPECT_EQ(tanh_mismatches(xs, isa), 0u) << simd::isa_name(isa);
    for (std::size_t n = 0; n <= 9; ++n) {  // every tail length
      EXPECT_EQ(tanh_mismatches(std::vector<float>(xs.end() - n, xs.end()), isa), 0u);
    }
  }
}

TEST(SimdKernels, DISABLED_TanhMatchesFdlibmOnAllFloats) {
  // The exhaustive sweep (all 2^32 inputs, ~1 min on 4 cores), run by CI
  // with --gtest_also_run_disabled_tests; too slow for tier-1.
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  for (const simd::Isa isa : runnable_isas()) {
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::size_t> bad{0};
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&] {
        std::vector<float> xs(kChunk), ys(kChunk);
        for (std::uint64_t c; (c = next.fetch_add(kChunk)) < (std::uint64_t{1} << 32);) {
          for (std::uint64_t i = 0; i < kChunk; ++i) {
            xs[i] = float_of(static_cast<std::uint32_t>(c + i));
          }
          nn::tanh(xs.data(), ys.data(), kChunk, isa);
          for (std::uint64_t i = 0; i < kChunk; ++i) {
            const std::uint32_t got = bits_of(ys[i]);
            if (got != bits_of(fdlibm_tanhf(xs[i])) ||
                (kLibmIsFdlibm && got != bits_of(std::tanh(xs[i])))) {
              bad.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(bad.load(), 0u) << simd::isa_name(isa);
  }
}

/// The scalar GELU formulas the kernels replaced, over a given tanh.
template <class Tanh>
float gelu_reference(float x, Tanh tanh_fn) {
  const float inner = 0.7978845608f * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + tanh_fn(inner));
}

template <class Tanh>
float gelu_grad_reference(float x, Tanh tanh_fn) {
  const float x3 = x * x * x;
  const float inner = 0.7978845608f * (x + 0.044715f * x3);
  const float t = tanh_fn(inner);
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * 0.7978845608f * (1.0f + 3.0f * 0.044715f * x * x);
}

TEST(SimdKernels, GeluForwardAndBackwardMatchScalarFormulasBitwise) {
  // Dense around the activation's working range, a strided sweep of all
  // magnitudes, and the special values.
  std::vector<float> xs;
  Rng rng(5);
  for (int i = 0; i < 200000; ++i) xs.push_back(static_cast<float>(rng.normal(0.0, 3.0)));
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    xs.push_back(float_of(static_cast<std::uint32_t>(u)));
  }
  for (const float v : {0.0f, -0.0f, 1e-40f, -1e-40f, 22.0f, -22.0f, 1e30f, -1e30f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN()}) {
    xs.push_back(v);
  }
  std::vector<float> grad(xs.size());
  for (float& g : grad) g = static_cast<float>(rng.normal());

  const auto oracle = [](float v) { return fdlibm_tanhf(v); };
  const auto libm = [](float v) { return std::tanh(v); };
  for (const simd::Isa isa : runnable_isas()) {
    std::vector<float> y(xs.size());
    std::vector<float> dx = grad;
    gelu_forward(xs.data(), y.data(), xs.size(), isa);
    gelu_backward(xs.data(), dx.data(), xs.size(), isa);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const float want_y = gelu_reference(xs[i], oracle);
      const float want_dx = grad[i] * gelu_grad_reference(xs[i], oracle);
      bool ok = bits_of(y[i]) == bits_of(want_y) && bits_of(dx[i]) == bits_of(want_dx);
      if (kLibmIsFdlibm) {
        ok = ok && bits_of(want_y) == bits_of(gelu_reference(xs[i], libm)) &&
             bits_of(want_dx) == bits_of(grad[i] * gelu_grad_reference(xs[i], libm));
      }
      if (!ok && ++bad <= 5) {
        ADD_FAILURE() << simd::isa_name(isa) << ": GELU at x=" << xs[i] << " (0x" << std::hex
                      << bits_of(xs[i]) << ")";
      }
    }
    EXPECT_EQ(bad, 0u) << simd::isa_name(isa);
  }
}

/// Naive A * B^T: per element acc = +0, acc += a*b for ascending p, then
/// out = (accumulate ? out : +0) + acc.
void naive_matmul_nt(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += a.at(i, p) * b.at(j, p);
      out.at(i, j) = (accumulate ? out.at(i, j) : 0.0f) + acc;
    }
  }
}

/// Normal values mixed with +-0 and denormals.
Tensor gemm_operand(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) {
    const double u = rng.uniform();
    v = u < 0.1    ? 0.0f
        : u < 0.2  ? -0.0f
        : u < 0.3  ? static_cast<float>(rng.normal()) * 1e-39f
                   : static_cast<float>(rng.normal());
  }
  return t;
}

TEST(SimdKernels, MatmulNtMatchesNaiveAscendingKLoopBitwise) {
  // n and k straddle both lane widths (4, 8) and the 2-vector column
  // blocks; m straddles the 4-row register block.
  Rng rng(9);
  for (const std::size_t m : {1, 3, 4, 5, 9, 64}) {
    for (const std::size_t k : {0, 1, 3, 7, 13, 16, 41}) {
      for (const std::size_t n : {1, 3, 5, 8, 9, 16, 17, 33}) {
        const Tensor a = gemm_operand(m, k, rng);
        const Tensor b = gemm_operand(n, k, rng);
        const Tensor base = gemm_operand(m, n, rng);
        for (const bool accumulate : {false, true}) {
          Tensor want = accumulate ? base : Tensor(m, n);
          naive_matmul_nt(a, b, want, accumulate);
          for (const simd::Isa isa : runnable_isas()) {
            Tensor got = accumulate ? base : Tensor(m, n, 7.0f);
            matmul_nt(a, b, got, accumulate, isa);
            expect_bitwise_equal(got, want, simd::isa_name(isa));
          }
        }
      }
    }
  }
}

TEST(SimdKernels, MatmulNtIsaPathsAgreeOnTheParallelTileGrid) {
  // Above the serial cutoff, so the tile grid splits rows and columns.
  Rng rng(10);
  const Tensor a = gemm_operand(70, 90, rng);
  const Tensor b = gemm_operand(300, 90, rng);
  Tensor want(70, 300);
  naive_matmul_nt(a, b, want, false);
  for (const std::size_t threads : {1, 3}) {
    ScopedNumThreads scope(threads);
    for (const simd::Isa isa : runnable_isas()) {
      Tensor got;
      matmul_nt(a, b, got, false, isa);
      expect_bitwise_equal(got, want, simd::isa_name(isa));
    }
  }
}

// -------------------------------------------------------- Gradient checks

/// Numerical-vs-analytic gradient check of a module under an MSE loss.
/// Returns the max relative error over sampled parameters and inputs.
double gradient_check(Module& m, std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  Tensor y0 = m.forward(x, true);
  Tensor target(y0.rows(), y0.cols());
  for (float& v : target.flat()) v = static_cast<float>(rng.normal());

  std::vector<Parameter*> params;
  m.collect_params(params);
  zero_grads(params);
  auto [l0, g0] = mse_loss(m.forward(x, true), target);
  (void)l0;
  Tensor dx = m.backward(g0);

  auto eval = [&] { return static_cast<double>(mse_loss(m.forward(x, true), target).first); };
  const float eps = 1e-2f;
  double max_rel = 0.0;
  Rng pick(seed ^ 0x1234);
  for (auto* p : params) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto idx = static_cast<std::size_t>(
          pick.uniform_int(0, static_cast<std::int64_t>(p->value.size()) - 1));
      const float orig = p->value.flat()[idx];
      p->value.flat()[idx] = orig + eps;
      const double lp = eval();
      p->value.flat()[idx] = orig - eps;
      const double lm = eval();
      p->value.flat()[idx] = orig;
      const double num = (lp - lm) / (2.0 * eps);
      const double ana = p->grad.flat()[idx];
      if (std::abs(num) > 1e-4 || std::abs(ana) > 1e-4) {
        max_rel = std::max(max_rel, std::abs(num - ana) / std::max(1e-3, std::abs(num) + std::abs(ana)));
      }
    }
  }
  for (int rep = 0; rep < 8; ++rep) {
    const auto idx =
        static_cast<std::size_t>(pick.uniform_int(0, static_cast<std::int64_t>(x.size()) - 1));
    const float orig = x.flat()[idx];
    x.flat()[idx] = orig + eps;
    const double lp = eval();
    x.flat()[idx] = orig - eps;
    const double lm = eval();
    x.flat()[idx] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    const double ana = dx.flat()[idx];
    if (std::abs(num) > 1e-4 || std::abs(ana) > 1e-4) {
      max_rel = std::max(max_rel, std::abs(num - ana) / std::max(1e-3, std::abs(num) + std::abs(ana)));
    }
  }
  return max_rel;
}

constexpr double kGradTol = 0.03;  // float32 composite-model tolerance

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear l(7, 5, rng);
  EXPECT_LT(gradient_check(l, 4, 7, 11), kGradTol);
}

TEST(GradCheck, GELU) {
  GELU g;
  EXPECT_LT(gradient_check(g, 4, 7, 13), kGradTol);
}

TEST(GradCheck, LayerNorm) {
  LayerNorm ln(7);
  EXPECT_LT(gradient_check(ln, 4, 7, 15), kGradTol);
}

TEST(GradCheck, MultiHeadSelfAttention) {
  Rng rng(2);
  MultiHeadSelfAttention attn(5, 8, 2, rng);
  EXPECT_LT(gradient_check(attn, 10, 8, 16), kGradTol);  // batch of 2 sequences
}

TEST(GradCheck, TransformerEncoderLayer) {
  Rng rng(3);
  TransformerEncoderLayer enc(5, 8, 2, 16, rng, "enc");
  EXPECT_LT(gradient_check(enc, 10, 8, 17), kGradTol);
}

class FoundationGradTest : public ::testing::TestWithParam<FoundationType> {};

TEST_P(FoundationGradTest, EndToEndGradients) {
  FoundationConfig cfg;
  cfg.history_len = 5;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 3;
  auto f = make_foundation(GetParam(), cfg, 21);
  EXPECT_LT(gradient_check(*f, 2, cfg.input_dim(), 18), kGradTol);
}

INSTANTIATE_TEST_SUITE_P(Types, FoundationGradTest,
                         ::testing::Values(FoundationType::kTransformer, FoundationType::kMoE));

// ----------------------------------------------------------------- Layers

TEST(Layers, LinearShapes) {
  Rng rng(1);
  Linear l(3, 4, rng);
  Tensor x(5, 3, 1.0f);
  const Tensor y = l.forward(x, false);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 4u);
}

TEST(Layers, GeluKnownValues) {
  GELU g;
  Tensor x(1, 2);
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 100.0f;
  const Tensor y = g.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_NEAR(y.at(0, 1), 100.0f, 1e-3f);  // ~identity for large x
}

TEST(Layers, LayerNormNormalizesRows) {
  LayerNorm ln(4);
  Tensor x(1, 4);
  for (std::size_t i = 0; i < 4; ++i) x.at(0, i) = static_cast<float>(i * 10);
  const Tensor y = ln.forward(x, false);
  float mean = 0, var = 0;
  for (std::size_t i = 0; i < 4; ++i) mean += y.at(0, i);
  mean /= 4;
  for (std::size_t i = 0; i < 4; ++i) var += (y.at(0, i) - mean) * (y.at(0, i) - mean);
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var / 4, 1.0f, 1e-3f);
}

// -------------------------------------------------------------- Attention

TEST(Attention, OutputShapeAndBatchIndependence) {
  Rng rng(9);
  MultiHeadSelfAttention attn(4, 8, 2, rng);
  Tensor x(8, 8);  // batch of 2 sequences
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor y = attn.forward(x, false);
  EXPECT_EQ(y.rows(), 8u);
  EXPECT_EQ(y.cols(), 8u);

  // Items must not leak across the batch: recompute item 0 alone.
  Tensor x0(4, 8);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c) x0.at(r, c) = x.at(r, c);
  Rng rng2(9);
  MultiHeadSelfAttention attn2(4, 8, 2, rng2);
  const Tensor y0 = attn2.forward(x0, false);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(y0.at(r, c), y.at(r, c), 1e-5f);
    }
  }
}

// ------------------------------------------------------------- Foundation

TEST(Foundation, PooledOutputShape) {
  FoundationConfig cfg;
  cfg.history_len = 6;
  cfg.state_dim = 11;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.ffn_hidden = 16;
  TransformerFoundation f(cfg, 1);
  Tensor x(3, cfg.input_dim(), 0.1f);
  const Tensor y = f.forward(x, false);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), cfg.d_model);
}

TEST(Foundation, CloneProducesIdenticalOutputs) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  TransformerFoundation f(cfg, 33);
  auto clone = f.clone();
  Rng rng(4);
  Tensor x(2, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor a = f.forward(x, false);
  const Tensor b = clone->forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(Foundation, MoEDenseIsConvexCombinationOfExperts) {
  // With a single expert, the MoE must equal that expert's output exactly
  // (gate softmax over one logit is always 1).
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 1;
  MoEFoundation moe(cfg, 77);
  TransformerFoundation expert(cfg, 77 + 0x1000, "moe.expert0");
  Rng rng(5);
  Tensor x(2, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor a = moe.forward(x, false);
  const Tensor b = expert.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a.flat()[i], b.flat()[i], 1e-5f);
}

TEST(Foundation, MoETop1MatchesDenseWithOneExpert) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 3;
  cfg.moe_top1 = true;
  MoEFoundation moe(cfg, 88);
  Rng rng(6);
  Tensor x(2, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor y = moe.forward(x, false);
  EXPECT_EQ(y.rows(), 2u);
  for (float v : y.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Foundation, MoEInferenceRoutingMatchesTrainingForwardBitwise) {
  // Inference runs each expert only on the rows its gate weight is
  // nonzero for; training runs every expert on every row. The gate is
  // forced so that expert 3 gets weight exactly 0 on every row and expert
  // 2's weight underflows to 0 or saturates to 1 depending on the row, so
  // dense inference takes the no-row, some-rows and all-rows paths.
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 4;
  for (const bool top1 : {false, true}) {
    cfg.moe_top1 = top1;
    MoEFoundation moe(cfg, 91);
    std::vector<Parameter*> params;
    moe.collect_params(params);  // gate weight [E, state_dim], gate bias [1, E] first
    params[0]->value.at(2, 0) = 400.0f;
    params[1]->value.at(0, 3) = -200.0f;
    TransformerFoundation expert2(cfg, 91 + 0x1000 * 3, "moe.expert2");
    Rng rng(12);
    for (const std::size_t batch : {1u, 7u, 13u}) {
      Tensor x(batch, cfg.input_dim());
      for (std::size_t b = 0; b < batch; ++b) {
        // Feature 0 of every frame: +1 gives expert 2 all the weight, -1
        // gives it none, 0 leaves every expert but 3 a share.
        const float f0 = b % 3 == 0 ? 1.0f : (b % 3 == 1 ? -1.0f : 0.0f);
        for (std::size_t s = 0; s < cfg.history_len; ++s) {
          float* frame = x.row(b) + s * cfg.state_dim;
          frame[0] = f0;
          for (std::size_t c = 1; c < cfg.state_dim; ++c) {
            frame[c] = static_cast<float>(rng.normal());
          }
        }
      }
      const Tensor inferred = moe.forward(x, /*train=*/false);
      const Tensor trained = moe.forward(x, /*train=*/true);
      expect_bitwise_equal(inferred, trained, top1 ? "top-1 gate" : "dense gate");
      // Rows with feature 0 = +1 are expert 2 alone, under either gate.
      const Tensor solo = expert2.forward(x, /*train=*/false);
      for (std::size_t b = 0; b < batch; b += 3) {
        EXPECT_EQ(std::memcmp(inferred.row(b), solo.row(b), cfg.d_model * sizeof(float)), 0)
            << "row " << b << " batch " << batch << (top1 ? " top-1" : " dense");
      }
    }
  }
}

TEST(Foundation, ParameterCountScalesWithExperts) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  cfg.moe_experts = 2;
  MoEFoundation two(cfg, 1);
  cfg.moe_experts = 4;
  MoEFoundation four(cfg, 1);
  std::vector<Parameter*> p2, p4;
  two.collect_params(p2);
  four.collect_params(p4);
  EXPECT_GT(param_count(p4), 1.8 * param_count(p2));
}

// --------------------------------------------------------------- DualHead

TEST(DualHead, QAndPolicyShapes) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel m(FoundationType::kTransformer, cfg, 3);
  Tensor x(3, cfg.input_dim(), 0.1f);
  const Tensor q = m.forward_q(x, false);
  EXPECT_EQ(q.rows(), 3u);
  EXPECT_EQ(q.cols(), 1u);
  const Tensor p = m.forward_policy(x, false);
  EXPECT_EQ(p.cols(), 2u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(p.at(r, 0) + p.at(r, 1), 1.0f, 1e-5f);
  }
}

TEST(DualHead, CopyParamsMakesModelsAgree) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel a(FoundationType::kTransformer, cfg, 3);
  DualHeadModel b(FoundationType::kTransformer, cfg, 999);
  Tensor x(2, cfg.input_dim(), 0.3f);
  b.copy_params_from(a);
  const Tensor qa = a.forward_q(x, false);
  const Tensor qb = b.forward_q(x, false);
  for (std::size_t i = 0; i < qa.size(); ++i) EXPECT_FLOAT_EQ(qa.flat()[i], qb.flat()[i]);
}

// -------------------------------------------------------------- Optimizer

TEST(Optimizer, SgdConvergesOnQuadratic) {
  // Minimize (w - 3)^2 directly through the Parameter interface.
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = 0.0f;
  SGD opt({&w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    w.grad.at(0, 0) = 2.0f * (w.value.at(0, 0) - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 3.0f, 1e-3f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = -5.0f;
  Adam opt({&w}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    w.grad.at(0, 0) = 2.0f * (w.value.at(0, 0) - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 3.0f, 1e-2f);
}

TEST(Optimizer, AdamFitsLinearRegression) {
  Rng rng(17);
  Linear model(2, 1, rng);
  std::vector<Parameter*> params;
  model.collect_params(params);
  Adam opt(params, 0.05f);
  // y = 2*x0 - x1 + 0.5
  for (int step = 0; step < 400; ++step) {
    Tensor x(16, 2), t(16, 1);
    for (std::size_t r = 0; r < 16; ++r) {
      x.at(r, 0) = static_cast<float>(rng.normal());
      x.at(r, 1) = static_cast<float>(rng.normal());
      t.at(r, 0) = 2.0f * x.at(r, 0) - x.at(r, 1) + 0.5f;
    }
    opt.zero_grad();
    auto [loss, grad] = mse_loss(model.forward(x, true), t);
    (void)loss;
    model.backward(grad);
    opt.step();
  }
  EXPECT_NEAR(model.weight().value.at(0, 0), 2.0f, 0.05f);
  EXPECT_NEAR(model.weight().value.at(0, 1), -1.0f, 0.05f);
  EXPECT_NEAR(model.bias().value.at(0, 0), 0.5f, 0.05f);
}

TEST(Optimizer, GradClipScalesDown) {
  Parameter w("w", 1, 2);
  w.grad.at(0, 0) = 3.0f;
  w.grad.at(0, 1) = 4.0f;  // norm 5
  const float norm = clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(std::sqrt(w.grad.squared_norm()), 1.0f, 1e-5f);
  // Below the threshold: untouched.
  w.grad.at(0, 0) = 0.1f;
  w.grad.at(0, 1) = 0.0f;
  clip_grad_norm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 0.1f);
}

// ------------------------------------------------------------------ Loss

TEST(Loss, MseKnownValue) {
  Tensor pred(1, 2), target(1, 2);
  pred.at(0, 0) = 1.0f;
  pred.at(0, 1) = 3.0f;
  target.at(0, 0) = 0.0f;
  target.at(0, 1) = 0.0f;
  auto [loss, grad] = mse_loss(pred, target);
  EXPECT_FLOAT_EQ(loss, 5.0f);  // (1 + 9) / 2
  EXPECT_FLOAT_EQ(grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(grad.at(0, 1), 3.0f);
}

TEST(Loss, HuberQuadraticInsideLinearOutside) {
  Tensor pred(1, 2), target(1, 2, 0.0f);
  pred.at(0, 0) = 0.5f;  // inside delta=1
  pred.at(0, 1) = 3.0f;  // outside
  auto [loss, grad] = huber_loss(pred, target, 1.0f);
  EXPECT_NEAR(loss, (0.5 * 0.25 + (3.0 - 0.5)) / 2.0, 1e-6);
  EXPECT_FLOAT_EQ(grad.at(0, 0), 0.25f);  // d/2 elements
  EXPECT_FLOAT_EQ(grad.at(0, 1), 0.5f);   // clipped at delta/2
}

TEST(Loss, CrossEntropyGradientIsProbMinusOnehot) {
  Tensor probs(1, 2);
  probs.at(0, 0) = 0.3f;
  probs.at(0, 1) = 0.7f;
  auto [loss, grad] = cross_entropy_from_probs(probs, {1});
  EXPECT_NEAR(loss, -std::log(0.7f), 1e-5f);
  EXPECT_NEAR(grad.at(0, 0), 0.3f, 1e-6f);
  EXPECT_NEAR(grad.at(0, 1), -0.3f, 1e-6f);
}

TEST(Loss, PolicyGradientWeightsByAdvantage) {
  Tensor probs(2, 2);
  probs.at(0, 0) = 0.5f;
  probs.at(0, 1) = 0.5f;
  probs.at(1, 0) = 0.5f;
  probs.at(1, 1) = 0.5f;
  auto [loss, grad] = policy_gradient_loss(probs, {0, 0}, {1.0f, -1.0f});
  (void)loss;
  // Opposite advantages on identical rows -> opposite gradients.
  EXPECT_NEAR(grad.at(0, 0), -grad.at(1, 0), 1e-6f);
}

// ---------------------------------------------------------- Serialization

TEST(Serialize, RoundTripRestoresValues) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel a(FoundationType::kTransformer, cfg, 3);
  DualHeadModel b(FoundationType::kTransformer, cfg, 42);
  const auto bytes = serialize_params(a.parameters());
  ASSERT_TRUE(deserialize_params(bytes, b.parameters()));
  Tensor x(1, cfg.input_dim(), 0.2f);
  EXPECT_FLOAT_EQ(a.forward_q(x, false).at(0, 0), b.forward_q(x, false).at(0, 0));
}

TEST(Serialize, RejectsArchitectureMismatch) {
  FoundationConfig cfg;
  cfg.history_len = 4;
  cfg.state_dim = 9;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_hidden = 16;
  DualHeadModel a(FoundationType::kTransformer, cfg, 3);
  cfg.d_model = 16;
  DualHeadModel b(FoundationType::kTransformer, cfg, 3);
  const auto bytes = serialize_params(a.parameters());
  EXPECT_FALSE(deserialize_params(bytes, b.parameters()));
}

TEST(Serialize, RejectsCorruptHeader) {
  std::vector<char> junk = {'X', 'X', 'X', 'X', 0, 0};
  Parameter p("p", 1, 1);
  EXPECT_FALSE(deserialize_params(junk, {&p}));
}

}  // namespace
}  // namespace mirage::nn
