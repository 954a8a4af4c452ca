// expf and the row softmax on W lanes (see simd.hpp for the lane model).
//
// exp_lanes is glibc's expf (the table-driven double-precision algorithm
// from ARM's optimized-routines, in glibc since 2.27) without FMA, made
// branch-free: every lane runs the main path and the special inputs are
// selected at the end. It gives the bits of glibc's non-FMA expf on every
// input. glibc's FMA variant, which glibc picks at load time on CPUs that
// have FMA, differs from it on exactly two inputs (-0x1.f8cbb2p+5 and
// 0x1.04845ep+5), so a softmax built on exp_lanes gives the same bits on
// every host and every libm.
//
// Included by the files that instantiate kernels with it (tensor.cpp,
// attention.cpp), which silence -Wpsabi as simd.hpp explains.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "nn/simd.hpp"

namespace mirage::nn::simd {

/// glibc's __exp2f_data.tab: tab[i] = bits(2^(i/32)) - (i << 47), so
/// that bits(2^(k/32)) = tab[k % 32] + (k << 47) for any integer k in
/// range.
inline constexpr std::uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/// expf(x) on W lanes. With z = x * 32/ln2 = k + r (k integer, |r| <=
/// 1/2), exp(x) = 2^(k/32) * 2^(r/32), the first factor from the table and
/// the second from a cubic in r, all in double; the float result is that
/// double rounded once. Outside the main path: -inf and x < ln(2^-150)
/// give +0, +inf and x > ln(2^128) give +inf, NaN gives x + x.
template <int W>
MIRAGE_SIMD_INLINE typename Lanes<W>::F exp_lanes(const typename Lanes<W>::F& x) {
  using F = typename Lanes<W>::F;
  using D = typename Lanes<W>::D;
  using UD = typename Lanes<W>::UD;
  const D shift = splat<D>(0x1.8p+52);  // z + shift rounds z to an integer
  const D z = splat<D>(0x1.71547652b82fep+0 * 32) * __builtin_convertvector(x, D);
  const D kd_shifted = z + shift;
  const UD ki = (UD)kd_shifted;
  const D r = z - (kd_shifted - shift);
  // The table index is the low 5 bits of each lane's low 32-bit half.
  // Reading those halves back from memory keeps the lookups on the load
  // ports (extracting lanes from registers queues them all on one
  // shuffle port, ~25% slower at 8 lanes).
  constexpr int kLow = __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ ? 0 : 1;
  std::uint32_t halves[2 * W];
  std::uint64_t entries[W];
  std::memcpy(halves, &ki, sizeof ki);
  for (int i = 0; i < W; ++i) entries[i] = kExp2fTable[halves[2 * i + kLow] % 32];
  UD t;
  std::memcpy(&t, entries, sizeof t);
  const D s = (D)(t + (ki << 47));
  const D c0 = splat<D>(0x1.c6af84b912394p-5 / 32 / 32 / 32);
  const D c1 = splat<D>(0x1.ebfce50fac4f3p-3 / 32 / 32);
  const D c2 = splat<D>(0x1.62e42ff0c52d6p-1 / 32);
  const D p = c0 * r + c1;
  const D y = (p * (r * r) + (c2 * r + splat<D>(1.0))) * s;
  F out = __builtin_convertvector(y, F);
  out = select(x < splat<F>(-0x1.9fe368p6f), F{}, out);
  out = select(x > splat<F>(0x1.62e42ep6f), splat<F>(__builtin_inff()), out);
  return select(x != x, x + x, out);
}

/// row[c] = exp(row[c] - max) / sum for R rows of n >= 1 floats each (row
/// stride n): the max as std::max folds it (a NaN in row[0] wins, a later
/// one is skipped), exp on lanes, then the ascending scalar sum and one
/// reciprocal multiply per element. The R rows' max and sum chains are
/// interleaved, which changes no row's order of operations.
template <int W, int R>
MIRAGE_SIMD_INLINE void softmax_row_block(float* x, std::size_t n) {
  using F = typename Lanes<W>::F;
  float mx[R], sum[R];
  for (int r = 0; r < R; ++r) mx[r] = x[r * n];
  for (std::size_t c = 1; c < n; ++c) {
    for (int r = 0; r < R; ++r) mx[r] = std::max(mx[r], x[r * n + c]);
  }
  for (int r = 0; r < R; ++r) {
    float* row = x + r * n;
    const F m = splat<F>(mx[r]);
    std::size_t c = 0;
    for (; c + W <= n; c += W) store(row + c, exp_lanes<W>(load<F>(row + c) - m));
    if (c < n) store_n(row + c, exp_lanes<W>(load_n<F>(row + c, n - c) - m), n - c);
    sum[r] = 0.0f;
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (int r = 0; r < R; ++r) sum[r] += x[r * n + c];
  }
  for (int r = 0; r < R; ++r) {
    const float inv = 1.0f / sum[r];
    for (std::size_t c = 0; c < n; ++c) x[r * n + c] *= inv;
  }
}

/// The softmax of every row of a [rows, n] block, 8 rows at a time.
template <int W>
MIRAGE_SIMD_INLINE void softmax_rows(float* x, std::size_t rows, std::size_t n) {
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) softmax_row_block<W, 8>(x + r * n, n);
  for (; r < rows; ++r) softmax_row_block<W, 1>(x + r * n, n);
}

}  // namespace mirage::nn::simd
