// W=8 kernels pass vectors between always-inlined helpers: see simd.hpp.
#pragma GCC diagnostic ignored "-Wpsabi"

#include "nn/tensor.hpp"

#include <algorithm>

#include "nn/parallel.hpp"
#include "nn/softmax_lanes.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace mirage::nn {

Tensor Tensor::row_vector(std::span<const float> values) {
  Tensor t(1, values.size());
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor& Tensor::add(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::add_scaled(const Tensor& other, float s) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
  return *this;
}

Tensor& Tensor::mul(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::scale(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

float Tensor::squared_norm() const {
  float acc = 0.0f;
  for (float v : data_) acc += v * v;
  return acc;
}

// --------------------------------------------------------------------------
// Parallel deterministic GEMM.
//
// All three variants run through ONE scheme: the output matrix is cut into
// a fixed 2-D tile grid (kTileM x kTileN, a function of the output shape
// only — never of the thread count), tiles are assigned to worker slots
// round-robin by ascending tile index, and every slot computes its tiles
// with the SAME kernel the serial path uses on the single whole-matrix
// tile. Slots own disjoint regions of `out` (no partial k-sums are ever
// merged — each slot owns an element's full k reduction), and within a
// kernel every element accumulates its k-products in strictly ascending k
// order. The value of out[i][j] therefore depends only on (a, b, i, j),
// not on the tile boundaries or the thread count: parallel(T) == serial
// BITWISE for every T, which is what lets the lab's parallel-cell sweeps
// run GEMM at 1 thread while serial runs fan out across the machine and
// still produce bitwise-identical leaderboards.
//
// Small matrices (work < kParallelMinWork) take the serial whole-matrix
// path outright so per-layer forwards of tiny models never pay dispatch
// overhead (futures + wakeups cost microseconds; a 64^3 GEMM is one).
namespace {

constexpr std::size_t kBlockK = 128;  // ~n*512 B of B per block: L1/L2-resident
constexpr std::size_t kTileM = 16;    // multiple of the 4-row register block
constexpr std::size_t kTileN = 256;   // long contiguous j runs for the vectorizer
/// Parallelize only above this m*k*n volume (~a 64^3 GEMM).
constexpr std::size_t kParallelMinWork = 64 * 64 * 64;

/// ikj-order tile kernel for out[i0:i1, j0:j1] += A * B (A MxK, B KxN).
/// The k loop is cache-blocked so one block of B rows stays hot across
/// every row of the tile, and rows are register-blocked 4 at a time: one
/// sweep of a B row feeds four independent output-row accumulation
/// streams (4x fewer B loads, 4 independent FMA chains for the
/// vectorizer). For each output element the products still accumulate in
/// strictly ascending k order (blocks ascend, k ascends within a block,
/// and a row's update at k happens iff a[i][k] != 0 exactly as in the
/// single-row form), so results are bitwise identical to the unblocked
/// serial kernel regardless of tiling.
void gemm_nn_tile(const float* __restrict a, const float* __restrict b,
                  float* __restrict out, std::size_t k, std::size_t n, std::size_t i0,
                  std::size_t i1, std::size_t j0, std::size_t j1, bool accumulate) {
  if (!accumulate) {
    for (std::size_t i = i0; i < i1; ++i) std::fill(out + i * n + j0, out + i * n + j1, 0.0f);
  }
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t p1 = std::min(k, p0 + kBlockK);
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float* __restrict a0 = a + (i + 0) * k;
      const float* __restrict a1 = a + (i + 1) * k;
      const float* __restrict a2 = a + (i + 2) * k;
      const float* __restrict a3 = a + (i + 3) * k;
      float* __restrict o0 = out + (i + 0) * n;
      float* __restrict o1 = out + (i + 1) * n;
      float* __restrict o2 = out + (i + 2) * n;
      float* __restrict o3 = out + (i + 3) * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        const float* __restrict brow = b + p * n;
        if (av0 != 0.0f && av1 != 0.0f && av2 != 0.0f && av3 != 0.0f) {
          for (std::size_t j = j0; j < j1; ++j) {
            const float bv = brow[j];
            o0[j] += av0 * bv;
            o1[j] += av1 * bv;
            o2[j] += av2 * bv;
            o3[j] += av3 * bv;
          }
        } else {
          // Per-row zero skip, exactly as the single-row form takes it:
          // a row updates at this k iff its a-value is nonzero.
          if (av0 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o0[j] += av0 * brow[j];
          }
          if (av1 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o1[j] += av1 * brow[j];
          }
          if (av2 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o2[j] += av2 * brow[j];
          }
          if (av3 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o3[j] += av3 * brow[j];
          }
        }
      }
    }
    for (; i < i1; ++i) {
      const float* __restrict arow = a + i * k;
      float* __restrict orow = out + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* __restrict brow = b + p * n;
        for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

/// Tile kernel for out[i0:i1, j0:j1] (+)= A * B^T (A MxK, B NxK), on W
/// lanes. The tile's B rows are first transposed into a thread-local
/// scratch (k rows of the tile's columns, zero-padded to whole vectors;
/// allocation-free once warm), so one vector load yields W columns at one
/// p. The kernel then holds an R-row x NV-vector block of outputs (up to
/// 4 x 2) in registers across the whole k loop. Each element keeps the scalar
/// arithmetic exactly: acc = +0, acc += a[i][p] * b[j][p] for ascending p,
/// then out = (accumulate ? out : +0) + acc. Results are therefore bitwise
/// independent of the tiling, the blocking and the lane width.
struct GemmNtTile {
  template <int W, int R, int NV>
  MIRAGE_SIMD_INLINE static void block(const float* __restrict a, const float* __restrict bt,
                                       float* __restrict out, std::size_t k, std::size_t ldbt,
                                       std::size_t n, std::size_t cols, bool accumulate) {
    using F = typename simd::Lanes<W>::F;
    F acc[R][NV];
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NV; ++v) acc[r][v] = F{};
    }
    for (std::size_t p = 0; p < k; ++p) {
      F bv[NV];
      for (int v = 0; v < NV; ++v) bv[v] = simd::load<F>(bt + p * ldbt + v * W);
      for (int r = 0; r < R; ++r) {
        const F av = simd::splat<F>(a[r * k + p]);
        for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
      }
    }
    for (int r = 0; r < R; ++r) {
      float* orow = out + r * n;
      for (int v = 0; v < NV; ++v) {
        const std::size_t c0 = static_cast<std::size_t>(v) * W;
        if (c0 + W <= cols) {
          const F base = accumulate ? simd::load<F>(orow + c0) : F{};
          simd::store(orow + c0, base + acc[r][v]);
        } else if (c0 < cols) {  // partial last vector: the valid columns only
          const F base = accumulate ? simd::load_n<F>(orow + c0, cols - c0) : F{};
          simd::store_n(orow + c0, base + acc[r][v], cols - c0);
        }
      }
    }
  }

  /// Rows i0..i1 of one column block: 4-row register blocks, then single
  /// rows.
  template <int W, int NV>
  MIRAGE_SIMD_INLINE static void rows(const float* a, const float* bt, float* out,
                                      std::size_t k, std::size_t ldbt, std::size_t n,
                                      std::size_t i0, std::size_t i1, std::size_t cols,
                                      bool accumulate) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      block<W, 4, NV>(a + i * k, bt, out + i * n, k, ldbt, n, cols, accumulate);
    }
    for (; i < i1; ++i) block<W, 1, NV>(a + i * k, bt, out + i * n, k, ldbt, n, cols, accumulate);
  }

  template <int W>
  MIRAGE_SIMD_INLINE static void run(const float* a, const float* b, float* out, std::size_t k,
                                     std::size_t n, std::size_t i0, std::size_t i1,
                                     std::size_t j0, std::size_t j1, bool accumulate) {
    const std::size_t jn = j1 - j0;
    const std::size_t ldbt = (jn + W - 1) / W * W;
    // Never empty, so the pointer arithmetic below never starts from null.
    thread_local std::vector<float> scratch(4096);
    if (scratch.size() < k * ldbt) scratch.resize(k * ldbt);
    float* __restrict bt = scratch.data();
    for (std::size_t p = 0; p < k; ++p) {
      float* row = bt + p * ldbt;
      for (std::size_t j = 0; j < jn; ++j) row[j] = b[(j0 + j) * k + p];
      std::fill(row + jn, row + ldbt, 0.0f);
    }
    // Column blocks of 2 vectors; a last block of one vector when that is
    // all that is left.
    for (std::size_t jb = 0; jb < jn; jb += 2 * W) {
      const std::size_t cols = std::min<std::size_t>(2 * W, jn - jb);
      float* o = out + j0 + jb;
      if (cols > W) {
        rows<W, 2>(a, bt + jb, o, k, ldbt, n, i0, i1, cols, accumulate);
      } else {
        rows<W, 1>(a, bt + jb, o, k, ldbt, n, i0, i1, cols, accumulate);
      }
    }
  }
};

/// Tile kernel for out[i0:i1, j0:j1] += A^T * B (A KxM, B KxN). k stays the
/// OUTER loop (one pass over A and B rows feeds every tile row), so each
/// element accumulates ascending-k directly into out — the same order the
/// whole-matrix serial sweep uses.
void gemm_tn_tile(const float* __restrict a, const float* __restrict b,
                  float* __restrict out, std::size_t m, std::size_t k, std::size_t n,
                  std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                  bool accumulate) {
  if (!accumulate) {
    for (std::size_t i = i0; i < i1; ++i) std::fill(out + i * n + j0, out + i * n + j1, 0.0f);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict arow = a + p * m;
    const float* __restrict brow = b + p * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* __restrict orow = out + i * n;
      for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Dispatch one GEMM over the fixed output-tile grid. `kernel(i0,i1,j0,j1)`
/// must fully compute that output region (including its zero-fill when not
/// accumulating). `work` = m*k*n decides the serial fast path.
template <typename Kernel>
void dispatch_tiles(std::size_t m, std::size_t n, std::size_t work, Kernel&& kernel) {
  const std::size_t threads = num_threads();
  if (threads <= 1 || work < kParallelMinWork || m == 0 || n == 0) {
    kernel(std::size_t{0}, m, std::size_t{0}, n);
    return;
  }
  const std::size_t tiles_m = (m + kTileM - 1) / kTileM;
  const std::size_t tiles_n = (n + kTileN - 1) / kTileN;
  const std::size_t tiles = tiles_m * tiles_n;
  if (tiles <= 1) {
    kernel(std::size_t{0}, m, std::size_t{0}, n);
    return;
  }
  // Static schedule: slot w owns tiles {w, w+T, w+2T, ...} in ascending
  // order. Which OS thread runs a slot is irrelevant to results — slots
  // write disjoint tiles and every element's k reduction lives entirely
  // inside one slot.
  const std::size_t T = std::min(threads, tiles);
  detail::gemm_pool().run_static(T, [&](std::size_t w) {
    for (std::size_t t = w; t < tiles; t += T) {
      const std::size_t ti = t / tiles_n;
      const std::size_t tj = t % tiles_n;
      const std::size_t i0 = ti * kTileM;
      const std::size_t j0 = tj * kTileN;
      kernel(i0, std::min(m, i0 + kTileM), j0, std::min(n, j0 + kTileN));
    }
  });
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  OBS_SPAN_SAMPLED("nn_gemm", 4);
  assert(a.cols() == b.rows());
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    assert(!accumulate);
    out = Tensor(a.rows(), b.cols());
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  dispatch_tiles(m, n, m * k * n,
                 [=](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
                   gemm_nn_tile(pa, pb, po, k, n, i0, i1, j0, j1, accumulate);
                 });
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  // out[MxN] = A^T * B where A is [KxM], B is [KxN].
  OBS_SPAN_SAMPLED("nn_gemm", 4);
  assert(a.rows() == b.rows());
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  if (out.rows() != m || out.cols() != n) {
    assert(!accumulate);
    out = Tensor(m, n);
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  dispatch_tiles(m, n, m * k * n,
                 [=](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
                   gemm_tn_tile(pa, pb, po, m, k, n, i0, i1, j0, j1, accumulate);
                 });
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate, simd::Isa isa) {
  // out[MxN] = A * B^T where A is [MxK], B is [NxK].
  OBS_SPAN_SAMPLED("nn_gemm", 4);
  assert(a.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (out.rows() != m || out.cols() != n) {
    assert(!accumulate);
    out = Tensor(m, n);
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  dispatch_tiles(m, n, m * k * n,
                 [=](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
                   simd::dispatch<GemmNtTile>(isa, pa, pb, po, k, n, i0, i1, j0, j1,
                                              accumulate);
                 });
}

void add_bias_rows(Tensor& x, const Tensor& bias) {
  assert(bias.rows() == 1 && bias.cols() == x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.row(r);
    const float* b = bias.data();
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] += b[c];
  }
}

namespace {

struct ExpKernel {
  template <int W>
  MIRAGE_SIMD_INLINE static void run(const float* x, float* y, std::size_t n) {
    using F = typename simd::Lanes<W>::F;
    std::size_t i = 0;
    for (; i + W <= n; i += W) simd::store(y + i, simd::exp_lanes<W>(simd::load<F>(x + i)));
    if (i < n) simd::store_n(y + i, simd::exp_lanes<W>(simd::load_n<F>(x + i, n - i)), n - i);
  }
};

struct SoftmaxRows {
  template <int W>
  MIRAGE_SIMD_INLINE static void run(float* x, std::size_t rows, std::size_t cols) {
    simd::softmax_rows<W>(x, rows, cols);
  }
};

}  // namespace

void exp(const float* x, float* y, std::size_t n, simd::Isa isa) {
  simd::dispatch<ExpKernel>(isa, x, y, n);
}

void softmax_rows(Tensor& x, simd::Isa isa) {
  simd::dispatch<SoftmaxRows>(isa, x.data(), x.rows(), x.cols());
}

}  // namespace mirage::nn
