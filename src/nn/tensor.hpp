// Dense row-major float32 matrix — the only tensor shape the Mirage models
// need (vectors are 1×n or n×1). Sized for CPU training of small
// transformers: contiguous storage, blocked GEMM, no allocation in the
// inner loops when the caller reuses outputs.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "nn/simd.hpp"

namespace mirage::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  static Tensor row_vector(std::span<const float> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void zero() { fill(0.0f); }
  /// Reshape in place; total size must match.
  void reshape(std::size_t rows, std::size_t cols) {
    assert(rows * cols == data_.size());
    rows_ = rows;
    cols_ = cols;
  }

  // Elementwise in-place helpers.
  Tensor& add(const Tensor& other);          ///< this += other
  Tensor& add_scaled(const Tensor& other, float s);  ///< this += s*other
  Tensor& mul(const Tensor& other);          ///< this *= other (Hadamard)
  Tensor& scale(float s);                    ///< this *= s

  /// Squared Frobenius norm.
  float squared_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// GEMM variants: out = A op B (+ accumulate when beta=1). All assert shape
// compatibility; `out` is resized as needed.
//   matmul      : out[MxN] = A[MxK] * B[KxN]
//   matmul_tn   : out[MxN] = A^T[KxM]^T... i.e. A[KxM] treated transposed
//   matmul_nt   : out[MxN] = A[MxK] * B^T (B is [NxK])
// matmul_nt runs a SIMD kernel; `isa` pins its lane width (tests and
// benches run each one), and every ISA gives the same bits.
void matmul(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate = false);
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate = false);
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate = false,
               simd::Isa isa = simd::active_isa());

/// Add a 1×C bias row to every row of x (in place).
void add_bias_rows(Tensor& x, const Tensor& bias);

/// y[i] = expf(x[i]) with the bits of glibc's non-FMA expf on every host
/// (a lane port; see softmax_lanes.hpp).
void exp(const float* x, float* y, std::size_t n, simd::Isa isa = simd::active_isa());

/// Row-wise softmax in place (numerically stable): exp(x - row max) over
/// the row sum, on the exp above, so its bits do not depend on the libm.
void softmax_rows(Tensor& x, simd::Isa isa = simd::active_isa());

}  // namespace mirage::nn
