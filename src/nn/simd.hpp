// Lane-parallel building blocks for the nn kernels (tanh/GELU in
// layers.cpp, the A*B^T GEMM tile in tensor.cpp, exp and softmax in
// softmax_lanes.hpp, the attention core in attention.cpp).
//
// Each kernel is ONE template over the lane width W, written with the
// GCC/Clang vector extensions, and instantiated twice: W=4 for the
// baseline ISA (SSE2 on x86-64, the target's generic vectors elsewhere)
// and W=8 inside a function compiled with __attribute__((target("avx2"))).
// The width is picked once per process from the CPU (active_isa()); no
// build flag, option or environment variable selects it.
//
// Every ISA gives the same bits. The kernels use only IEEE add, sub, mul,
// div and integer bit operations, each element's operations happen in the
// same order at every width, and no lane ever mixes with another. The AVX2
// path deliberately does NOT enable FMA (nor avx512f / x86-64-v3, which
// imply it): GCC contracts a*b+c into a fused multiply-add whenever FMA is
// available, and a fused result is rounded once instead of twice, which
// changes bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define MIRAGE_SIMD_X86 1
#else
#define MIRAGE_SIMD_X86 0
#endif

/// Forces a helper into its caller so the caller's target ISA (AVX2 in
/// the W=8 instantiation) applies to its body.
#define MIRAGE_SIMD_INLINE inline __attribute__((always_inline))

namespace mirage::nn::simd {

/// Instruction sets the nn kernels are compiled for.
enum class Isa {
  kBaseline,  ///< 4 lanes: SSE2 on x86-64, generic vectors elsewhere
  kAvx2,      ///< 8 lanes, AVX2 without FMA (x86 only)
};

/// True iff this CPU (and OS) can run kernels built for `isa`.
inline bool cpu_supports(Isa isa) {
  if (isa == Isa::kBaseline) return true;
#if MIRAGE_SIMD_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// The ISA the nn layers run on: the widest the CPU supports, chosen once.
inline Isa active_isa() {
  static const Isa isa = cpu_supports(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
}

inline const char* isa_name(Isa isa) {
  if (isa == Isa::kAvx2) return "avx2";
  return MIRAGE_SIMD_X86 ? "sse2" : "generic";
}

/// W float lanes with matching 32-bit integer lanes for masks and bits,
/// and W double lanes with matching 64-bit integer lanes.
template <int W>
struct Lanes {
  typedef float F __attribute__((vector_size(4 * W)));
  typedef std::int32_t I __attribute__((vector_size(4 * W)));
  typedef std::uint32_t U __attribute__((vector_size(4 * W)));
  typedef double D __attribute__((vector_size(8 * W)));
  typedef std::uint64_t UD __attribute__((vector_size(8 * W)));
};

/// Shuffle index 0 for every lane L.
template <std::size_t L>
inline constexpr int kLane0 = 0;

template <class V, class T, std::size_t... L>
MIRAGE_SIMD_INLINE V splat_lanes(T c, std::index_sequence<L...>) {
  V v{};
  v[0] = c;
  return __builtin_shufflevector(v, v, kLane0<L>...);
}

/// Every lane = c. Written as a shuffle of lane 0 because GCC builds a
/// 32-byte {c, c, ...} initializer from two halves instead of one
/// broadcast.
template <class V, class T>
MIRAGE_SIMD_INLINE V splat(T c) {
  return splat_lanes<V>(c, std::make_index_sequence<sizeof(V) / sizeof(T)>{});
}

template <class V>
MIRAGE_SIMD_INLINE V load(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
MIRAGE_SIMD_INLINE void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Loads p[0, n) into the first n lanes (n <= lanes) and zeros the rest.
template <class V>
MIRAGE_SIMD_INLINE V load_n(const float* p, std::size_t n) {
  V v{};
  std::memcpy(&v, p, n * sizeof(float));
  return v;
}

/// Stores the first n lanes of v to p[0, n).
template <class V>
MIRAGE_SIMD_INLINE void store_n(float* p, const V& v, std::size_t n) {
  std::memcpy(p, &v, n * sizeof(float));
}

/// Per lane: mask ? a : b (mask lanes are all-ones or all-zeros, as the
/// vector comparisons produce).
template <class F, class I>
MIRAGE_SIMD_INLINE F select(const I& mask, const F& a, const F& b) {
  return (F)((mask & (I)a) | (~mask & (I)b));
}

#if MIRAGE_SIMD_X86
template <class Kernel, class... Args>
__attribute__((target("avx2"))) void run_avx2(Args... args) {
  Kernel::template run<8>(args...);
}
#endif

/// Runs Kernel::run<W>(args...) at the lane width of `isa`. Kernel::run
/// and everything it calls must be MIRAGE_SIMD_INLINE, so the W=8 body is
/// compiled inside run_avx2's AVX2 target. The helpers take vectors by
/// const reference (a 32-byte by-value parameter makes GCC print an ABI
/// note that no pragma silences) and return them by value, which GCC flags
/// as an ABI difference across ISAs (-Wpsabi). Since the helpers are always
/// inlined that is moot, and files that instantiate kernels silence it.
template <class Kernel, class... Args>
void dispatch(Isa isa, Args... args) {
#if MIRAGE_SIMD_X86
  if (isa == Isa::kAvx2) return run_avx2<Kernel>(args...);
#endif
  Kernel::template run<4>(args...);
}

}  // namespace mirage::nn::simd
