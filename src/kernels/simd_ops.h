// Internal: the vector operations and the run-time ISA choice shared by the
// SIMD kernels (kernels::gemm, kernels::paged_qk_dot/paged_av_accumulate and
// the exp-based kernels: gelu, tanh and the softmaxes).
//
// Each kernel is written once against an `Ops` struct and compiled once per
// ISA: its .cc file includes the kernel text (a .inc file) into one
// namespace per variant, under that variant's `#pragma GCC target`, with
// `using Ops = simd::<isa>::Ops;` in front. It is included rather than
// templated because GCC gives template instantiations the target options of
// the template's definition.
//
// `Ops` supplies: V (a vector of W floats), Mask, W, zero, set1, load,
// loadm (masked-off lanes read 0), store, storem, mask(n) (the first n
// lanes), add, sub, mul, div, fma, min and max (x86's minps/maxps: b when
// either is NaN or both are zero), round (to nearest, ties to even), scalef
// (x * 2^n for an integral n in [-126, 127]) and sum16 (one fixed reduction
// tree over 16 lanes held in 16 / W vectors: l + (l+8), then l + (l+4),
// l + (l+2), l + (l+1)); plus the
// tile sizes: the GEMM's packed-panel tile of up to kTileRows rows by
// kPanelVecs vectors (kPanelVecs * W divides PackedWeight::kPanelWidth) and
// its transposed tile kDotRows x kDotCols, and paged attention's av strip of
// kStripVecs vectors. Every operation rounds once per element,
// so the three variants give the same bits for the same sequence of calls.
//
// The x86 variants use GCC's target pragmas, which clang lacks; other
// targets and clang build the portable variant alone.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__x86_64__) && !defined(__clang__)
#define TT_SIMD_X86 1
#include <immintrin.h>
#endif

namespace turbo::kernels {

namespace detail {

enum class Isa { kPortable, kAvx2, kAvx512 };

// Whether this build and this CPU can run `isa`.
inline bool isa_supported(Isa isa) {
#if defined(TT_SIMD_X86)
  __builtin_cpu_init();
  const bool has_avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (isa == Isa::kAvx2) return has_avx2;
  if (isa == Isa::kAvx512) return has_avx2 && __builtin_cpu_supports("avx512f");
#endif
  return isa == Isa::kPortable;
}

// The widest ISA isa_supported, decided once per process. No build flag,
// option or environment variable changes it.
inline Isa best_isa() {
  static const Isa kBest = [] {
    for (Isa isa : {Isa::kAvx512, Isa::kAvx2}) {
      if (isa_supported(isa)) return isa;
    }
    return Isa::kPortable;
  }();
  return kBest;
}

}  // namespace detail

namespace simd {

// Portable: one float per "vector", std::fma per element.
namespace portable {
struct Ops {
  using V = float;
  using Mask = bool;
  static constexpr int W = 1;
  static constexpr int kTileRows = 4;
  static constexpr int kPanelVecs = 4;
  static constexpr int kStripVecs = 4;
  static constexpr int kDotRows = 1;
  static constexpr int kDotCols = 1;
  static V zero() { return 0.0f; }
  static V set1(float x) { return x; }
  static V load(const float* p) { return *p; }
  static V loadm(const float* p, Mask m) { return m ? *p : 0.0f; }
  static void store(float* p, V v) { *p = v; }
  static void storem(float* p, V v, Mask m) {
    if (m) *p = v;
  }
  static Mask mask(int n) { return n > 0; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V div(V a, V b) { return a / b; }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V min(V a, V b) { return a < b ? a : b; }
  static V max(V a, V b) { return a > b ? a : b; }
  // Ties to even in the default rounding mode, which nothing here changes.
  static V round(V x) { return std::nearbyint(x); }
  // 2^n is a normal float, so the product rounds once. The NaN test keeps
  // the int conversion defined.
  static V scalef(V x, V n) {
    if (std::isnan(n)) return n;
    return x * std::bit_cast<float>((static_cast<int>(n) + 127) << 23);
  }
  static float sum16(const V* lanes) {
    float s[16];
    std::copy(lanes, lanes + 16, s);
    for (int half = 8; half >= 1; half /= 2) {
      for (int l = 0; l < half; ++l) s[l] += s[l + half];
    }
    return s[0];
  }
};
}  // namespace portable

#if defined(TT_SIMD_X86)

// sum16's tree from eight lanes down, shared by both x86 variants: lanes
// l + (l+4), then l + (l+2), then l + (l+1), in SSE registers.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
inline float sum8(__m256 s8) {
  const __m128 s4 =
      _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
  return _mm_cvtss_f32(s1);
}

namespace avx2 {
struct Ops {
  using V = __m256;
  using Mask = __m256i;
  static constexpr int W = 8;
  // 4 x 3 accumulators, 3 B vectors and one broadcast fill the 16 ymm
  // registers.
  static constexpr int kTileRows = 4;
  static constexpr int kPanelVecs = 3;
  static constexpr int kStripVecs = 3;
  static constexpr int kDotRows = 2;
  static constexpr int kDotCols = 2;
  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V loadm(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void storem(float* p, V v, Mask m) { _mm256_maskstore_ps(p, m, v); }
  static Mask mask(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V min(V a, V b) { return _mm256_min_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V round(V x) {
    return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  // 2^n from its exponent bits, n + 127 in [1, 254]: at n = 128 they would
  // read inf.
  static V scalef(V x, V n) {
    const __m256i e = _mm256_add_epi32(_mm256_cvtps_epi32(n),
                                       _mm256_set1_epi32(127));
    return _mm256_mul_ps(x, _mm256_castsi256_ps(_mm256_slli_epi32(e, 23)));
  }
  // Lanes 0-7 in lanes[0], 8-15 in lanes[1]: first l + (l+8).
  static float sum16(const V* lanes) {
    return sum8(_mm256_add_ps(lanes[0], lanes[1]));
  }
};
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma")
namespace avx512 {
struct Ops {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr int W = 16;
  // 8 x 3 accumulators, 3 B vectors and one broadcast take 28 of the 32 zmm
  // registers.
  static constexpr int kTileRows = 8;
  static constexpr int kPanelVecs = 3;
  static constexpr int kStripVecs = 4;
  static constexpr int kDotRows = 4;
  static constexpr int kDotCols = 4;
  static constexpr Mask kAll = 0xffff;
  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V loadm(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void storem(float* p, V v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }
  static Mask mask(int n) { return static_cast<Mask>((1u << n) - 1u); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  // min, max, round and scalef in their zero-masked form under an all-ones
  // mask, for the reason sum16 gives below.
  static V min(V a, V b) { return _mm512_maskz_min_ps(kAll, a, b); }
  static V max(V a, V b) { return _mm512_maskz_max_ps(kAll, a, b); }
  static V round(V x) {
    return _mm512_maskz_roundscale_ps(
        kAll, x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static V scalef(V x, V n) { return _mm512_maskz_scalef_ps(kAll, x, n); }
  // First l + (l+8): the low and high 256-bit halves. Not
  // _mm512_reduce_add_ps, whose order is the compiler's. The extracts are
  // zero-masked because the unmasked ones (and _mm512_castps512_ps256)
  // pass an undefined vector through, which trips GCC 12's
  // -Wuninitialized.
  static float sum16(const V* lanes) {
    const __m512d v = _mm512_castps_pd(lanes[0]);
    const __m256 lo = _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xf, v, 0));
    const __m256 hi = _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xf, v, 1));
    return sum8(_mm256_add_ps(lo, hi));
  }
};
}  // namespace avx512
#pragma GCC pop_options

#endif  // TT_SIMD_X86

}  // namespace simd

}  // namespace turbo::kernels
