// Span-based attention kernels for paged (block-iterating) decode.
//
// The decoder's fused single-step attention walks a sequence's K/V history.
// When that history lives in pool blocks (genserve::KvCachePool), the rows
// of one block are contiguous hidden-strided strips, so the kernels run over
// [ptr, rows] extents instead of one row pointer per token, and each K row
// is read once while every head takes its strip.
//
// Like kernels::gemm, each kernel is one FMA kernel
// (paged_attention_microkernel.inc) built for AVX-512F, AVX2+FMA and a
// portable std::fma, run in the variant detail::best_isa() picks once per
// process (kernels/simd_ops.h). Both run serially on the calling thread:
// the decoder calls them once per row per layer, so an OpenMP team there
// would mostly cost wake-ups.
//
// Numerics: every build gives the same bits, and no result depends on how
// the rows are split into spans, on the row's position in a step batch or
// on the thread count. So a sequence in a dense cache (one span) and the
// same sequence in any pool layout (fragmented, prefix-shared)
// decode bit-identically.
//   - qk: each (head, row) score is the dot of gemm.h's trans_b contract:
//     16 partial sums starting at +0, lane l taking features dd = l mod 16
//     in ascending order as s = fma(q[dd], k[dd], s) (in the last, partial
//     chunk a lane past d takes fma(0, 0, s)), reduced by the fixed tree
//     l + (l+8), then l + (l+4), l + (l+2), l + (l+1).
//   - av: each output lane starts at its value in `out` and takes
//     out = fma(p[pos], v[pos], out) for pos ascending over all spans.
#pragma once

namespace turbo::kernels {

// One contiguous extent of K/V rows. Covers `rows` consecutive token
// positions of one layer; row r's K strip starts at k + r * row_stride and
// its V strip at v + r * row_stride (row_stride = heads * head_dim, the
// cache's hidden size). A pool block yields one span; a dense cache yields
// a single span covering everything.
struct KvSpan {
  const float* k = nullptr;
  const float* v = nullptr;
  int rows = 0;
};

// Attention scores over an extent list totalling `count` rows, all heads:
//   scores[h * count + pos(s, i)] = dot(q[h*d .. h*d+d),
//                                       spans[s].k[i * row_stride + h*d ..])
// where pos(s, i) numbers rows in span order.
void paged_qk_dot(const float* q, const KvSpan* spans, int num_spans,
                  long count, long row_stride, int heads, int d,
                  float* scores);

// Weighted-value accumulation over the same extent list:
//   out[h*d + dd] += probs[h * count + pos] * spans[s].v[i*row_stride + h*d + dd]
// one fma per row, in ascending pos order per output lane. `out` must hold
// heads * d floats, pre-initialized by the caller.
void paged_av_accumulate(const float* probs, const KvSpan* spans,
                         int num_spans, long count, long row_stride,
                         int heads, int d, float* out);

}  // namespace turbo::kernels
