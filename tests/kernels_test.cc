#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <list>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "kernels/elementwise.h"
#include "kernels/embedding.h"
#include "kernels/exp_variants.h"
#include "kernels/gemm.h"
#include "kernels/gemm_variants.h"
#include "kernels/paged_attention.h"
#include "kernels/paged_attention_variants.h"
#include "kernels/reduction.h"

namespace turbo::kernels {
namespace {

std::vector<float> random_vec(Rng& rng, size_t n, float lo = -1.0f,
                              float hi = 1.0f) {
  std::vector<float> v(n);
  rng.fill_uniform(v.data(), n, lo, hi);
  return v;
}

// ------------------------------------------------------------------ GEMM --

class GemmParam : public ::testing::TestWithParam<
                      std::tuple<int, int, int, bool>> {};

TEST_P(GemmParam, MatchesReference) {
  const auto [m, n, k, trans_b] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 1000 + n * 10 + k + trans_b));
  auto a = random_vec(rng, static_cast<size_t>(m) * k);
  auto b = random_vec(rng, static_cast<size_t>(k) * n);
  std::vector<float> c_opt(static_cast<size_t>(m) * n, 0.0f);
  std::vector<float> c_ref = c_opt;
  gemm(a.data(), b.data(), c_opt.data(), m, n, k, trans_b);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k, trans_b);
  for (size_t i = 0; i < c_opt.size(); ++i) {
    EXPECT_NEAR(c_opt[i], c_ref[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Values(std::make_tuple(1, 1, 1, false),
                      std::make_tuple(3, 5, 7, false),
                      std::make_tuple(3, 5, 7, true),
                      std::make_tuple(64, 64, 64, false),
                      std::make_tuple(65, 33, 17, false),
                      std::make_tuple(65, 33, 17, true),
                      std::make_tuple(128, 300, 257, false),
                      std::make_tuple(100, 100, 300, true)));

TEST(Gemm, AlphaBetaSemantics) {
  Rng rng(5);
  const int m = 8, n = 8, k = 8;
  auto a = random_vec(rng, 64);
  auto b = random_vec(rng, 64);
  std::vector<float> c(64, 2.0f), expected(64, 0.0f);
  gemm_ref(a.data(), b.data(), expected.data(), m, n, k, false, 0.5f, 0.0f);
  for (auto& e : expected) e += 2.0f * 0.25f;  // beta * old
  gemm(a.data(), b.data(), c.data(), m, n, k, false, 0.5f, 0.25f);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(c[i], expected[i], 1e-4f);
}

TEST(Gemm, ZeroSizedIsNoop) {
  float x = 42.0f;
  EXPECT_NO_THROW(gemm(&x, &x, &x, 0, 0, 0));
}

TEST(BatchedGemm, EachBatchIndependent) {
  Rng rng(9);
  const int batch = 3, m = 4, n = 5, k = 6;
  auto a = random_vec(rng, static_cast<size_t>(batch) * m * k);
  auto b = random_vec(rng, static_cast<size_t>(batch) * k * n);
  std::vector<float> c(static_cast<size_t>(batch) * m * n, 0.0f);
  batched_gemm(a.data(), b.data(), c.data(), batch, m, n, k,
               static_cast<long>(m) * k, static_cast<long>(k) * n,
               static_cast<long>(m) * n);
  for (int i = 0; i < batch; ++i) {
    std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
    gemm_ref(a.data() + static_cast<long>(i) * m * k,
             b.data() + static_cast<long>(i) * k * n, ref.data(), m, n, k);
    for (int j = 0; j < m * n; ++j) {
      EXPECT_NEAR(c[static_cast<size_t>(i) * m * n + j], ref[static_cast<size_t>(j)], 1e-3f);
    }
  }
}

TEST(BatchedGemm, SharedOperandViaZeroStride) {
  Rng rng(11);
  const int batch = 2, m = 3, n = 3, k = 3;
  auto a = random_vec(rng, static_cast<size_t>(m) * k);
  auto b = random_vec(rng, static_cast<size_t>(batch) * k * n);
  std::vector<float> c(static_cast<size_t>(batch) * m * n, 0.0f);
  batched_gemm(a.data(), b.data(), c.data(), batch, m, n, k, /*stride_a=*/0,
               static_cast<long>(k) * n, static_cast<long>(m) * n);
  // Both batches used the same A.
  std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
  gemm_ref(a.data(), b.data() + k * n, ref.data(), m, n, k);
  for (int j = 0; j < m * n; ++j) {
    EXPECT_NEAR(c[static_cast<size_t>(m * n + j)], ref[static_cast<size_t>(j)], 1e-4f);
  }
}

// A row of C depends only on its own A row, B and its own old C row: the
// same row computed alone (m = 1) and at any position of a larger m is
// bit-equal, across every row-tile height, the leftover-row tiles and 64-row
// thread blocks, and whether B comes row-major or packed.
class GemmBatchInvariance : public ::testing::TestWithParam<bool> {};

TEST_P(GemmBatchInvariance, RowMatchesItsSoloRun) {
  const bool trans_b = GetParam();
  const int n = 67, k = 37;
  const float alpha = 0.75f, beta = -0.5f;
  Rng rng(trans_b ? 41 : 42);
  const auto b = random_vec(rng, static_cast<size_t>(k) * n);
  const PackedWeight packed = PackedWeight::pack(b.data(), k, n);
  const auto a_row = random_vec(rng, static_cast<size_t>(k));
  const auto c_row = random_vec(rng, static_cast<size_t>(n));
  std::vector<float> solo = c_row;
  gemm(a_row.data(), b.data(), solo.data(), 1, n, k, trans_b, alpha, beta);

  for (int m : {2, 3, 5, 6, 7, 8, 9, 17, 64, 65}) {
    for (int pos : {0, 1, 3, 6, 8, 16, 63, 64}) {
      if (pos >= m) continue;
      auto a = random_vec(rng, static_cast<size_t>(m) * k);
      auto c = random_vec(rng, static_cast<size_t>(m) * n);
      std::copy(a_row.begin(), a_row.end(),
                a.begin() + static_cast<long>(pos) * k);
      std::copy(c_row.begin(), c_row.end(),
                c.begin() + static_cast<long>(pos) * n);
      auto c_packed = c;
      gemm(a.data(), b.data(), c.data(), m, n, k, trans_b, alpha, beta);
      EXPECT_EQ(std::memcmp(solo.data(), c.data() + static_cast<long>(pos) * n,
                            sizeof(float) * n),
                0)
          << "m=" << m << " pos=" << pos;
      if (trans_b) continue;
      gemm(a.data(), packed, c_packed.data(), m, alpha, beta);
      EXPECT_EQ(std::memcmp(solo.data(),
                            c_packed.data() + static_cast<long>(pos) * n,
                            sizeof(float) * n),
                0)
          << "packed m=" << m << " pos=" << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TransB, GemmBatchInvariance, ::testing::Bool());

// Every ISA variant the CPU supports is bit-equal to the portable one, and
// its packed-weight entry point to its raw one, on row counts that hit every
// leftover-row tile and shapes that hit every column tail and k tail.
class GemmVariantEquality
    : public ::testing::TestWithParam<detail::Isa> {};

TEST_P(GemmVariantEquality, BitEqualToPortable) {
  const detail::Isa isa = GetParam();
  if (!detail::isa_supported(isa)) {
    GTEST_SKIP() << "ISA not available on this CPU";
  }
  const float alpha = 0.75f, beta = -0.5f;
  for (int m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17}) {
    for (bool trans_b : {false, true}) {
      for (int n : {1, 15, 17, 47, 49, 63, 65, 1000}) {
        for (int k : {1, 15, 17, 1024}) {
          Rng rng((static_cast<uint64_t>(m) << 24) + n * 4096 + k * 2 +
                  trans_b);
          const auto a = random_vec(rng, static_cast<size_t>(m) * k);
          const auto b = random_vec(rng, static_cast<size_t>(k) * n);
          const auto c0 = random_vec(rng, static_cast<size_t>(m) * n);
          std::vector<float> want = c0, got = c0;
          detail::gemm(detail::Isa::kPortable, a.data(), b.data(),
                       want.data(), m, n, k, trans_b, alpha, beta);
          detail::gemm(isa, a.data(), b.data(), got.data(), m, n, k, trans_b,
                       alpha, beta);
          EXPECT_EQ(
              std::memcmp(want.data(), got.data(), sizeof(float) * m * n), 0)
              << "m=" << m << " n=" << n << " k=" << k
              << " trans_b=" << trans_b;
          if (trans_b) continue;
          std::vector<float> packed = c0;
          detail::gemm(isa, a.data(), PackedWeight::pack(b.data(), k, n),
                       packed.data(), m, alpha, beta);
          EXPECT_EQ(
              std::memcmp(got.data(), packed.data(), sizeof(float) * m * n),
              0)
              << "packed m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, GemmVariantEquality,
                         ::testing::Values(detail::Isa::kPortable,
                                           detail::Isa::kAvx2,
                                           detail::Isa::kAvx512));

// PackedWeight holds B once, in exactly k * n floats, gives it back
// bit-equal, and gemm over it is bit-equal to gemm over the row-major B.
TEST(PackedWeight, UnpackRestoresTheMatrixBitForBit) {
  for (int n : {1, 15, 47, 48, 49, 1000}) {
    for (int k : {0, 1, 17, 1024}) {
      Rng rng(static_cast<uint64_t>(n * 4096 + k));
      const auto b = random_vec(rng, static_cast<size_t>(k) * n);
      const PackedWeight packed = PackedWeight::pack(b.data(), k, n);
      EXPECT_EQ(packed.k(), k);
      EXPECT_EQ(packed.n(), n);
      EXPECT_EQ(packed.size(), static_cast<long>(k) * n);
      const Tensor back = packed.unpack();
      ASSERT_EQ(back.shape(), (Shape{k, n}));
      if (k == 0) continue;
      EXPECT_EQ(std::memcmp(back.data<float>(), b.data(), sizeof(float) * k * n),
                0)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(PackedWeight, PanelsHoldEveryColumnOnce) {
  // Panel p is [k, w] at offset p * kPanelWidth * k: the last panel of
  // n = 49 is one column wide and the buffer ends right after it.
  const int k = 3, n = 49;
  std::vector<float> b(static_cast<size_t>(k) * n);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i);
  const PackedWeight packed = PackedWeight::pack(b.data(), k, n);
  const int kPanel = PackedWeight::kPanelWidth;
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < kPanel; ++j) {
      EXPECT_EQ(packed.data()[kk * kPanel + j], b[static_cast<size_t>(kk) * n + j]);
    }
    EXPECT_EQ(packed.data()[kPanel * k + kk],
              b[static_cast<size_t>(kk) * n + kPanel]);
  }
}

TEST(PackedWeight, GemmBitEqualToRawGemm) {
  const std::pair<float, float> scales[] = {{1.0f, 0.0f}, {1.0f, 1.0f},
                                            {0.75f, -0.5f}};
  for (int n : {1, 15, 47, 48, 49, 1000}) {
    for (int k : {0, 1, 17, 1024}) {
      Rng rng(static_cast<uint64_t>(n * 4096 + k + 7));
      const auto b = random_vec(rng, static_cast<size_t>(k) * n);
      const PackedWeight packed = PackedWeight::pack(b.data(), k, n);
      for (int m : {1, 7, 17}) {
        const auto a = random_vec(rng, static_cast<size_t>(m) * k);
        const auto c0 = random_vec(rng, static_cast<size_t>(m) * n);
        for (const auto& [alpha, beta] : scales) {
          std::vector<float> want = c0, got = c0;
          gemm(a.data(), b.data(), want.data(), m, n, k, false, alpha, beta);
          gemm(a.data(), packed, got.data(), m, alpha, beta);
          EXPECT_EQ(
              std::memcmp(want.data(), got.data(), sizeof(float) * m * n), 0)
              << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
              << " beta=" << beta;
        }
      }
    }
  }
}

// ------------------------------------------------------- paged attention --

// One query over `count` K/V rows of `heads` heads of width d. split()
// copies the rows into separately allocated spans, so that every split
// really moves them.
struct PagedAttentionCase {
  PagedAttentionCase(int heads_, int d_, int count_, uint64_t seed)
      : heads(heads_), d(d_), count(count_), stride(heads_ * d_) {
    Rng rng(seed);
    q = random_vec(rng, static_cast<size_t>(stride));
    k = random_vec(rng, static_cast<size_t>(count) * stride);
    v = random_vec(rng, static_cast<size_t>(count) * stride);
    probs = random_vec(rng, static_cast<size_t>(heads) * count, 0.0f, 1.0f);
    out0 = random_vec(rng, static_cast<size_t>(stride));
  }

  // Spans of the given sizes, cycled until all rows are covered.
  std::vector<KvSpan> split(const std::vector<int>& sizes) {
    std::vector<KvSpan> spans;
    for (int row = 0, i = 0; row < count; ++i) {
      const int rows =
          std::min(sizes[static_cast<size_t>(i) % sizes.size()], count - row);
      const long at = static_cast<long>(row) * stride;
      const long len = static_cast<long>(rows) * stride;
      buffers.emplace_back(k.begin() + at, k.begin() + at + len);
      const float* kspan = buffers.back().data();
      buffers.emplace_back(v.begin() + at, v.begin() + at + len);
      spans.push_back(KvSpan{kspan, buffers.back().data(), rows});
      row += rows;
    }
    return spans;
  }

  std::vector<float> qk(detail::PagedQkFn fn, const std::vector<KvSpan>& s) {
    std::vector<float> scores(static_cast<size_t>(heads) * count);
    fn(q.data(), s.data(), static_cast<int>(s.size()), count, stride, heads,
       d, scores.data());
    return scores;
  }

  std::vector<float> av(detail::PagedAvFn fn, const std::vector<KvSpan>& s) {
    std::vector<float> out = out0;
    fn(probs.data(), s.data(), static_cast<int>(s.size()), count, stride,
       heads, d, out.data());
    return out;
  }

  int heads, d, count;
  long stride;
  std::vector<float> q, k, v, probs, out0;
  std::list<std::vector<float>> buffers;  // the spans' rows; stable addresses
};

const int kPagedDims[] = {16, 20, 48, 64};        // 20, 48: masked tails
const int kPagedCounts[] = {1, 15, 16, 17, 350};  // around the 16-lane width
const std::vector<int> kRagged = {5, 1, 16, 2, 7, 3};

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

// Every ISA variant the CPU supports is bit-equal to the portable one.
class PagedAttentionVariantEquality
    : public ::testing::TestWithParam<detail::Isa> {};

TEST_P(PagedAttentionVariantEquality, BitEqualToPortable) {
  const detail::PagedQkFn qk = detail::paged_qk_variant(GetParam());
  const detail::PagedAvFn av = detail::paged_av_variant(GetParam());
  if (qk == nullptr || av == nullptr) {
    GTEST_SKIP() << "ISA not available on this CPU";
  }
  const auto qk0 = detail::paged_qk_variant(detail::Isa::kPortable);
  const auto av0 = detail::paged_av_variant(detail::Isa::kPortable);
  for (int d : kPagedDims) {
    for (int count : kPagedCounts) {
      PagedAttentionCase c(3, d, count,
                           static_cast<uint64_t>(d * 1000 + count));
      const auto spans = c.split(kRagged);
      EXPECT_TRUE(bit_equal(c.qk(qk, spans), c.qk(qk0, spans)))
          << "qk d=" << d << " count=" << count;
      EXPECT_TRUE(bit_equal(c.av(av, spans), c.av(av0, spans)))
          << "av d=" << d << " count=" << count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, PagedAttentionVariantEquality,
                         ::testing::Values(detail::Isa::kAvx2,
                                           detail::Isa::kAvx512));

// In every variant, splitting the rows into spans changes no bit: one span
// vs 1-, 3- and 16-row spans and a ragged split.
TEST(PagedAttention, SpanSplitBitEqualToOneSpan) {
  for (detail::Isa isa :
       {detail::Isa::kPortable, detail::Isa::kAvx2, detail::Isa::kAvx512}) {
    const detail::PagedQkFn qk = detail::paged_qk_variant(isa);
    const detail::PagedAvFn av = detail::paged_av_variant(isa);
    if (qk == nullptr || av == nullptr) continue;
    for (int d : kPagedDims) {
      for (int count : kPagedCounts) {
        PagedAttentionCase c(4, d, count,
                             static_cast<uint64_t>(d * 1000 + count + 7));
        const auto one = c.split({count});
        const auto scores = c.qk(qk, one);
        const auto out = c.av(av, one);
        for (const auto& sizes :
             std::vector<std::vector<int>>{{1}, {3}, {16}, kRagged}) {
          const auto spans = c.split(sizes);
          EXPECT_TRUE(bit_equal(c.qk(qk, spans), scores))
              << "qk isa=" << static_cast<int>(isa) << " d=" << d
              << " count=" << count << " split=" << sizes[0];
          EXPECT_TRUE(bit_equal(c.av(av, spans), out))
              << "av isa=" << static_cast<int>(isa) << " d=" << d
              << " count=" << count << " split=" << sizes[0];
        }
      }
    }
  }
}

// The public kernels against a double-precision oracle. Whatever the
// order, a float sum whose terms each pass through at most n roundings is
// within n * 2^-24 (to first order; n <= 350 here keeps the rest below 1%)
// of the sum of the terms' magnitudes. A score's terms pass through at most
// d/16 + 5 <= d roundings (their lane's fmas and the 4-level tree), an
// output lane's through at most count.
TEST(PagedAttention, WithinRoundingBoundOfDoubleOracle) {
  const double u = std::ldexp(1.0, -24);
  for (int d : kPagedDims) {
    for (int count : kPagedCounts) {
      PagedAttentionCase c(4, d, count, static_cast<uint64_t>(d + count));
      const auto spans = c.split(kRagged);
      const auto scores = c.qk(paged_qk_dot, spans);
      const auto out = c.av(paged_av_accumulate, spans);
      for (int h = 0; h < c.heads; ++h) {
        for (int r = 0; r < count; ++r) {
          double ref = 0.0, mag = 0.0;
          for (int dd = 0; dd < d; ++dd) {
            const double q = c.q[static_cast<size_t>(h * d + dd)];
            const double term =
                q * c.k[static_cast<size_t>(r * c.stride + h * d + dd)];
            ref += term;
            mag += std::fabs(term);
          }
          const float got = scores[static_cast<size_t>(h * count + r)];
          EXPECT_LE(std::fabs(got - ref), 1.01 * d * u * mag)
              << "qk h=" << h << " row=" << r << " d=" << d;
        }
        for (int dd = 0; dd < d; ++dd) {
          const size_t lane = static_cast<size_t>(h * d + dd);
          double ref = c.out0[lane], mag = std::fabs(ref);
          for (int r = 0; r < count; ++r) {
            const double p = c.probs[static_cast<size_t>(h * count + r)];
            const double term =
                p * c.v[static_cast<size_t>(r * c.stride) + lane];
            ref += term;
            mag += std::fabs(term);
          }
          EXPECT_LE(std::fabs(out[lane] - ref), 1.01 * count * u * mag)
              << "av lane=" << lane << " d=" << d << " count=" << count;
        }
      }
    }
  }
}

// ------------------------------------------------------------ vector exp --

// exp's input range (exp_variants.h): inputs outside are clamped to it.
constexpr float kExpLo = -86.5f;
constexpr float kExpHi = 88.0f;
constexpr float kInf = std::numeric_limits<float>::infinity();
// Around both vector widths (8 and 16) and their tails.
const long kExpLengths[] = {1, 15, 16, 17, 63, 65, 1000};

// n random floats in [lo, hi], then +-0, the clamp ends, the floats on
// either side of them, +-1000 and +-inf planted at spread positions (so in
// several lanes and in the tail), as many as fit.
std::vector<float> exp_inputs(long n, float lo, float hi, uint64_t seed) {
  Rng rng(seed);
  auto v = random_vec(rng, static_cast<size_t>(n), lo, hi);
  const float specials[] = {0.0f,
                            -0.0f,
                            kExpLo,
                            kExpHi,
                            std::nextafter(kExpLo, 0.0f),
                            std::nextafter(kExpHi, 0.0f),
                            std::nextafter(kExpLo, -kInf),
                            std::nextafter(kExpHi, kInf),
                            -1000.0f,
                            1000.0f,
                            -kInf,
                            kInf};
  for (long i = 0; i < static_cast<long>(std::size(specials)) && i < n; ++i) {
    v[static_cast<size_t>(i * 7 % n)] = specials[i];
  }
  return v;
}

// worst = max(worst, err), but a NaN err stays (std::max would drop it).
void keep_worst(double& worst, double err) {
  if (!(err <= worst)) worst = err;
}

std::vector<float> exp_of(const detail::ExpKernels& k,
                          const std::vector<float>& x) {
  std::vector<float> y(x.size());
  k.exp(x.data(), y.data(), static_cast<long>(x.size()));
  return y;
}

std::vector<float> apply(void (*fn)(float*, long), std::vector<float> x) {
  fn(x.data(), static_cast<long>(x.size()));
  return x;
}

std::vector<float> softmax_of(const detail::ExpKernels& k,
                              std::vector<float> x, float scale) {
  k.softmax_row(x.data(), static_cast<long>(x.size()), scale);
  return x;
}

// Every ISA variant the CPU supports is bit-equal to the portable one on
// every exp-based kernel, at lengths around both vector widths, with the
// clamp ends, +-0 and +-inf among the inputs.
class ExpVariantEquality : public ::testing::TestWithParam<detail::Isa> {};

TEST_P(ExpVariantEquality, BitEqualToPortable) {
  const detail::ExpKernels* k = detail::exp_kernels(GetParam());
  if (k == nullptr) {
    GTEST_SKIP() << "ISA not available on this CPU";
  }
  const detail::ExpKernels& k0 = *detail::exp_kernels(detail::Isa::kPortable);
  for (long n : kExpLengths) {
    const auto seed = static_cast<uint64_t>(n);
    const auto x = exp_inputs(n, -100.0f, 100.0f, seed);
    EXPECT_TRUE(bit_equal(exp_of(*k, x), exp_of(k0, x))) << "exp n=" << n;

    const auto a = exp_inputs(n, -20.0f, 20.0f, seed + 1);
    EXPECT_TRUE(bit_equal(apply(k->gelu, a), apply(k0.gelu, a)))
        << "gelu n=" << n;
    EXPECT_TRUE(bit_equal(apply(k->tanh, a), apply(k0.tanh, a)))
        << "tanh n=" << n;

    const long rows = 3;
    const auto data = exp_inputs(rows * n, -20.0f, 20.0f, seed + 2);
    Rng rng(seed + 3);
    const auto bias = random_vec(rng, static_cast<size_t>(n));
    auto want = data, got = data;
    detail::add_bias_gelu(k0, want.data(), bias.data(), rows, n);
    detail::add_bias_gelu(*k, got.data(), bias.data(), rows, n);
    EXPECT_TRUE(bit_equal(want, got)) << "add_bias_gelu n=" << n;

    // Logits with +-0 among them; no inf, whose softmax is NaN.
    auto logits = random_vec(rng, static_cast<size_t>(n), -30.0f, 30.0f);
    logits[0] = -0.0f;
    logits[static_cast<size_t>(n / 2)] = 0.0f;
    for (float scale : {1.0f, 0.125f}) {
      EXPECT_TRUE(bit_equal(softmax_of(*k, logits, scale),
                            softmax_of(k0, logits, scale)))
          << "softmax_row n=" << n << " scale=" << scale;
    }

    const int batch = 2, heads = 2;
    const long s_q = 2;
    const std::vector<int> valid{static_cast<int>(n),
                                 static_cast<int>((n + 1) / 2)};
    const auto scores =
        random_vec(rng, static_cast<size_t>(batch * heads * s_q * n), -30.0f,
                   30.0f);
    want = scores;
    got = scores;
    detail::attention_softmax(k0, want.data(), batch, heads, s_q, n, 0.125f,
                              valid.data());
    detail::attention_softmax(*k, got.data(), batch, heads, s_q, n, 0.125f,
                              valid.data());
    EXPECT_TRUE(bit_equal(want, got)) << "attention_softmax n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, ExpVariantEquality,
                         ::testing::Values(detail::Isa::kAvx2,
                                           detail::Isa::kAvx512));

// exp is within 2 ulp of exp in double over its whole input range. Outside
// it, it reads the clamp end's value: a normal float, never a denormal, 0
// or inf. exp(+-0) is exactly 1, and NaN stays NaN.
TEST(Exp, WithinTwoUlpOfDoubleOracle) {
  const detail::ExpKernels& k = detail::best_exp_kernels();
  const long n = 1 << 20;
  std::vector<float> x(static_cast<size_t>(n));
  for (long i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] =
        kExpLo + (kExpHi - kExpLo) * static_cast<float>(i) / (n - 1);
  }
  x.back() = kExpHi;
  const auto y = exp_of(k, x);
  double max_ulp = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double ref = std::exp(static_cast<double>(x[i]));
    const double ulp =
        std::ldexp(1.0, std::ilogb(static_cast<float>(ref)) - 23);
    keep_worst(max_ulp, std::fabs(y[i] - ref) / ulp);
  }
  EXPECT_LE(max_ulp, 2.0);

  const auto ends = exp_of(k, {kExpLo, kExpHi});
  const auto below = exp_of(k, {std::nextafter(kExpLo, -kInf), -87.4f,
                                -104.0f, -1000.0f, -kInf});
  for (float v : below) {
    EXPECT_EQ(v, ends[0]);
    EXPECT_GE(v, std::numeric_limits<float>::min());  // normal, not 0
  }
  for (float v : exp_of(k, {std::nextafter(kExpHi, kInf), 88.8f, 1000.0f,
                            kInf})) {
    EXPECT_EQ(v, ends[1]);
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(exp_of(k, {0.0f, -0.0f}), (std::vector<float>{1.0f, 1.0f}));
  EXPECT_TRUE(std::isnan(exp_of(k, {std::nanf("")})[0]));
}

// gelu is within 1e-6 of BERT's tanh formula in double over [-20, 20], and
// tanh within 3e-7 of tanh in double.
TEST(Gelu, WithinAbsBoundOfDoubleOracle) {
  const long n = 1 << 20;
  std::vector<float> x(static_cast<size_t>(n));
  for (long i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] =
        -20.0f + 40.0f * static_cast<float>(i) / (n - 1);
  }
  auto g = x, t = x;
  gelu(g.data(), n);
  tanh(t.data(), n);
  double gelu_err = 0.0, tanh_err = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    const double u = 0.7978845608028654 * (v + 0.044715 * v * v * v);
    const double ref = 0.5 * v * (1.0 + std::tanh(u));
    keep_worst(gelu_err, std::fabs(g[i] - ref));
    keep_worst(tanh_err, std::fabs(t[i] - std::tanh(v)));
  }
  EXPECT_LE(gelu_err, 1e-6);
  EXPECT_LE(tanh_err, 3e-7);
}

// A row's bits are its own, in every variant: a row computed alone is
// bit-equal to the same row at element offset 0, 3 or 64 of a longer
// buffer (other lanes, other tails) run through the public kernels, and
// to the valid prefix of a padded attention_softmax row.
TEST(ExpKernels, RowBitsIndependentOfOffsetInABatch) {
  for (detail::Isa isa :
       {detail::Isa::kPortable, detail::Isa::kAvx2, detail::Isa::kAvx512}) {
    const detail::ExpKernels* k = detail::exp_kernels(isa);
    if (k == nullptr) continue;
    for (long n : kExpLengths) {
      Rng rng(static_cast<uint64_t>(n) + 100);
      const auto row = random_vec(rng, static_cast<size_t>(n), -20.0f, 20.0f);
      const auto gelu_alone = apply(k->gelu, row);
      const auto tanh_alone = apply(k->tanh, row);
      const auto softmax_alone = softmax_of(*k, row, 0.125f);
      for (long off : {0L, 3L, 64L}) {
        const long total = off + n + 37;
        auto batch =
            random_vec(rng, static_cast<size_t>(total), -20.0f, 20.0f);
        std::copy(row.begin(), row.end(), batch.begin() + off);
        auto slice = [&](const std::vector<float>& v) {
          return std::vector<float>(v.begin() + off, v.begin() + off + n);
        };
        auto g = batch, t = batch, s = batch;
        gelu(g.data(), total);
        tanh(t.data(), total);
        softmax_row(s.data() + off, n, 0.125f);
        EXPECT_TRUE(bit_equal(slice(g), gelu_alone))
            << "gelu isa=" << static_cast<int>(isa) << " n=" << n
            << " off=" << off;
        EXPECT_TRUE(bit_equal(slice(t), tanh_alone))
            << "tanh n=" << n << " off=" << off;
        EXPECT_TRUE(bit_equal(slice(s), softmax_alone))
            << "softmax_row n=" << n << " off=" << off;
        std::copy(row.begin(), row.end(), s.begin() + off);  // restore
        EXPECT_TRUE(bit_equal(s, batch)) << "softmax_row wrote outside";
      }
      // Row 1 of batch 1 in a [2, 1, 2, n + 5] score tensor whose batch 1
      // has n valid keys.
      const long s_k = n + 5;
      auto scores = random_vec(rng, static_cast<size_t>(4 * s_k));
      std::copy(row.begin(), row.end(), scores.begin() + 3 * s_k);
      const std::vector<int> valid{static_cast<int>(s_k),
                                   static_cast<int>(n)};
      attention_softmax(scores.data(), 2, 1, 2, s_k, 0.125f, valid.data());
      auto got = std::vector<float>(scores.begin() + 3 * s_k,
                                    scores.begin() + 3 * s_k + n);
      EXPECT_TRUE(bit_equal(got, softmax_alone))
          << "attention_softmax n=" << n;
      for (long c = n; c < s_k; ++c) {
        EXPECT_EQ(scores[static_cast<size_t>(3 * s_k + c)], 0.0f);
      }
    }
  }
}

// --------------------------------------------------------------- softmax --

class SoftmaxParam
    : public ::testing::TestWithParam<std::tuple<long, long>> {};

TEST_P(SoftmaxParam, RowsSumToOneAndOrderPreserved) {
  const auto [rows, cols] = GetParam();
  Rng rng(static_cast<uint64_t>(rows * 100 + cols));
  auto data = random_vec(rng, static_cast<size_t>(rows * cols), -5, 5);
  auto orig = data;
  softmax_rows(data.data(), rows, cols);
  for (long r = 0; r < rows; ++r) {
    double sum = 0;
    for (long c = 0; c < cols; ++c) {
      const float p = data[static_cast<size_t>(r * cols + c)];
      EXPECT_GT(p, 0.0f);
      EXPECT_LE(p, 1.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
    // Monotonicity: larger logits keep larger probabilities.
    for (long c = 1; c < cols; ++c) {
      const auto i0 = static_cast<size_t>(r * cols + c - 1);
      const auto i1 = static_cast<size_t>(r * cols + c);
      if (orig[i0] < orig[i1]) {
        EXPECT_LE(data[i0], data[i1]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxParam,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(1, 10),
                                           std::make_tuple(7, 33),
                                           std::make_tuple(64, 128),
                                           std::make_tuple(240, 500)));

TEST(Softmax, StableUnderLargeLogits) {
  std::vector<float> row{1000.0f, 1001.0f, 999.0f};
  softmax_rows(row.data(), 1, 3);
  EXPECT_FALSE(std::isnan(row[0]));
  EXPECT_NEAR(row[0] + row[1] + row[2], 1.0f, 1e-5f);
  EXPECT_GT(row[1], row[0]);
}

TEST(Softmax, ScaleShiftsDistribution) {
  std::vector<float> a{1.0f, 2.0f}, b{1.0f, 2.0f};
  softmax_rows(a.data(), 1, 2, 1.0f);
  softmax_rows(b.data(), 1, 2, 10.0f);
  EXPECT_GT(b[1], a[1]);  // sharper with higher scale
}

TEST(AttentionSoftmax, MaskedKeysGetZeroWeight) {
  const int B = 2, h = 2;
  const long S = 4;
  Rng rng(3);
  auto scores = random_vec(rng, static_cast<size_t>(B * h * S * S));
  std::vector<int> valid{3, 2};
  attention_softmax(scores.data(), B, h, S, S, 1.0f, valid.data());
  for (int b = 0; b < B; ++b) {
    for (long r = 0; r < h * S; ++r) {
      const float* row = scores.data() + (b * h * S + r) * S;
      double sum = 0;
      for (long c = 0; c < S; ++c) {
        if (c >= valid[static_cast<size_t>(b)]) {
          EXPECT_EQ(row[c], 0.0f);
        }
        sum += row[c];
      }
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}

TEST(AttentionSoftmax, NullMaskMeansFullRows) {
  const long S = 8;
  Rng rng(4);
  auto a = random_vec(rng, static_cast<size_t>(S * S));
  auto b = a;
  attention_softmax(a.data(), 1, 1, S, S, 0.5f, nullptr);
  softmax_rows(b.data(), S, S, 0.5f);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-6f);
}

// -------------------------------------------------------------- layernorm --

class LayerNormParam
    : public ::testing::TestWithParam<std::tuple<long, long>> {};

TEST_P(LayerNormParam, OutputHasZeroMeanUnitVarWithIdentityAffine) {
  const auto [rows, cols] = GetParam();
  Rng rng(static_cast<uint64_t>(rows + cols));
  auto in = random_vec(rng, static_cast<size_t>(rows * cols), -3, 3);
  std::vector<float> out(in.size());
  std::vector<float> gamma(static_cast<size_t>(cols), 1.0f);
  std::vector<float> beta(static_cast<size_t>(cols), 0.0f);
  layernorm(out.data(), in.data(), gamma.data(), beta.data(), rows, cols);
  for (long r = 0; r < rows; ++r) {
    double sum = 0, sq = 0;
    for (long c = 0; c < cols; ++c) {
      const double v = out[static_cast<size_t>(r * cols + c)];
      sum += v;
      sq += v * v;
    }
    EXPECT_NEAR(sum / cols, 0.0, 1e-3);
    if (cols > 1) {
      EXPECT_NEAR(sq / cols, 1.0, 2e-2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LayerNormParam,
                         ::testing::Values(std::make_tuple(1, 8),
                                           std::make_tuple(5, 64),
                                           std::make_tuple(16, 768),
                                           std::make_tuple(3, 1000)));

TEST(LayerNorm, AffineApplied) {
  std::vector<float> in{1, 2, 3, 4};
  std::vector<float> out(4), gamma{2, 2, 2, 2}, beta{1, 1, 1, 1};
  layernorm(out.data(), in.data(), gamma.data(), beta.data(), 1, 4);
  double sum = 0;
  for (float v : out) sum += v;
  EXPECT_NEAR(sum / 4, 1.0, 1e-4);  // beta shifts the mean
}

TEST(LayerNorm, InPlaceAllowed) {
  Rng rng(6);
  auto data = random_vec(rng, 64);
  auto copy = data;
  std::vector<float> gamma(64, 1.0f), beta(64, 0.0f), out(64);
  layernorm(out.data(), copy.data(), gamma.data(), beta.data(), 1, 64);
  layernorm(data.data(), data.data(), gamma.data(), beta.data(), 1, 64);
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(data[i], out[i]);
}

TEST(AddBiasLayerNorm, MatchesComposedOps) {
  const long rows = 6, cols = 32;
  Rng rng(8);
  auto x = random_vec(rng, static_cast<size_t>(rows * cols));
  auto resid = random_vec(rng, static_cast<size_t>(rows * cols));
  auto bias = random_vec(rng, static_cast<size_t>(cols));
  auto gamma = random_vec(rng, static_cast<size_t>(cols), 0.5f, 1.5f);
  auto beta = random_vec(rng, static_cast<size_t>(cols));

  // Composed: add bias, add residual, layernorm.
  auto composed = x;
  add_bias(composed.data(), bias.data(), rows, cols);
  add_residual(composed.data(), resid.data(), rows * cols);
  std::vector<float> expected(composed.size());
  layernorm(expected.data(), composed.data(), gamma.data(), beta.data(),
            rows, cols);

  std::vector<float> fused(x.size());
  add_bias_layernorm(fused.data(), x.data(), resid.data(), bias.data(),
                     gamma.data(), beta.data(), rows, cols);
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], expected[i], 1e-4f);
  }
}

TEST(AddBiasLayerNorm, NullBiasMeansNoBias) {
  const long rows = 2, cols = 16;
  Rng rng(10);
  auto x = random_vec(rng, static_cast<size_t>(rows * cols));
  auto resid = random_vec(rng, static_cast<size_t>(rows * cols));
  std::vector<float> gamma(16, 1.0f), beta(16, 0.0f);
  std::vector<float> zero_bias(16, 0.0f);
  std::vector<float> with_zero(x.size()), with_null(x.size());
  add_bias_layernorm(with_zero.data(), x.data(), resid.data(),
                     zero_bias.data(), gamma.data(), beta.data(), rows, cols);
  add_bias_layernorm(with_null.data(), x.data(), resid.data(), nullptr,
                     gamma.data(), beta.data(), rows, cols);
  for (size_t i = 0; i < with_zero.size(); ++i) {
    EXPECT_EQ(with_zero[i], with_null[i]);
  }
}

// ------------------------------------------------------------ elementwise --

TEST(AddBias, BroadcastsOverRows) {
  std::vector<float> data{0, 0, 1, 1};
  std::vector<float> bias{5, 7};
  add_bias(data.data(), bias.data(), 2, 2);
  EXPECT_EQ(data, (std::vector<float>{5, 7, 6, 8}));
}

TEST(Gelu, KnownValues) {
  std::vector<float> x{0.0f, 1.0f, -1.0f, 10.0f, -10.0f};
  gelu(x.data(), static_cast<long>(x.size()));
  EXPECT_NEAR(x[0], 0.0f, 1e-6f);
  EXPECT_NEAR(x[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(x[2], -0.1588f, 1e-3f);
  EXPECT_NEAR(x[3], 10.0f, 1e-3f);  // ~identity for large x
  EXPECT_NEAR(x[4], 0.0f, 1e-3f);   // ~zero for very negative
}

TEST(AddBiasGelu, MatchesComposed) {
  Rng rng(12);
  const long rows = 4, cols = 16;
  auto data = random_vec(rng, static_cast<size_t>(rows * cols));
  auto bias = random_vec(rng, static_cast<size_t>(cols));
  auto composed = data;
  add_bias(composed.data(), bias.data(), rows, cols);
  gelu(composed.data(), rows * cols);
  add_bias_gelu(data.data(), bias.data(), rows, cols);
  EXPECT_TRUE(bit_equal(data, composed));
}

// --------------------------------------------------------------- layouts --

class TransposeParam
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TransposeParam, HeadSplitAndMergeRoundTrip) {
  const auto [B, S, heads, d] = GetParam();
  const long hidden = static_cast<long>(heads) * d;
  Rng rng(21);
  auto in = random_vec(rng, static_cast<size_t>(B * S) * hidden);
  std::vector<float> headed(in.size()), back(in.size());
  transpose_to_heads(in.data(), headed.data(), B, S, heads, d);
  transpose_for_score(headed.data(), back.data(), B, S, heads, d);
  EXPECT_EQ(in, back);
}

TEST_P(TransposeParam, SplitAddBiasTransposeMatchesManual) {
  const auto [B, S, heads, d] = GetParam();
  const long H = static_cast<long>(heads) * d;
  Rng rng(22);
  auto qkv = random_vec(rng, static_cast<size_t>(B * S) * 3 * H);
  auto bias = random_vec(rng, static_cast<size_t>(3 * H));
  std::vector<float> q(static_cast<size_t>(B * S) * H);
  std::vector<float> k(q.size()), v(q.size());
  split_add_bias_transpose(qkv.data(), bias.data(), q.data(), k.data(),
                           v.data(), B, S, heads, d);
  // Manual check: element (b, s, which, h, dd).
  float* outs[3] = {q.data(), k.data(), v.data()};
  for (int b = 0; b < B; ++b) {
    for (int s = 0; s < S; ++s) {
      for (int which = 0; which < 3; ++which) {
        for (int h = 0; h < heads; ++h) {
          for (int dd = 0; dd < d; ++dd) {
            const float src =
                qkv[static_cast<size_t>(((b * S + s) * 3 + which) * H +
                                        h * d + dd)] +
                bias[static_cast<size_t>(which * H + h * d + dd)];
            const float dst =
                outs[which][static_cast<size_t>(((b * heads + h) * S + s) * d +
                                                dd)];
            ASSERT_EQ(src, dst);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TransposeParam,
                         ::testing::Values(std::make_tuple(1, 1, 1, 4),
                                           std::make_tuple(2, 3, 4, 8),
                                           std::make_tuple(3, 17, 2, 5),
                                           std::make_tuple(1, 64, 12, 64)));

// -------------------------------------------------------------- embedding --

TEST(Embedding, LooksUpAndNormalizes) {
  const int B = 2, S = 3, H = 8, vocab = 10, max_pos = 16;
  Rng rng(31);
  auto word = random_vec(rng, static_cast<size_t>(vocab) * H);
  auto pos = random_vec(rng, static_cast<size_t>(max_pos) * H);
  std::vector<float> gamma(H, 1.0f), beta(H, 0.0f);
  std::vector<int32_t> ids{1, 2, 3, 4, 5, 6};
  std::vector<float> out(static_cast<size_t>(B * S) * H);
  embedding_lookup_layernorm(out.data(), ids.data(), word.data(), pos.data(),
                             nullptr, nullptr, gamma.data(), beta.data(), B,
                             S, H, vocab, max_pos);
  // Expected: layernorm(word[id] + pos[s]).
  for (int b = 0; b < B; ++b) {
    for (int s = 0; s < S; ++s) {
      std::vector<float> expect(static_cast<size_t>(H));
      const int id = ids[static_cast<size_t>(b * S + s)];
      for (int h = 0; h < H; ++h) {
        expect[static_cast<size_t>(h)] =
            word[static_cast<size_t>(id * H + h)] +
            pos[static_cast<size_t>(s * H + h)];
      }
      std::vector<float> norm(static_cast<size_t>(H));
      layernorm(norm.data(), expect.data(), gamma.data(), beta.data(), 1, H);
      for (int h = 0; h < H; ++h) {
        EXPECT_NEAR(out[static_cast<size_t>((b * S + s) * H + h)],
                    norm[static_cast<size_t>(h)], 1e-5f);
      }
    }
  }
}

TEST(Embedding, RejectsOutOfVocabIds) {
  const int H = 4;
  std::vector<float> word(40), pos(40), out(H);
  std::vector<float> gamma(H, 1.0f), beta(H, 0.0f);
  std::vector<int32_t> bad{99};
  EXPECT_THROW(embedding_lookup_layernorm(out.data(), bad.data(), word.data(),
                                          pos.data(), nullptr, nullptr,
                                          gamma.data(), beta.data(), 1, 1, H,
                                          10, 10),
               CheckError);
}

}  // namespace
}  // namespace turbo::kernels
