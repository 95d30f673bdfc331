#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"

namespace turbo {
namespace {

// ---------------------------------------------------------------- checks --

TEST(Check, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(TT_CHECK(true));
  EXPECT_NO_THROW(TT_CHECK_EQ(1, 1));
  EXPECT_NO_THROW(TT_CHECK_LT(1, 2));
  EXPECT_NO_THROW(TT_CHECK_GE(2, 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(TT_CHECK(false), CheckError);
  EXPECT_THROW(TT_CHECK_EQ(1, 2), CheckError);
  EXPECT_THROW(TT_CHECK_GT(1, 2), CheckError);
}

TEST(Check, MessageCarriesExpressionAndValues) {
  try {
    TT_CHECK_EQ(3, 4);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(3) == (4)"), std::string::npos) << what;
    EXPECT_NE(what.find("3 vs 4"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.uniform_int(3, 10));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 10);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.exponential(4.0));
  EXPECT_NEAR(stat.mean(), 0.25, 0.01);
}

TEST(Rng, ExponentialRequiresPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), CheckError);
}

TEST(Rng, TokenIdsWithinVocab) {
  Rng rng(17);
  auto ids = rng.token_ids(1000, 50);
  ASSERT_EQ(ids.size(), 1000u);
  for (int id : ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 50);
  }
}

TEST(Rng, FillUniformRespectsBounds) {
  Rng rng(19);
  std::vector<float> v(1000);
  rng.fill_uniform(v.data(), v.size(), -2.0f, 3.0f);
  for (float x : v) {
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
}

// ----------------------------------------------------------------- stats --

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, PercentileEndpoints) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Stats, PercentileRejectsEmptyAndBadQ) {
  EXPECT_THROW(percentile({}, 50), CheckError);
  EXPECT_THROW(percentile({1.0}, -1), CheckError);
  EXPECT_THROW(percentile({1.0}, 101), CheckError);
}

TEST(Stats, SummarizeMatchesComponents) {
  std::vector<double> xs{4, 8, 15, 16, 23, 42};
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.min, 4);
  EXPECT_DOUBLE_EQ(s.max, 42);
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_DOUBLE_EQ(s.p50, percentile(xs, 50));
}

TEST(Stats, RunningStatMatchesBatch) {
  std::vector<double> xs{1.5, -2.25, 7.0, 3.125, 0.5};
  RunningStat r;
  for (double x : xs) r.add(x);
  EXPECT_EQ(r.count(), xs.size());
  EXPECT_NEAR(r.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(r.stddev(), stddev(xs), 1e-12);
}

// --------------------------------------------------------- aligned buffer --

TEST(AlignedBuffer, SixtyFourByteAlignment) {
  AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(AlignedBuffer, ZeroFills) {
  AlignedBuffer buf(64);
  buf.data()[3] = std::byte{7};
  buf.zero();
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.data()[i], std::byte{0});
  }
}

#if defined(__SANITIZE_ADDRESS__)
// AddressSanitizer builds hand out NaN-filled buffers, so a tensor read
// before it is written poisons the result every time.
TEST(AlignedBuffer, SanitizerBuildsFillNewBuffersWithNaN) {
  AlignedBuffer buf(100);
  const auto* f = reinterpret_cast<const float*>(buf.data());
  for (size_t i = 0; i < buf.size() / sizeof(float); ++i) {
    EXPECT_TRUE(std::isnan(f[i]));
  }
}
#endif

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(32);
  std::byte* p = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, EmptyBufferIsValid) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_NO_THROW(buf.zero());
}

}  // namespace
}  // namespace turbo
