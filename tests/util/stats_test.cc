#include "util/stats.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace moche {
namespace {

TEST(MeanTest, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({-5}), -5.0);
}

TEST(VarianceTest, SampleVariance) {
  // var of {2,4,4,4,5,5,7,9} with n-1 denominator = 32/7
  EXPECT_NEAR(Variance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(Variance({42}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(StdDevTest, SquareRootOfVariance) {
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(QuantileTest, InterpolatesLikeNumpy) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 1.75);
}

TEST(QuantileTest, UnsortedInputAndClamping) {
  const std::vector<double> v{9, 1, 5};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, -0.5), 1.0);  // clamped to p=0
  EXPECT_DOUBLE_EQ(Quantile(v, 1.5), 9.0);   // clamped to p=1
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(SummarizeTest, FiveNumbersPlusMean) {
  const FiveNumberSummary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(SummarizeTest, EmptyIsAllZero) {
  const FiveNumberSummary s = Summarize({});
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

// A NaN input must propagate as NaN, never reach std::sort (whose strict
// weak ordering a NaN breaks — UB, the CumulativeFrame::Build bug class).
TEST(QuantileTest, NanInputPropagatesNan) {
  EXPECT_TRUE(std::isnan(Quantile({1.0, NAN, 2.0}, 0.5)));
  EXPECT_TRUE(std::isnan(Quantile({NAN}, 0.0)));
  EXPECT_TRUE(std::isnan(Median({3.0, NAN, 1.0})));
}

TEST(QuantileTest, InfinitiesStillOrder) {
  // Infinities are fine for std::sort; only NaN is rejected.
  EXPECT_DOUBLE_EQ(Quantile({INFINITY, 1.0, -INFINITY}, 0.5), 1.0);
  // Interpolating between equal infinite neighbors must not do inf - inf.
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, INFINITY, INFINITY}, 0.75), INFINITY);
  EXPECT_DOUBLE_EQ(Quantile({-INFINITY, -INFINITY, 5.0}, 0.25), -INFINITY);
}

TEST(SummarizeTest, NanInputYieldsAllNanSummary) {
  const FiveNumberSummary s = Summarize({1.0, NAN, 2.0});
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.q1));
  EXPECT_TRUE(std::isnan(s.median));
  EXPECT_TRUE(std::isnan(s.q3));
  EXPECT_TRUE(std::isnan(s.max));
  EXPECT_TRUE(std::isnan(s.mean));
}

TEST(MeanTest, NanPropagatesArithmetically) {
  EXPECT_TRUE(std::isnan(Mean({1.0, NAN})));
  EXPECT_TRUE(std::isnan(Variance({1.0, NAN, 2.0})));
  EXPECT_TRUE(std::isnan(StdDev({1.0, NAN, 2.0})));
}

TEST(ZNormalizeTest, ZeroMeanUnitVariance) {
  std::vector<double> v{1, 2, 3, 4, 5, 6};
  ZNormalize(&v);
  EXPECT_NEAR(Mean(v), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(v), 1.0, 1e-12);
}

TEST(ZNormalizeTest, ConstantBecomesZeros) {
  std::vector<double> v{7, 7, 7};
  ZNormalize(&v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(AllFiniteTest, PoisonAtEveryPositionIsCaught) {
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (size_t len : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 17u}) {
    // -0.0 and a denormal are finite and must not trip the check.
    std::vector<double> v(len, 1.0);
    v[0] = -0.0;
    v[len / 2] = std::numeric_limits<double>::denorm_min();
    EXPECT_TRUE(AllFinite(v.data(), v.size())) << "len=" << len;
    for (size_t pos = 0; pos < len; ++pos) {
      for (double poison : poisons) {
        std::vector<double> bad = v;
        bad[pos] = poison;
        EXPECT_FALSE(AllFinite(bad.data(), bad.size()))
            << "len=" << len << " pos=" << pos;
      }
    }
  }
}

TEST(AllFiniteTest, EmptyRangeIsFinite) {
  EXPECT_TRUE(AllFinite(nullptr, 0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(AllFinite(&nan, 0));
}

TEST(AllFiniteTest, ChecksOnlyTheGivenSubrange) {
  // Callers pass (pointer, count) views into larger buffers: values just
  // outside the range must not be read into the answer.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {nan, 1.0, 2.0, 3.0, nan};
  EXPECT_TRUE(AllFinite(v.data() + 1, 3));
  EXPECT_FALSE(AllFinite(v.data(), 3));
  EXPECT_FALSE(AllFinite(v.data() + 2, 3));
}

}  // namespace
}  // namespace moche
