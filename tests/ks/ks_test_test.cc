#include "ks/ks_test.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "ks/ecdf.h"
#include "testing_util.h"
#include "util/rng.h"

namespace moche {
namespace {

using testing_util::kLooseTol;
using testing_util::kTightTol;

TEST(CriticalValueTest, KnownValues) {
  // c_alpha = sqrt(-ln(alpha/2)/2); at 0.05 this is the familiar 1.3581.
  EXPECT_NEAR(*ks::CriticalValue(0.05), 1.3581015, kLooseTol);
  EXPECT_NEAR(*ks::CriticalValue(0.10), 1.2238734, kLooseTol);
  EXPECT_NEAR(*ks::CriticalValue(0.01), 1.6276236, kLooseTol);
}

TEST(CriticalValueTest, ProposionOneBoundary) {
  // At alpha = 2/e^2 the critical value is exactly 1 (Proposition 1).
  EXPECT_NEAR(*ks::CriticalValue(2.0 / (M_E * M_E)), 1.0, kTightTol);
}

TEST(ThresholdTest, Formula) {
  const double alpha = 0.05;
  EXPECT_NEAR(*ks::Threshold(alpha, 100, 50),
              *ks::CriticalValue(alpha) * std::sqrt(150.0 / 5000.0), kTightTol);
}

// The public ks surface is consistently Status-returning: the same
// out-of-domain alpha that makes RunSorted return InvalidArgument must make
// CriticalValue / Threshold return InvalidArgument too, never abort.
TEST(CriticalValueTest, OutOfDomainAlphaIsInvalidArgument) {
  for (double alpha : {0.0, -0.5, 2.0, 3.0}) {
    EXPECT_TRUE(ks::CriticalValue(alpha).status().IsInvalidArgument())
        << alpha;
    EXPECT_TRUE(ks::Threshold(alpha, 10, 10).status().IsInvalidArgument())
        << alpha;
    EXPECT_TRUE(ks::ValidateAlpha(alpha).IsInvalidArgument()) << alpha;
    EXPECT_TRUE(
        ks::RunSorted({1.0}, {2.0}, alpha).status().IsInvalidArgument())
        << alpha;
  }
  EXPECT_TRUE(ks::ValidateAlpha(0.05).ok());
}

TEST(ThresholdTest, ZeroSampleSizesAreInvalidArgument) {
  EXPECT_TRUE(ks::Threshold(0.05, 0, 10).status().IsInvalidArgument());
  EXPECT_TRUE(ks::Threshold(0.05, 10, 0).status().IsInvalidArgument());
}

TEST(StatisticTest, IdenticalSamplesGiveZero) {
  EXPECT_DOUBLE_EQ(ks::Statistic({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(StatisticTest, DisjointSamplesGiveOne) {
  double loc = 0.0;
  EXPECT_DOUBLE_EQ(ks::Statistic({1, 2}, {10, 20}, &loc), 1.0);
  EXPECT_DOUBLE_EQ(loc, 2.0);  // the max gap is reached at the last low point
}

TEST(StatisticTest, PaperExampleSets) {
  // Example 3/4: R = {14 x4, 20 x4}, T = {13,13,12,20}. D = 0.75 at x=13.
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  double loc = 0.0;
  EXPECT_DOUBLE_EQ(ks::Statistic(r, t, &loc), 0.75);
  EXPECT_DOUBLE_EQ(loc, 13.0);
}

TEST(StatisticTest, SymmetricInArguments) {
  Rng rng(5);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 30; ++i) a.push_back(rng.Integer(0, 10));
    for (int i = 0; i < 17; ++i) b.push_back(rng.Integer(0, 10));
    EXPECT_DOUBLE_EQ(ks::Statistic(a, b), ks::Statistic(b, a));
  }
}

TEST(StatisticTest, EmptySampleConventions) {
  EXPECT_DOUBLE_EQ(ks::Statistic({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(ks::Statistic({1.0}, {}), 1.0);
  EXPECT_DOUBLE_EQ(ks::Statistic({}, {1.0}), 1.0);
}

TEST(StatisticTest, NanSampleGivesNanNotUb) {
  // Regression: Statistic used to sort before any screen — std::sort on a
  // NaN range is strict-weak-ordering UB. Now NaN in, NaN out.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double loc = 123.0;
  EXPECT_TRUE(std::isnan(ks::Statistic({1.0, nan}, {2.0}, &loc)));
  EXPECT_DOUBLE_EQ(loc, 0.0);  // location still deterministically written
  EXPECT_TRUE(std::isnan(ks::Statistic({1.0}, {nan, 2.0})));
  // Infinity has a rank; it is not screened here.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(ks::Statistic({1.0, 2.0}, {inf, inf}), 1.0);
}

TEST(RunTest, ValidatesBeforeSorting) {
  // Run must reject non-finite input up front — the old code sorted first,
  // which was UB with NaN present.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ks::Run({1.0, nan, 2.0}, {1.0, 2.0}, 0.05).ok());
  EXPECT_FALSE(ks::Run({1.0, 2.0}, {nan}, 0.05).ok());
}

TEST(StatisticTest, LocationAlwaysWrittenEvenForTwoEmptySamples) {
  // Regression: the both-empty early return used to leave *location
  // untouched, an uninitialized read for callers that always consume it.
  double loc = 123.0;
  EXPECT_DOUBLE_EQ(ks::StatisticSorted({}, {}, &loc), 0.0);
  EXPECT_DOUBLE_EQ(loc, 0.0);  // deterministic sentinel

  loc = 123.0;
  EXPECT_DOUBLE_EQ(ks::Statistic({}, {}, &loc), 0.0);
  EXPECT_DOUBLE_EQ(loc, 0.0);
}

// The merge-based statistic must agree with a brute-force evaluation of
// max |F_R(x) - F_T(x)| over all sample points.
TEST(StatisticTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(42);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    const int n = static_cast<int>(rng.Integer(1, 40));
    const int m = static_cast<int>(rng.Integer(1, 40));
    for (int i = 0; i < n; ++i) r.push_back(rng.Integer(0, 15));
    for (int i = 0; i < m; ++i) t.push_back(rng.Integer(0, 15));

    const Ecdf fr(r);
    const Ecdf ft(t);
    double expected = 0.0;
    std::vector<double> all = r;
    all.insert(all.end(), t.begin(), t.end());
    for (double x : all) {
      expected = std::max(expected, std::fabs(fr.Evaluate(x) - ft.Evaluate(x)));
    }
    EXPECT_NEAR(ks::Statistic(r, t), expected, kTightTol);
  }
}

TEST(RunTest, RejectsShiftedDistribution) {
  Rng rng(7);
  std::vector<double> r;
  std::vector<double> t;
  for (int i = 0; i < 500; ++i) r.push_back(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 500; ++i) t.push_back(rng.Normal(1.0, 1.0));
  auto outcome = ks::Run(r, t, 0.05);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->reject);
  EXPECT_GT(outcome->statistic, outcome->threshold);
  EXPECT_EQ(outcome->n, 500u);
  EXPECT_EQ(outcome->m, 500u);
}

TEST(RunTest, PassesSameDistribution) {
  Rng rng(11);
  std::vector<double> r;
  std::vector<double> t;
  for (int i = 0; i < 500; ++i) r.push_back(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 500; ++i) t.push_back(rng.Normal(0.0, 1.0));
  auto outcome = ks::Run(r, t, 0.01);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->reject);
}

TEST(RunTest, ValidatesInputs) {
  EXPECT_TRUE(ks::Run({}, {1.0}, 0.05).status().IsInvalidArgument());
  EXPECT_TRUE(ks::Run({1.0}, {}, 0.05).status().IsInvalidArgument());
  EXPECT_TRUE(ks::Run({1.0}, {1.0}, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(ks::Run({1.0}, {1.0}, 2.0).status().IsInvalidArgument());
}

TEST(RunTest, PaperExampleFailsAtPointThree) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  auto outcome = ks::Run(r, t, 0.3);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->reject);  // Example 4: the sets fail at alpha = 0.3
}

TEST(RunSortedTest, AgreesWithRun) {
  std::vector<double> r{5, 1, 3};
  std::vector<double> t{2, 2, 8};
  auto a = ks::Run(r, t, 0.05);
  std::sort(r.begin(), r.end());
  std::sort(t.begin(), t.end());
  auto b = ks::RunSorted(r, t, 0.05);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->statistic, b->statistic);
  EXPECT_DOUBLE_EQ(a->threshold, b->threshold);
}

// Larger alpha means a smaller threshold, so rejection is monotone in alpha.
TEST(RunTest, RejectionMonotoneInAlpha) {
  Rng rng(13);
  std::vector<double> r;
  std::vector<double> t;
  for (int i = 0; i < 200; ++i) r.push_back(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 200; ++i) t.push_back(rng.Normal(0.35, 1.0));
  bool prev_reject = false;
  for (double alpha : {0.001, 0.01, 0.05, 0.1, 0.3}) {
    auto outcome = ks::Run(r, t, alpha);
    ASSERT_TRUE(outcome.ok());
    // once rejected at a smaller alpha, every larger alpha rejects too
    if (prev_reject) {
      EXPECT_TRUE(outcome->reject);
    }
    prev_reject = outcome->reject;
  }
}

}  // namespace
}  // namespace moche
