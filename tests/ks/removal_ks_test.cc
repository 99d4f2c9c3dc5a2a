#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "core/preference.h"
#include "ks/ks_test.h"
#include "testing_util.h"
#include "util/rng.h"

namespace moche {
namespace {

TEST(RemovalKsTest, NoRemovalMatchesPlainTest) {
  const std::vector<double> r{1, 2, 3, 4, 5};
  const std::vector<double> t{2, 2, 6, 7};
  RemovalKs removal(r, t, 0.05);
  auto plain = ks::Run(r, t, 0.05);
  ASSERT_TRUE(plain.ok());
  const KsOutcome current = removal.CurrentOutcome();
  EXPECT_DOUBLE_EQ(current.statistic, plain->statistic);
  EXPECT_DOUBLE_EQ(current.threshold, plain->threshold);
  EXPECT_EQ(current.reject, plain->reject);
}

TEST(RemovalKsTest, RemovalMatchesRecomputedTest) {
  Rng rng(3);
  for (int rep = 0; rep < 30; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    const int n = static_cast<int>(rng.Integer(2, 30));
    const int m = static_cast<int>(rng.Integer(3, 30));
    for (int i = 0; i < n; ++i) r.push_back(rng.Integer(0, 8));
    for (int i = 0; i < m; ++i) t.push_back(rng.Integer(0, 8));

    RemovalKs removal(r, t, 0.05);
    // Remove a random strict subset of T.
    std::vector<double> remaining = t;
    const int remove_count = static_cast<int>(rng.Integer(1, m - 1));
    for (int c = 0; c < remove_count; ++c) {
      const size_t pick = static_cast<size_t>(
          rng.Integer(0, static_cast<int64_t>(remaining.size()) - 1));
      ASSERT_TRUE(removal.RemoveValue(remaining[pick]).ok());
      remaining.erase(remaining.begin() + static_cast<long>(pick));
    }
    auto direct = ks::Run(r, remaining, 0.05);
    ASSERT_TRUE(direct.ok());
    const KsOutcome current = removal.CurrentOutcome();
    EXPECT_NEAR(current.statistic, direct->statistic,
                testing_util::kTightTol);
    EXPECT_NEAR(current.threshold, direct->threshold,
                testing_util::kTightTol);
    EXPECT_EQ(current.reject, direct->reject);
    EXPECT_EQ(removal.num_removed(), static_cast<size_t>(remove_count));

    // RemainingTest returns the same multiset we tracked by hand.
    std::vector<double> got = removal.RemainingTest();
    std::sort(remaining.begin(), remaining.end());
    EXPECT_EQ(got, remaining);
  }
}

TEST(RemovalKsTest, RemovingAllOfTestSetIsWellDefined) {
  // Regression: a greedy caller that strips the entire test set used to hit
  // MOCHE_CHECK(removed_total_ < m_) and abort the process. The degenerate
  // outcome now follows the one-empty-sample convention: D = 1, reject.
  // Test values sort below the reference so the degenerate location is
  // discriminating: it must be the smallest REFERENCE value (where
  // |F_R - F_empty| first reaches 1), not the smallest union-grid value.
  const std::vector<double> r{5, 6, 7, 8};
  const std::vector<double> t{1, 2};
  RemovalKs removal(r, t, 0.05);
  ASSERT_TRUE(removal.RemoveValue(1).ok());
  ASSERT_TRUE(removal.RemoveValue(2).ok());
  ASSERT_EQ(removal.num_removed(), 2u);

  const KsOutcome outcome = removal.CurrentOutcome();
  EXPECT_DOUBLE_EQ(outcome.statistic, 1.0);
  EXPECT_TRUE(outcome.reject);
  EXPECT_EQ(outcome.m, 0u);
  EXPECT_EQ(outcome.n, 4u);
  EXPECT_DOUBLE_EQ(outcome.location, 5.0);  // smallest reference value
  EXPECT_FALSE(removal.Passes());
  EXPECT_TRUE(removal.RemainingTest().empty());

  // Removing beyond empty still errors per value; unremoving recovers the
  // ordinary outcome.
  EXPECT_TRUE(removal.RemoveValue(1).IsInvalidArgument());
  ASSERT_TRUE(removal.UnremoveValue(2).ok());
  auto direct = ks::Run(r, {2}, 0.05);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(removal.CurrentOutcome().statistic, direct->statistic);
}

// With D = 0 the outcome's location is R's smallest value, as in
// StatisticSorted — not the union grid's smallest value, which here is
// the removed T-only 0.
TEST(RemovalKsTest, ZeroStatisticLocationIsSmallestReferenceValue) {
  const std::vector<double> r{1, 2};
  RemovalKs removal(r, {0, 1, 2}, 0.05);
  ASSERT_TRUE(removal.RemoveValue(0).ok());
  auto want = ks::RunSorted(r, {1, 2}, 0.05);
  ASSERT_TRUE(want.ok());
  const KsOutcome current = removal.CurrentOutcome();
  EXPECT_EQ(current.statistic, 0.0);
  EXPECT_EQ(current.statistic, want->statistic);
  EXPECT_EQ(current.threshold, want->threshold);
  EXPECT_EQ(current.reject, want->reject);
  EXPECT_EQ(current.location, 1.0);
  EXPECT_EQ(current.location, want->location);
}

TEST(RemovalKsTest, UnremoveRestores) {
  const std::vector<double> r{1, 2, 3};
  const std::vector<double> t{1, 5, 5};
  RemovalKs removal(r, t, 0.05);
  const double before = removal.CurrentOutcome().statistic;
  ASSERT_TRUE(removal.RemoveValue(5).ok());
  ASSERT_TRUE(removal.UnremoveValue(5).ok());
  EXPECT_DOUBLE_EQ(removal.CurrentOutcome().statistic, before);
  EXPECT_EQ(removal.num_removed(), 0u);
}

TEST(RemovalKsTest, ResetClearsEverything) {
  const std::vector<double> r{1, 2, 3};
  const std::vector<double> t{1, 5, 5};
  RemovalKs removal(r, t, 0.05);
  ASSERT_TRUE(removal.RemoveValue(5).ok());
  ASSERT_TRUE(removal.RemoveValue(5).ok());
  removal.Reset();
  EXPECT_EQ(removal.num_removed(), 0u);
  EXPECT_EQ(removal.RemainingTest().size(), 3u);
}

TEST(RemovalKsTest, ErrorsOnBadRemovals) {
  const std::vector<double> r{1, 2};
  const std::vector<double> t{5};
  RemovalKs removal(r, t, 0.05);
  // value only in R: removable occurrences in T are zero
  EXPECT_FALSE(removal.RemoveValue(1).ok());
  // value not anywhere
  EXPECT_FALSE(removal.RemoveValue(99).ok());
  // removing more occurrences than T has
  ASSERT_TRUE(removal.RemoveValue(5).ok());
  EXPECT_FALSE(removal.RemoveValue(5).ok());
  // unremoving something never removed
  EXPECT_FALSE(removal.UnremoveValue(1).ok());
}

// Property check over random instances: whatever explanation MOCHE returns,
// removing its points must flip the test from rejecting to passing, and
// removing them in greedy order — at every step the point whose removal
// yields the smallest rejection margin D - p — must drive that margin down
// monotonically to <= 0. The margin, not the raw statistic, is the right
// monotone quantity: shrinking m rescales the ECDF (and grows p), so even
// the best single removal can bump D itself by a hair, and the user's L
// order gives no per-step guarantee at all.
TEST(RemovalKsTest, RemovingMocheExplanationMakesTestPassMonotonically) {
  // Draws come from the portable helpers (not Rng's std:: distributions)
  // so the per-step assertions below see the same instances on every
  // standard library.
  std::mt19937_64 engine_rng(testing_util::kTestSeed);
  const double alpha = 0.05;
  const Moche engine;
  int explained = 0;
  for (int rep = 0; rep < 60; ++rep) {
    // Reference from N(0, 1); test contaminated with a shifted cluster so
    // the KS test usually rejects.
    std::vector<double> r;
    std::vector<double> t;
    const int n =
        static_cast<int>(testing_util::PortableInteger(engine_rng, 30, 80));
    const int m =
        static_cast<int>(testing_util::PortableInteger(engine_rng, 20, 50));
    for (int i = 0; i < n; ++i) {
      r.push_back(testing_util::PortableNormal(engine_rng, 0.0, 1.0));
    }
    for (int i = 0; i < m; ++i) {
      t.push_back(testing_util::PortableBernoulli(engine_rng, 0.4)
                      ? testing_util::PortableNormal(engine_rng, 4.0, 0.3)
                      : testing_util::PortableNormal(engine_rng, 0.0, 1.0));
    }

    auto before = ks::Run(r, t, alpha);
    ASSERT_TRUE(before.ok());
    if (!before->reject) continue;  // nothing to explain on this draw

    // Fisher-Yates over engine draws: a portable random preference.
    PreferenceList pref = IdentityPreference(t.size());
    for (size_t i = pref.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(testing_util::PortableInteger(
          engine_rng, 0, static_cast<int64_t>(i) - 1));
      std::swap(pref[i - 1], pref[j]);
    }
    auto report = engine.Explain(r, t, alpha, pref);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ++explained;

    RemovalKs removal(r, t, alpha);
    EXPECT_FALSE(removal.Passes());
    std::vector<size_t> pending = report->explanation.indices;
    const KsOutcome start = removal.CurrentOutcome();
    double prev_margin = start.statistic - start.threshold;
    EXPECT_GT(prev_margin, 0.0);
    while (!pending.empty()) {
      // Greedy step: probe every pending point and commit the best one.
      size_t best_pos = 0;
      double best_margin = std::numeric_limits<double>::infinity();
      for (size_t pos = 0; pos < pending.size(); ++pos) {
        ASSERT_TRUE(removal.RemoveValue(t[pending[pos]]).ok());
        const KsOutcome probe = removal.CurrentOutcome();
        ASSERT_TRUE(removal.UnremoveValue(t[pending[pos]]).ok());
        const double margin = probe.statistic - probe.threshold;
        if (margin < best_margin) {
          best_margin = margin;
          best_pos = pos;
        }
      }
      ASSERT_TRUE(removal.RemoveValue(t[pending[best_pos]]).ok());
      EXPECT_LE(best_margin, prev_margin + testing_util::kTightTol)
          << "rep " << rep << ": margin increased from " << prev_margin
          << " to " << best_margin << " after removing index "
          << pending[best_pos];
      prev_margin = best_margin;
      pending.erase(pending.begin() + static_cast<long>(best_pos));
    }
    EXPECT_LE(prev_margin, 0.0);
    EXPECT_TRUE(removal.Passes()) << "rep " << rep;
    EXPECT_EQ(removal.num_removed(), report->k);
  }
  // The contamination must actually trigger the KS test most of the time,
  // or the property above is vacuous.
  EXPECT_GE(explained, 30);
}

TEST(RemovalKsTest, PassesReflectsThresholdCrossing) {
  // Example 4 sets: fail at alpha = 0.3; removing {12, 13} passes.
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  RemovalKs removal(r, t, 0.3);
  EXPECT_FALSE(removal.Passes());
  ASSERT_TRUE(removal.RemoveValue(12).ok());
  ASSERT_TRUE(removal.RemoveValue(13).ok());
  EXPECT_TRUE(removal.Passes());
}

}  // namespace
}  // namespace moche
