#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "core/preference.h"
#include "ks/ks_test.h"
#include "testing_util.h"
#include "util/rng.h"
#include "util/sort.h"

namespace moche {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The union-grid RemovalKs the rank-frame version replaced: R u T merged
// into one ascending grid of distinct values with per-value counts, swept
// whole on every re-test. Kept as the bit-identity oracle, with its
// arithmetic unchanged; removals report success as a bool. It sorts with
// SortDoubles like the production path, because the sort decides which
// copy of -0.0/+0.0 stands for a zero frame point. Its sweep is
// its own inline first-strict-max loop, so a bug in the production sweep
// cannot hide behind the oracle.
class UnionGridRemovalKs {
 public:
  UnionGridRemovalKs(const std::vector<double>& r,
                     const std::vector<double>& t, double alpha)
      : alpha_(alpha), n_(r.size()), m_(t.size()) {
    std::vector<double> rs = r;
    std::vector<double> ts = t;
    SortDoubles(rs.data(), rs.size());
    SortDoubles(ts.data(), ts.size());
    size_t i = 0;
    size_t j = 0;
    while (i < rs.size() || j < ts.size()) {
      double x;
      if (j >= ts.size() || (i < rs.size() && rs[i] <= ts[j])) {
        x = rs[i];
      } else {
        x = ts[j];
      }
      int64_t cr = 0;
      int64_t ct = 0;
      while (i < rs.size() && rs[i] == x) {
        ++i;
        ++cr;
      }
      while (j < ts.size() && ts[j] == x) {
        ++j;
        ++ct;
      }
      values_.push_back(x);
      count_r_.push_back(cr);
      count_t_.push_back(ct);
    }
    removed_.assign(values_.size(), 0);
    cum_r_d_.resize(values_.size());
    int64_t cum_r = 0;
    for (size_t k = 0; k < values_.size(); ++k) {
      cum_r += count_r_[k];
      cum_r_d_[k] = static_cast<double>(cum_r);
    }
  }

  bool RemoveValue(double value) {
    const auto it = std::lower_bound(values_.begin(), values_.end(), value);
    if (it == values_.end() || *it != value) return false;
    const size_t idx = static_cast<size_t>(it - values_.begin());
    if (removed_[idx] >= count_t_[idx]) return false;
    ++removed_[idx];
    ++removed_total_;
    return true;
  }

  bool UnremoveValue(double value) {
    const auto it = std::lower_bound(values_.begin(), values_.end(), value);
    if (it == values_.end() || *it != value) return false;
    const size_t idx = static_cast<size_t>(it - values_.begin());
    if (removed_[idx] == 0) return false;
    --removed_[idx];
    --removed_total_;
    return true;
  }

  void Reset() {
    std::fill(removed_.begin(), removed_.end(), 0);
    removed_total_ = 0;
  }

  KsOutcome CurrentOutcome() const {
    KsOutcome out;
    out.n = n_;
    out.m = m_ - removed_total_;
    if (removed_total_ >= m_) {
      out.statistic = 1.0;
      out.threshold = 0.0;
      out.reject = true;
      out.location = SmallestReferenceValue();
      return out;
    }
    const double n = static_cast<double>(n_);
    const double m_rem = static_cast<double>(m_ - removed_total_);
    size_t best_index = SIZE_MAX;
    double best = 0.0;
    int64_t cum_t = 0;
    for (size_t i = 0; i < values_.size(); ++i) {
      cum_t += count_t_[i] - removed_[i];
      const double d =
          std::fabs(cum_r_d_[i] / n - static_cast<double>(cum_t) / m_rem);
      if (d > best) {
        best = d;
        best_index = i;
      }
    }
    out = ks::internal::DecideUnchecked(best, n_, m_ - removed_total_, alpha_);
    out.location = best_index == SIZE_MAX ? SmallestReferenceValue()
                                          : values_[best_index];
    return out;
  }

  std::vector<double> RemainingTest() const {
    std::vector<double> out;
    for (size_t i = 0; i < values_.size(); ++i) {
      for (int64_t c = 0; c < count_t_[i] - removed_[i]; ++c) {
        out.push_back(values_[i]);
      }
    }
    return out;
  }

  size_t num_removed() const { return removed_total_; }

 private:
  double SmallestReferenceValue() const {
    for (size_t i = 0; i < values_.size(); ++i) {
      if (count_r_[i] > 0) return values_[i];
    }
    return 0.0;
  }

  double alpha_;
  size_t n_ = 0;
  size_t m_ = 0;
  std::vector<double> values_;
  std::vector<int64_t> count_r_;
  std::vector<int64_t> count_t_;
  std::vector<double> cum_r_d_;
  std::vector<int64_t> removed_;
  size_t removed_total_ = 0;
};

::testing::AssertionResult SameOutcome(const KsOutcome& got,
                                       const KsOutcome& want) {
  if (SameBits(got.statistic, want.statistic) &&
      SameBits(got.threshold, want.threshold) && got.reject == want.reject &&
      SameBits(got.location, want.location) && got.n == want.n &&
      got.m == want.m) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got D=" << got.statistic << " p=" << got.threshold
         << " reject=" << got.reject << " loc=" << got.location
         << " m=" << got.m << ", want D=" << want.statistic
         << " p=" << want.threshold << " reject=" << want.reject
         << " loc=" << want.location << " m=" << want.m;
}

::testing::AssertionResult SameValues(const std::vector<double>& got,
                                      const std::vector<double>& want) {
  if (got.size() == want.size() &&
      std::equal(got.begin(), got.end(), want.begin(), SameBits)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "remaining test multisets differ";
}

// One value drawn for the oracle schedules: a tie-heavy alphabet that
// includes both signed zeros, or an ordinary real.
double DrawValue(std::mt19937_64& engine, bool tie_heavy) {
  if (tie_heavy) {
    const int64_t v = testing_util::PortableInteger(engine, -3, 4);
    if (v != 0) return static_cast<double>(v);
    return testing_util::PortableBernoulli(engine, 0.5) ? -0.0 : 0.0;
  }
  return testing_util::PortableNormal(engine, 0.0, 1.0);
}

// Drives both implementations through the same remove / unremove / reset
// schedule and requires every outcome, every remaining multiset and every
// accepted or refused operation to agree bit for bit.
void CheckAgainstUnionGrid(const std::vector<double>& r,
                           const std::vector<double>& t, double alpha,
                           std::mt19937_64& engine, int steps) {
  RemovalKs frame(r, t, alpha);
  UnionGridRemovalKs grid(r, t, alpha);
  ASSERT_TRUE(SameOutcome(frame.CurrentOutcome(), grid.CurrentOutcome()));
  for (int step = 0; step < steps; ++step) {
    const int64_t op = testing_util::PortableInteger(engine, 0, 19);
    if (op == 0) {
      frame.Reset();
      grid.Reset();
    } else {
      // Mostly T values; sometimes an R value, which T may not hold.
      const std::vector<double>& source = op == 1 || t.empty() ? r : t;
      const double value = source[static_cast<size_t>(
          testing_util::PortableInteger(
              engine, 0, static_cast<int64_t>(source.size()) - 1))];
      const bool remove = op < 14;
      const bool frame_ok = remove ? frame.RemoveValue(value).ok()
                                   : frame.UnremoveValue(value).ok();
      const bool grid_ok =
          remove ? grid.RemoveValue(value) : grid.UnremoveValue(value);
      ASSERT_EQ(frame_ok, grid_ok) << "step " << step << " value " << value;
    }
    ASSERT_EQ(frame.num_removed(), grid.num_removed());
    ASSERT_TRUE(SameOutcome(frame.CurrentOutcome(), grid.CurrentOutcome()))
        << "step " << step;
    ASSERT_TRUE(SameValues(frame.RemainingTest(), grid.RemainingTest()));
  }
}

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
    std::vector<double> r_sorted = r;
    std::vector<double> remaining_sorted = remaining;
    std::sort(r_sorted.begin(), r_sorted.end());
    std::sort(remaining_sorted.begin(), remaining_sorted.end());
    auto direct = ks::RunSorted(r_sorted, remaining_sorted, 0.05);
    ASSERT_TRUE(direct.ok());
    const KsOutcome current = removal.CurrentOutcome();
    EXPECT_TRUE(SameBits(current.statistic, direct->statistic));
    EXPECT_TRUE(SameBits(current.threshold, direct->threshold));
    EXPECT_EQ(current.reject, direct->reject);
    EXPECT_EQ(current.location, direct->location);  // by value
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

TEST(RemovalKsTest, RandomSchedulesMatchTheUnionGridBitForBit) {
  std::mt19937_64 engine(testing_util::kTestSeed + 5);
  for (int rep = 0; rep < 400; ++rep) {
    const bool tie_heavy = rep % 2 == 0;
    // Every fourth instance has a reference much larger than the window,
    // so long reference-only runs fall between the frame's points.
    const int64_t max_n = rep % 4 == 1 ? 400 : 30;
    const size_t n =
        static_cast<size_t>(testing_util::PortableInteger(engine, 1, max_n));
    const size_t m =
        static_cast<size_t>(testing_util::PortableInteger(engine, 0, 25));
    std::vector<double> r(n);
    std::vector<double> t(m);
    for (double& v : r) v = DrawValue(engine, tie_heavy);
    for (double& v : t) v = DrawValue(engine, tie_heavy);
    const double alpha = rep % 3 == 0 ? 0.3 : 0.05;
    CheckAgainstUnionGrid(r, t, alpha, engine, 60);
    if (HasFatalFailure()) {
      FAIL() << "rep " << rep << " (n=" << n << " m=" << m << ")";
    }
  }
}

TEST(RemovalKsTest, SignedZerosInBothSamplesMatchTheUnionGrid) {
  // -0.0 and +0.0 compare equal, so each sample's zeros form one frame
  // point; which copy it carries decides the location's sign bit. The key
  // order puts -0.0 first, so that copy is -0.0 whenever one occurs.
  struct Case {
    std::vector<double> r;
    std::vector<double> t;
  };
  const Case cases[] = {
      {{-0.0, 0.0, 1.0, 2.0}, {0.0, -0.0, -0.0, 3.0}},
      {{0.0, -0.0, 1.0}, {-0.0, 0.0, 0.0, -1.0, 2.0}},
      {{1.0, 2.0, 3.0}, {-0.0, 0.0, -0.0, 5.0}},
      {{-0.0, -0.0}, {0.0, 0.0}},
  };
  for (const Case& c : cases) {
    RemovalKs frame(c.r, c.t, 0.3);
    UnionGridRemovalKs grid(c.r, c.t, 0.3);
    for (double value : c.t) {
      ASSERT_TRUE(SameOutcome(frame.CurrentOutcome(), grid.CurrentOutcome()));
      ASSERT_TRUE(SameValues(frame.RemainingTest(), grid.RemainingTest()));
      ASSERT_TRUE(frame.RemoveValue(value).ok());
      ASSERT_TRUE(grid.RemoveValue(value));
    }
    // Full removal: the degenerate outcome, located at R's smallest value.
    EXPECT_TRUE(SameOutcome(frame.CurrentOutcome(), grid.CurrentOutcome()));
    EXPECT_TRUE(frame.RemainingTest().empty());
  }
}

TEST(RemovalKsTest, FullyRemovedTestOnlyValueBelowTheReference) {
  // The frame's first point is the T-only 0; once both copies are gone it
  // carries no mass, and D = 0 must still locate at R's smallest value.
  const std::vector<double> r{1, 2, 3};
  const std::vector<double> t{0, 0, 1, 2, 3};
  RemovalKs frame(r, t, 0.05);
  UnionGridRemovalKs grid(r, t, 0.05);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(frame.RemoveValue(0).ok());
    ASSERT_TRUE(grid.RemoveValue(0));
    EXPECT_TRUE(SameOutcome(frame.CurrentOutcome(), grid.CurrentOutcome()));
  }
  EXPECT_EQ(frame.CurrentOutcome().statistic, 0.0);
  EXPECT_EQ(frame.CurrentOutcome().location, 1.0);
  EXPECT_TRUE(frame.RemoveValue(0).IsInvalidArgument());
  // A reference value inside a run the frame dropped is not in T.
  const Status st = RemovalKs(r, {0, 5}, 0.05).RemoveValue(2);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "value does not occur in the test set");
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
