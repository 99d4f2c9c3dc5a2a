#include "core/moche.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "ks/ks_test.h"
#include "util/rng.h"

namespace moche {
namespace {

TEST(MocheTest, ExplainsPaperExample) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  Moche engine;
  auto report = engine.Explain(r, t, 0.3, {3, 2, 1, 0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->k, 2u);
  EXPECT_EQ(report->k_hat, 2u);
  EXPECT_EQ(report->explanation.indices, (std::vector<size_t>{2, 1}));
  EXPECT_TRUE(report->original.reject);
  EXPECT_FALSE(report->after.reject);
}

TEST(MocheTest, AlreadyPassingTestIsReported) {
  Moche engine;
  auto report =
      engine.Explain({1, 2, 3, 4}, {1, 2, 3, 4}, 0.05, {0, 1, 2, 3});
  EXPECT_TRUE(report.status().IsAlreadyPasses());
}

TEST(MocheTest, InvalidPreferenceRejected) {
  Moche engine;
  auto report = engine.Explain({1, 2, 3}, {9, 9, 9}, 0.05, {0, 1});
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

TEST(MocheTest, EmptyInputsRejected) {
  Moche engine;
  EXPECT_FALSE(engine.Explain({}, {1.0}, 0.05, {0}).ok());
  EXPECT_FALSE(engine.Explain({1.0}, {}, 0.05, {}).ok());
}

TEST(MocheTest, RemovalAlwaysReversesTheTest) {
  Rng rng(43);
  Moche engine;
  int explained = 0;
  for (int rep = 0; rep < 40 && explained < 15; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 200; ++i) r.push_back(rng.Normal(0, 1));
    for (int i = 0; i < 100; ++i) t.push_back(rng.Normal(0.8, 1.3));
    PreferenceList pref = RandomPreference(t.size(), &rng);
    auto report = engine.Explain(r, t, 0.05, pref);
    if (report.status().IsAlreadyPasses()) continue;
    ASSERT_TRUE(report.ok());
    ++explained;

    KsInstance inst{r, t, 0.05};
    EXPECT_TRUE(ValidateExplanation(inst, report->explanation).ok());
    EXPECT_EQ(report->explanation.size(), report->k);
    EXPECT_LE(report->k_hat, report->k);
  }
  EXPECT_GE(explained, 10);
}

TEST(MocheTest, OptionsAblationsAgreeOnOutput) {
  Rng rng(47);
  std::vector<double> r;
  std::vector<double> t;
  for (int i = 0; i < 150; ++i) r.push_back(rng.Normal(0, 1));
  for (int i = 0; i < 80; ++i) t.push_back(rng.Normal(1.0, 1));
  PreferenceList pref = RandomPreference(t.size(), &rng);

  MocheOptions full;
  MocheOptions no_lb;
  no_lb.use_lower_bound = false;
  MocheOptions no_inc;
  no_inc.incremental_partial_check = false;

  auto a = Moche(full).Explain(r, t, 0.05, pref);
  auto b = Moche(no_lb).Explain(r, t, 0.05, pref);
  auto c = Moche(no_inc).Explain(r, t, 0.05, pref);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->explanation.indices, b->explanation.indices);
  EXPECT_EQ(a->explanation.indices, c->explanation.indices);
  EXPECT_EQ(a->k, b->k);
  EXPECT_EQ(b->k_hat, 1u);  // ablation starts the scan at h = 1
}

void ExpectSameOutcome(const KsOutcome& got, const KsOutcome& want) {
  EXPECT_EQ(got.statistic, want.statistic);
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.reject, want.reject);
  EXPECT_EQ(got.location, want.location);
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(got.m, want.m);
}

// Both KS outcomes of a report are swept over the explanation's one frame
// (C_T, then C_T - C_I); they must equal ks::RunSorted on the samples
// themselves — same D bits, same threshold, same location — on random and
// tie-heavy inputs.
TEST(MocheTest, FrameSweepOutcomesAreBitIdenticalToRunSorted) {
  Rng rng(314159);
  Moche engine;
  int explained = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const size_t n = static_cast<size_t>(rng.Integer(1, 60));
    const size_t m = static_cast<size_t>(rng.Integer(2, 60));
    std::vector<double> r(n);
    std::vector<double> t(m);
    const bool tie_heavy = rep % 2 == 0;
    for (double& v : r) {
      v = tie_heavy ? static_cast<double>(rng.Integer(0, 5)) : rng.Normal();
    }
    for (double& v : t) {
      v = tie_heavy ? static_cast<double>(rng.Integer(0, 7))
                    : rng.Normal(0.8, 1.1);
    }
    const double alpha = 0.5;
    auto report =
        engine.Explain(r, t, alpha, RandomPreference(t.size(), &rng));
    // Tiny samples can pass outright or admit no explanation at all.
    if (report.status().IsAlreadyPasses() || report.status().IsNotFound()) {
      continue;
    }
    ASSERT_TRUE(report.ok()) << "rep=" << rep;
    ++explained;

    std::sort(r.begin(), r.end());
    std::vector<double> remaining;
    std::vector<bool> removed(t.size(), false);
    for (size_t idx : report->explanation.indices) removed[idx] = true;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!removed[i]) remaining.push_back(t[i]);
    }
    std::sort(t.begin(), t.end());
    std::sort(remaining.begin(), remaining.end());
    auto original = ks::RunSorted(r, t, alpha);
    auto after = ks::RunSorted(r, remaining, alpha);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(after.ok());
    SCOPED_TRACE(rep);
    ExpectSameOutcome(report->original, *original);
    ExpectSameOutcome(report->after, *after);
  }
  EXPECT_GE(explained, 50);
}

// The only 0 in T is not in R, so removing it leaves a frame point that
// neither R nor T \ I holds, and R vs T \ I has D = 0: the after outcome
// must still report ks::RunSorted's location, R's smallest value 1 (not
// the frame's smallest value 0).
TEST(MocheTest, AfterOutcomeOverAFullyRemovedTestOnlyValue) {
  const std::vector<double> r{1, 2};
  const std::vector<double> t{0, 1, 2};
  auto report = Moche().Explain(r, t, 1.99, IdentityPreference(t.size()));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->k, 1u);
  EXPECT_EQ(report->explanation.indices, (std::vector<size_t>{0}));
  auto want = ks::RunSorted(r, {1, 2}, 1.99);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(want->statistic, 0.0);
  EXPECT_EQ(want->location, 1.0);
  ExpectSameOutcome(report->after, *want);
}

TEST(MocheTest, FindExplanationSizeOnly) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  Moche engine;
  auto prepared = engine.Prepare(r, 0.3);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  auto size = engine.FindExplanationSizeInto(*prepared, t, &workspace);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size->k, 2u);
  EXPECT_EQ(size->k_hat, 2u);
}

TEST(MocheTest, ExplanationIsDeterministic) {
  Rng rng(53);
  std::vector<double> r;
  std::vector<double> t;
  for (int i = 0; i < 120; ++i) r.push_back(rng.Integer(0, 30));
  for (int i = 0; i < 60; ++i) t.push_back(rng.Integer(10, 40));
  const PreferenceList pref = RandomPreference(t.size(), &rng);
  Moche engine;
  auto a = engine.Explain(r, t, 0.05, pref);
  auto b = engine.Explain(r, t, 0.05, pref);
  if (a.status().IsAlreadyPasses()) {
    EXPECT_TRUE(b.status().IsAlreadyPasses());
    return;
  }
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->explanation.indices, b->explanation.indices);
}

TEST(MocheTest, TimingsArePopulated) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  auto report = Moche().Explain(r, t, 0.3, {0, 1, 2, 3});
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->seconds_size_search, 0.0);
  EXPECT_GE(report->seconds_construction, 0.0);
  EXPECT_GE(report->size_stats.theorem2_checks, 1u);
}


// A larger alpha means a smaller passing threshold, so qualified subsets
// are rarer and the explanation can only get bigger: k is non-decreasing
// in alpha over the alphas where the test fails.
TEST(MocheTest, ExplanationSizeMonotoneInAlpha) {
  Rng rng(59);
  Moche engine;
  ExplainWorkspace workspace;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 150; ++i) r.push_back(rng.Normal(0, 1));
    for (int i = 0; i < 90; ++i) t.push_back(rng.Normal(1.0, 1.2));
    size_t prev_k = 0;
    for (double alpha : {0.01, 0.05, 0.1, 0.2}) {
      auto prepared = engine.Prepare(r, alpha);
      ASSERT_TRUE(prepared.ok());
      auto size = engine.FindExplanationSizeInto(*prepared, t, &workspace);
      if (!size.ok()) continue;  // test passes at this (stricter) alpha
      EXPECT_GE(size->k, prev_k) << "alpha=" << alpha;
      prev_k = size->k;
    }
  }
}

}  // namespace
}  // namespace moche
