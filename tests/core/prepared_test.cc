// The prepared-instance API: Moche::Prepare sorts/validates the reference
// once, ExplainPreparedInto reuses it per test window. Its contract is that
// reports are bit-identical to the one-shot Explain on the same inputs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "util/rng.h"

namespace moche {
namespace {

void ExpectSameReport(const MocheReport& a, const MocheReport& b) {
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.k_hat, b.k_hat);
  EXPECT_EQ(a.explanation.indices, b.explanation.indices);
  EXPECT_DOUBLE_EQ(a.original.statistic, b.original.statistic);
  EXPECT_DOUBLE_EQ(a.original.threshold, b.original.threshold);
  EXPECT_DOUBLE_EQ(a.original.location, b.original.location);
  EXPECT_EQ(a.original.reject, b.original.reject);
  EXPECT_DOUBLE_EQ(a.after.statistic, b.after.statistic);
  EXPECT_EQ(a.after.reject, b.after.reject);
}

TEST(PreparedReferenceTest, PrepareValidatesInputs) {
  Moche engine;
  EXPECT_TRUE(engine.Prepare({}, 0.05).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Prepare({1.0, 2.0}, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Prepare({1.0, 2.0}, 2.5).status().IsInvalidArgument());

  auto prepared = engine.Prepare({3.0, 1.0, 2.0}, 0.05);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->sorted_reference(),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(prepared->alpha(), 0.05);
}

TEST(PreparedReferenceTest, SignedZerosSortTheSameInEveryPermutation) {
  // -0.0 == +0.0, so operator< leaves their order to the sort algorithm;
  // the stored sample and its snapshot bytes must not depend on it.
  std::vector<double> r;
  for (int i = 0; i < 3000; ++i) {
    r.push_back(i % 3 == 0 ? -0.0 : i % 3 == 1 ? 0.0 : 0.25 * (i % 7) - 0.9);
  }
  std::vector<double> shuffled = r;
  Rng rng(5);
  rng.Shuffle(&shuffled);
  Moche engine;
  auto a = engine.Prepare(r, 0.05);
  auto b = engine.Prepare(shuffled, 0.05);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->sorted_reference().size(), b->sorted_reference().size());
  EXPECT_EQ(0, std::memcmp(a->sorted_reference().data(),
                           b->sorted_reference().data(),
                           r.size() * sizeof(double)));
  // The 1000 copies of -0.0 precede the 1000 copies of +0.0.
  const auto& sorted = a->sorted_reference();
  const auto zero = std::find(sorted.begin(), sorted.end(), 0.0);
  ASSERT_NE(zero, sorted.end());
  for (size_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(std::signbit(zero[static_cast<std::ptrdiff_t>(i)]), i < 1000);
  }
  std::string bytes_a;
  std::string bytes_b;
  a->SerializeTo(&bytes_a);
  b->SerializeTo(&bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(PreparedReferenceTest, MatchesExplainOnPaperExample) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  Moche engine;
  auto direct = engine.Explain(r, t, 0.3, {3, 2, 1, 0});
  ASSERT_TRUE(direct.ok());

  auto prepared = engine.Prepare(r, 0.3);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  MocheReport via_prepared;
  ASSERT_TRUE(engine
                  .ExplainPreparedInto(*prepared, t, {3, 2, 1, 0}, &workspace,
                                       &via_prepared)
                  .ok());
  ExpectSameReport(*direct, via_prepared);
  EXPECT_EQ(via_prepared.explanation.indices, (std::vector<size_t>{2, 1}));
}

TEST(PreparedReferenceTest, OneReferenceManyWindowsMatchesExplain) {
  // The motivating workload: one reference sample, many test windows sliced
  // from the same stream. Every window's report must equal the one-shot
  // Explain.
  Rng rng(71);
  std::vector<double> reference;
  for (int i = 0; i < 200; ++i) reference.push_back(rng.Normal(0, 1));

  Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  ExplainWorkspace workspace;
  MocheReport via_prepared;
  int explained = 0;
  for (int window = 0; window < 12; ++window) {
    std::vector<double> test;
    const double shift = 0.5 + 0.1 * window;
    for (int i = 0; i < 80; ++i) test.push_back(rng.Normal(shift, 1.1));
    PreferenceList pref = RandomPreference(test.size(), &rng);

    auto direct = engine.Explain(reference, test, 0.05, pref);
    const Status status = engine.ExplainPreparedInto(
        *prepared, test, pref, &workspace, &via_prepared);
    ASSERT_EQ(direct.ok(), status.ok()) << "window " << window;
    if (!direct.ok()) {
      EXPECT_EQ(direct.status().code(), status.code());
      continue;
    }
    ++explained;
    ExpectSameReport(*direct, via_prepared);
  }
  EXPECT_GE(explained, 8);
}

TEST(WindowBatchTest, BatchOutcomesMatchRunSortedPerWindow) {
  // EvaluateBatchPrepared's contract: each outcome is bit-identical to
  // running ks::RunSorted on that window alone.
  Rng rng(2026);
  std::vector<double> reference;
  for (int i = 0; i < 150; ++i) reference.push_back(rng.Normal(0, 1));
  Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  constexpr size_t kCount = 9;
  constexpr size_t kWidth = 40;
  std::vector<double> soa(kCount * kWidth);
  for (size_t w = 0; w < kCount; ++w) {
    const double shift = 0.15 * static_cast<double>(w);  // pass -> reject mix
    for (size_t i = 0; i < kWidth; ++i) {
      soa[w * kWidth + i] = rng.Normal(shift, 1.0);
    }
  }

  ExplainWorkspace workspace;
  std::vector<KsOutcome> outcomes;
  WindowBatch batch{soa.data(), kCount, kWidth};
  ASSERT_TRUE(engine.EvaluateBatchPrepared(*prepared, batch, &workspace,
                                           &outcomes)
                  .ok());
  ASSERT_EQ(outcomes.size(), kCount);

  size_t rejects = 0;
  for (size_t w = 0; w < kCount; ++w) {
    std::vector<double> window(soa.begin() + w * kWidth,
                               soa.begin() + (w + 1) * kWidth);
    std::sort(window.begin(), window.end());
    auto solo = ks::RunSorted(prepared->sorted_reference(), window, 0.05);
    ASSERT_TRUE(solo.ok()) << "window " << w;
    EXPECT_EQ(outcomes[w].statistic, solo->statistic) << "window " << w;
    EXPECT_EQ(outcomes[w].threshold, solo->threshold) << "window " << w;
    EXPECT_EQ(outcomes[w].location, solo->location) << "window " << w;
    EXPECT_EQ(outcomes[w].reject, solo->reject) << "window " << w;
    EXPECT_EQ(outcomes[w].n, solo->n) << "window " << w;
    EXPECT_EQ(outcomes[w].m, solo->m) << "window " << w;
    rejects += outcomes[w].reject ? 1 : 0;
  }
  // The shift ramp must produce both outcomes or the test is vacuous.
  EXPECT_GT(rejects, 0u);
  EXPECT_LT(rejects, kCount);
}

TEST(WindowBatchTest, ValidatesBatchShapeAndContents) {
  Moche engine;
  auto prepared = engine.Prepare({1.0, 2.0, 3.0, 4.0}, 0.05);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  std::vector<KsOutcome> outcomes{{}, {}};

  // Empty batch: OK, outcomes cleared.
  EXPECT_TRUE(engine.EvaluateBatchPrepared(*prepared, WindowBatch{},
                                           &workspace, &outcomes)
                  .ok());
  EXPECT_TRUE(outcomes.empty());

  const double data[4] = {1.0, 2.0, 3.0, 4.0};
  // count > 0 with width == 0 is malformed.
  EXPECT_TRUE(engine
                  .EvaluateBatchPrepared(*prepared, WindowBatch{data, 2, 0},
                                         &workspace, &outcomes)
                  .IsInvalidArgument());
  // count > 0 with null data is malformed.
  EXPECT_TRUE(engine
                  .EvaluateBatchPrepared(*prepared,
                                         WindowBatch{nullptr, 2, 2},
                                         &workspace, &outcomes)
                  .IsInvalidArgument());
  // A non-finite value anywhere in the batch poisons the whole call (one
  // validation pass over the flat buffer).
  const double bad[4] = {1.0, 2.0,
                         std::numeric_limits<double>::quiet_NaN(), 4.0};
  EXPECT_TRUE(engine
                  .EvaluateBatchPrepared(*prepared, WindowBatch{bad, 2, 2},
                                         &workspace, &outcomes)
                  .IsInvalidArgument());
}

TEST(PreparedReferenceTest, AlreadyPassingAndValidationErrors) {
  Moche engine;
  auto prepared = engine.Prepare({1, 2, 3, 4}, 0.05);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  MocheReport report;
  const auto explain = [&](const std::vector<double>& test,
                           const PreferenceList& pref) {
    return engine.ExplainPreparedInto(*prepared, test, pref, &workspace,
                                      &report);
  };
  EXPECT_TRUE(explain({1, 2, 3, 4}, {0, 1, 2, 3}).IsAlreadyPasses());
  // bad preference (not a permutation of [0, m))
  EXPECT_TRUE(explain({9, 9, 9}, {0, 1}).IsInvalidArgument());
  // empty test window
  EXPECT_TRUE(explain({}, {}).IsInvalidArgument());
}

TEST(CumulativeFrameTest, BuildRejectsNonFiniteBeforeSorting) {
  // Regression: Build must validate before sorting — std::sort on a range
  // containing NaN is undefined behavior, and the in-place builder behind
  // it only DCHECKs its preconditions.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(CumulativeFrame::Build({1.0, nan, 0.5}, {1.0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CumulativeFrame::Build({1.0}, {2.0, nan})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace moche
