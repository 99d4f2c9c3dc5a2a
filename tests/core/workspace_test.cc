// The workspace entry points (Moche::ExplainPreparedInto / ExplainInto /
// FindExplanationSizeInto) must produce reports bit-identical to the
// one-shot Explain — a recycled workspace and report carry no state from
// one call into the next.

#include <algorithm>
#include <limits>
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
  EXPECT_EQ(a.size_stats.theorem1_checks, b.size_stats.theorem1_checks);
  EXPECT_EQ(a.size_stats.theorem2_checks, b.size_stats.theorem2_checks);
  EXPECT_EQ(a.size_stats.probe_refutations, b.size_stats.probe_refutations);
  EXPECT_EQ(a.size_stats.full_scans, b.size_stats.full_scans);
  EXPECT_EQ(a.build_stats.candidates_checked, b.build_stats.candidates_checked);
  EXPECT_EQ(a.build_stats.recursion_steps, b.build_stats.recursion_steps);
  EXPECT_EQ(a.original.statistic, b.original.statistic);
  EXPECT_EQ(a.original.threshold, b.original.threshold);
  EXPECT_EQ(a.original.location, b.original.location);
  EXPECT_EQ(a.original.reject, b.original.reject);
  EXPECT_EQ(a.after.statistic, b.after.statistic);
  EXPECT_EQ(a.after.threshold, b.after.threshold);
  EXPECT_EQ(a.after.location, b.after.location);
  EXPECT_EQ(a.after.reject, b.after.reject);
}

std::vector<double> NormalSample(Rng* rng, size_t count, double mean,
                                 double sd) {
  std::vector<double> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(rng->Normal(mean, sd));
  return out;
}

TEST(ExplainWorkspaceTest, RecycledWorkspaceMatchesExplainPrepared) {
  Rng rng(123);
  const std::vector<double> reference = NormalSample(&rng, 300, 0.0, 1.0);
  const Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  // One workspace and one report recycled across windows of DIFFERENT
  // sizes and drift strengths — every report must equal the one-shot
  // Explain, which sorts the reference per call.
  ExplainWorkspace workspace;
  MocheReport report;
  int explained = 0;
  for (int w = 0; w < 10; ++w) {
    const size_t m = 60 + 17 * static_cast<size_t>(w % 4);
    const double shift = 0.6 + 0.15 * w;
    const std::vector<double> test = NormalSample(&rng, m, shift, 1.05);
    const PreferenceList pref = RandomPreference(m, &rng);

    auto one_shot = engine.Explain(reference, test, 0.05, pref);
    const Status into_status =
        engine.ExplainPreparedInto(*prepared, test, pref, &workspace, &report);
    ASSERT_EQ(one_shot.ok(), into_status.ok()) << "window " << w;
    if (!one_shot.ok()) {
      EXPECT_EQ(one_shot.status().code(), into_status.code());
      continue;
    }
    ++explained;
    ExpectSameReport(*one_shot, report);
  }
  EXPECT_GE(explained, 6);
}

TEST(ExplainWorkspaceTest, ExplainIntoMatchesExplain) {
  Rng rng(321);
  const Moche engine;
  ExplainWorkspace workspace;
  MocheReport report;
  for (int i = 0; i < 4; ++i) {
    const std::vector<double> reference =
        NormalSample(&rng, 150 + 40 * static_cast<size_t>(i), 0.0, 1.0);
    const std::vector<double> test = NormalSample(&rng, 90, 1.1, 1.0);
    const PreferenceList pref = RandomPreference(test.size(), &rng);

    auto one_shot = engine.Explain(reference, test, 0.05, pref);
    const Status into_status = engine.ExplainInto(reference, test, 0.05, pref,
                                                  &workspace, &report);
    ASSERT_EQ(one_shot.ok(), into_status.ok()) << "instance " << i;
    if (one_shot.ok()) ExpectSameReport(*one_shot, report);
  }
}

TEST(ExplainWorkspaceTest, PaperExampleThroughWorkspace) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  const Moche engine;
  auto prepared = engine.Prepare(r, 0.3);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  MocheReport report;
  ASSERT_TRUE(engine
                  .ExplainPreparedInto(*prepared, t, {3, 2, 1, 0}, &workspace,
                                       &report)
                  .ok());
  EXPECT_EQ(report.explanation.indices, (std::vector<size_t>{2, 1}));
  EXPECT_EQ(report.k, 2u);
}

TEST(ExplainWorkspaceTest, ErrorPathsMatchOneShot) {
  const Moche engine;
  auto prepared = engine.Prepare({1, 2, 3, 4}, 0.05);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  MocheReport report;
  // Nothing to explain.
  EXPECT_TRUE(engine
                  .ExplainPreparedInto(*prepared, {1, 2, 3, 4}, {0, 1, 2, 3},
                                       &workspace, &report)
                  .IsAlreadyPasses());
  // Bad preference list.
  EXPECT_TRUE(engine
                  .ExplainPreparedInto(*prepared, {9, 9, 9}, {0, 1},
                                       &workspace, &report)
                  .IsInvalidArgument());
  // Empty test window.
  EXPECT_TRUE(
      engine.ExplainPreparedInto(*prepared, {}, {}, &workspace, &report)
          .IsInvalidArgument());
  // A failed call must not poison the workspace for the next one.
  const std::vector<double> t{13, 13, 12, 20};
  auto prepared2 = engine.Prepare({14, 14, 14, 14, 20, 20, 20, 20}, 0.3);
  ASSERT_TRUE(prepared2.ok());
  ASSERT_TRUE(engine
                  .ExplainPreparedInto(*prepared2, t, {3, 2, 1, 0}, &workspace,
                                       &report)
                  .ok());
  EXPECT_EQ(report.explanation.indices, (std::vector<size_t>{2, 1}));
}

// FindExplanationSizeInto over a prepared reference, with one workspace
// recycled across windows, matches phase 1 of the one-shot Explain.
TEST(FindExplanationSizePreparedTest, MatchesUnpreparedVariant) {
  Rng rng(555);
  const std::vector<double> reference = NormalSample(&rng, 250, 0.0, 1.0);
  const Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  ExplainWorkspace workspace;
  int sized = 0;
  for (int w = 0; w < 8; ++w) {
    const std::vector<double> test =
        NormalSample(&rng, 80, 0.4 + 0.2 * w, 1.0);
    auto report = engine.Explain(reference, test, 0.05,
                                 IdentityPreference(test.size()));
    auto via_workspace =
        engine.FindExplanationSizeInto(*prepared, test, &workspace);
    ASSERT_EQ(report.ok(), via_workspace.ok()) << "window " << w;
    if (!report.ok()) {
      EXPECT_EQ(report.status().code(), via_workspace.status().code());
      continue;
    }
    ++sized;
    const SizeSearchResult& direct = report->size_stats;
    EXPECT_EQ(report->k, via_workspace->k);
    EXPECT_EQ(report->k_hat, via_workspace->k_hat);
    EXPECT_EQ(direct.theorem1_checks, via_workspace->theorem1_checks);
    EXPECT_EQ(direct.theorem2_checks, via_workspace->theorem2_checks);
    EXPECT_EQ(direct.probe_refutations, via_workspace->probe_refutations);
    EXPECT_EQ(direct.full_scans, via_workspace->full_scans);
  }
  EXPECT_GE(sized, 4);
}

TEST(FindExplanationSizePreparedTest, AlreadyPassesAndValidation) {
  const Moche engine;
  auto prepared = engine.Prepare({1, 2, 3, 4}, 0.05);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  EXPECT_TRUE(engine.FindExplanationSizeInto(*prepared, {1, 2, 3, 4},
                                             &workspace)
                  .status()
                  .IsAlreadyPasses());
  EXPECT_TRUE(engine.FindExplanationSizeInto(*prepared, {}, &workspace)
                  .status()
                  .IsInvalidArgument());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(engine.FindExplanationSizeInto(*prepared, {1, nan}, &workspace)
                  .status()
                  .IsInvalidArgument());
  // A failed call must not poison the workspace for the next one.
  auto paper = engine.Prepare({14, 14, 14, 14, 20, 20, 20, 20}, 0.3);
  ASSERT_TRUE(paper.ok());
  auto size = engine.FindExplanationSizeInto(*paper, {13, 13, 12, 20},
                                             &workspace);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size->k, 2u);
}

}  // namespace
}  // namespace moche
