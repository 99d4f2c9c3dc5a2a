// Property tests comparing MOCHE against the brute-force oracle on sweeps
// of random small instances. These are the strongest correctness guarantees
// in the suite: on every failing instance MOCHE must return exactly the
// brute-force answer (same size, same lexicographic-minimum explanation),
// and the Theorem 1 existence check must agree with exhaustive search.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/moche.h"
#include "core/size_search.h"
#include "util/rng.h"

namespace moche {
namespace {

struct SweepParams {
  uint64_t seed;
  int value_lo_r, value_hi_r;  // reference values drawn from this range
  int value_lo_t, value_hi_t;  // test values drawn from this range
  double alpha;
  const char* label;
  // Same-support sweeps rarely fail the KS test, so the floor on observed
  // failing instances is per-sweep.
  int min_failing = 5;
  // When true the values are continuous uniforms over the range (no ties)
  // instead of integers (many ties).
  bool continuous = false;
};

std::ostream& operator<<(std::ostream& os, const SweepParams& p) {
  return os << p.label;
}

class MocheVsBruteForce : public ::testing::TestWithParam<SweepParams> {};

// Draws a random instance (sizes vary per repetition) and returns true if
// the KS test fails so there is something to explain.
KsInstance DrawInstance(Rng* rng, const SweepParams& p) {
  KsInstance inst;
  const int n = static_cast<int>(rng->Integer(3, 24));
  const int m = static_cast<int>(rng->Integer(3, 11));
  for (int i = 0; i < n; ++i) {
    inst.reference.push_back(
        p.continuous
            ? rng->Uniform(p.value_lo_r, p.value_hi_r)
            : static_cast<double>(rng->Integer(p.value_lo_r, p.value_hi_r)));
  }
  for (int i = 0; i < m; ++i) {
    inst.test.push_back(
        p.continuous
            ? rng->Uniform(p.value_lo_t, p.value_hi_t)
            : static_cast<double>(rng->Integer(p.value_lo_t, p.value_hi_t)));
  }
  inst.alpha = p.alpha;
  return inst;
}

TEST_P(MocheVsBruteForce, ExplanationSizeMatches) {
  const SweepParams p = GetParam();
  Rng rng(p.seed);
  BruteForceExplainer brute;
  Moche engine;
  ExplainWorkspace workspace;
  int failing = 0;
  for (int rep = 0; rep < 400 && failing < 30; ++rep) {
    const KsInstance inst = DrawInstance(&rng, p);
    auto outcome = RunInstance(inst);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->reject) continue;
    ++failing;

    auto prepared = engine.Prepare(inst.reference, inst.alpha);
    ASSERT_TRUE(prepared.ok());
    auto size =
        engine.FindExplanationSizeInto(*prepared, inst.test, &workspace);
    auto expected = brute.MinimalSize(inst);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(size.ok()) << "MOCHE failed where brute force found k="
                           << *expected;
    EXPECT_EQ(size->k, *expected);
    EXPECT_LE(size->k_hat, size->k);
  }
  EXPECT_GE(failing, p.min_failing)
      << "sweep produced too few failing instances";
}

TEST_P(MocheVsBruteForce, MostComprehensibleExplanationMatches) {
  const SweepParams p = GetParam();
  Rng rng(p.seed + 1);
  BruteForceExplainer brute;
  Moche engine;
  int failing = 0;
  for (int rep = 0; rep < 400 && failing < 25; ++rep) {
    const KsInstance inst = DrawInstance(&rng, p);
    auto outcome = RunInstance(inst);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->reject) continue;
    ++failing;

    const PreferenceList pref = RandomPreference(inst.test.size(), &rng);
    auto fast = engine.Explain(inst, pref);
    auto slow = brute.Explain(inst, pref);
    ASSERT_TRUE(slow.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(fast->explanation.indices, slow->indices);
    EXPECT_TRUE(ValidateExplanation(inst, fast->explanation).ok());
  }
  EXPECT_GE(failing, p.min_failing);
}

TEST_P(MocheVsBruteForce, Theorem1AgreesWithExhaustiveSearch) {
  const SweepParams p = GetParam();
  Rng rng(p.seed + 2);
  BruteForceExplainer brute;
  int checked = 0;
  for (int rep = 0; rep < 40 && checked < 15; ++rep) {
    const KsInstance inst = DrawInstance(&rng, p);
    if (inst.test.size() > 9) continue;  // keep subset enumeration cheap
    ++checked;
    auto frame = CumulativeFrame::Build(inst.reference, inst.test);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, inst.alpha);
    for (size_t h = 1; h < inst.test.size(); ++h) {
      auto expected = brute.ExistsQualifiedSubset(inst, h);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(engine.ExistsQualified(h), *expected)
          << "h=" << h << " m=" << inst.test.size();
    }
  }
  EXPECT_GE(checked, 5);
}

// No (k-1)-subset can reverse the test: minimality, verified exhaustively.
TEST_P(MocheVsBruteForce, NoSmallerSubsetReverses) {
  const SweepParams p = GetParam();
  Rng rng(p.seed + 3);
  BruteForceExplainer brute;
  Moche engine;
  ExplainWorkspace workspace;
  int failing = 0;
  for (int rep = 0; rep < 300 && failing < 10; ++rep) {
    const KsInstance inst = DrawInstance(&rng, p);
    auto outcome = RunInstance(inst);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->reject) continue;
    ++failing;
    auto prepared = engine.Prepare(inst.reference, inst.alpha);
    ASSERT_TRUE(prepared.ok());
    auto size =
        engine.FindExplanationSizeInto(*prepared, inst.test, &workspace);
    ASSERT_TRUE(size.ok());
    if (size->k == 1) continue;
    auto smaller = brute.ExistsQualifiedSubset(inst, size->k - 1);
    ASSERT_TRUE(smaller.ok());
    EXPECT_FALSE(*smaller) << "a (k-1)-subset reverses the test; k too big";
  }
  EXPECT_GE(failing, std::min(p.min_failing, 3));
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, MocheVsBruteForce,
    ::testing::Values(
        // Heavy overlap: R and T share most of their support, many ties.
        SweepParams{101, 0, 6, 0, 6, 0.10, "overlapping_discrete", 3},
        // Shifted support: the classic drift pattern.
        SweepParams{202, 0, 6, 3, 9, 0.10, "shifted_discrete"},
        // Disjoint support: extreme failures, explanations near m-1.
        SweepParams{303, 0, 4, 6, 10, 0.10, "disjoint_discrete"},
        // Tight alpha: harder to fail, larger thresholds.
        SweepParams{404, 0, 5, 2, 8, 0.02, "tight_alpha"},
        // Loose alpha (still < 2/e^2): small thresholds, easy failures.
        SweepParams{505, 0, 5, 2, 8, 0.25, "loose_alpha"},
        // Few distinct values: massive duplication stresses multiplicity
        // handling in the cumulative machinery.
        SweepParams{606, 0, 2, 1, 3, 0.10, "binary_values"},
        // Continuous values: all points distinct, q = n + m exactly.
        SweepParams{707, 0, 6, 3, 9, 0.10, "continuous_shifted", 5, true},
        SweepParams{808, 0, 5, 4, 12, 0.10, "continuous_disjointish", 5,
                    true}),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace moche
