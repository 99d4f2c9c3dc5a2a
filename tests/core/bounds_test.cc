#include "core/bounds.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/bounds_witness.h"
#include "ks/ks_test.h"
#include "testing_util.h"
#include "util/rng.h"

namespace moche {
namespace {

using testing_util::kTightTol;

// Example 3/4 instance: R = {14 x4, 20 x4}, T = {13, 13, 12, 20}, alpha 0.3.
class PaperBoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto frame = CumulativeFrame::Build({14, 14, 14, 14, 20, 20, 20, 20},
                                        {13, 13, 12, 20});
    ASSERT_TRUE(frame.ok());
    frame_ = std::make_unique<CumulativeFrame>(std::move(frame).value());
    engine_ = std::make_unique<BoundsEngine>(*frame_, 0.3);
  }

  std::unique_ptr<CumulativeFrame> frame_;
  std::unique_ptr<BoundsEngine> engine_;
};

TEST_F(PaperBoundsTest, OmegaFormula) {
  const double c = *ks::CriticalValue(0.3);
  // Omega(h) = c * sqrt(m-h + (m-h)^2/n), m = 4, n = 8.
  EXPECT_NEAR(engine_->Omega(1), c * std::sqrt(3.0 + 9.0 / 8.0), kTightTol);
  EXPECT_NEAR(engine_->Omega(2), c * std::sqrt(2.0 + 4.0 / 8.0), kTightTol);
}

TEST_F(PaperBoundsTest, GammaFormula) {
  // Gamma(i,h) = C_T[i] - ((m-h)/n) C_R[i].
  EXPECT_NEAR(engine_->Gamma(1, 1), 1.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(2, 1), 3.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(3, 1), 3.0 - (3.0 / 8.0) * 4.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(4, 1), 4.0 - (3.0 / 8.0) * 8.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(3, 2), 3.0 - (2.0 / 8.0) * 4.0, kTightTol);
}

TEST_F(PaperBoundsTest, ExampleFourSizeOneBoundsContradict) {
  // Paper: at h = 1, l_2 = 2 and u_2 = 1, so no qualified 1-vector exists.
  const BoundsVectors b = ComputeBounds(*engine_, 1);
  EXPECT_EQ(b.lower[2], 2);
  EXPECT_EQ(b.upper[2], 1);
  EXPECT_FALSE(engine_->ExistsQualified(1));
}

TEST_F(PaperBoundsTest, ExampleFourSizeTwoBounds) {
  // At h = 2 a qualified vector exists. (l_1,u_1) = (0,1) as printed in
  // Example 4; for i >= 2 the formulas give l_i = 2 — Example 4's text lists
  // (1,2) but Example 6 confirms l^k_3 = 2, so we encode the formula value.
  const BoundsVectors b = ComputeBounds(*engine_, 2);
  EXPECT_EQ(b.lower[1], 0);
  EXPECT_EQ(b.upper[1], 1);
  EXPECT_EQ(b.lower[2], 2);
  EXPECT_EQ(b.upper[2], 2);
  EXPECT_EQ(b.lower[3], 2);
  EXPECT_EQ(b.upper[3], 2);
  EXPECT_EQ(b.lower[4], 2);
  EXPECT_EQ(b.upper[4], 2);
  EXPECT_TRUE(engine_->ExistsQualified(2));
}

TEST_F(PaperBoundsTest, NecessaryConditionMatchesExampleFive) {
  // Example 5: h = 2 satisfies Theorem 2, h = 1 does not.
  EXPECT_FALSE(engine_->NecessaryCondition(1));
  EXPECT_TRUE(engine_->NecessaryCondition(2));
  EXPECT_TRUE(engine_->NecessaryCondition(3));  // monotone
}

TEST_F(PaperBoundsTest, ConstructedVectorIsQualified) {
  auto cum = ConstructQualifiedVector(*engine_, 2);
  ASSERT_TRUE(cum.ok());
  EXPECT_EQ(cum->front(), 0);
  EXPECT_EQ(cum->back(), 2);
  // The denoted subset's removal must pass the KS test.
  const std::vector<double> subset = VectorToSubset(*frame_, *cum);
  ASSERT_EQ(subset.size(), 2u);
  RemovalKs removal({14, 14, 14, 14, 20, 20, 20, 20}, {13, 13, 12, 20}, 0.3);
  for (double v : subset) ASSERT_TRUE(removal.RemoveValue(v).ok());
  EXPECT_TRUE(removal.Passes());
}

TEST_F(PaperBoundsTest, ConstructAtInfeasibleSizeFails) {
  EXPECT_TRUE(ConstructQualifiedVector(*engine_, 1).status().IsNotFound());
}

TEST(CeilFloorTolTest, ExactIntegersAndNearMisses) {
  EXPECT_EQ(CeilTol(2.0), 2);
  EXPECT_EQ(FloorTol(2.0), 2);
  // Values a hair above/below an integer (floating-point noise) snap to it.
  EXPECT_EQ(CeilTol(2.0 + 1e-12), 2);
  EXPECT_EQ(FloorTol(2.0 - 1e-12), 2);
  // Genuine fractional parts round outward as usual.
  EXPECT_EQ(CeilTol(2.4), 3);
  EXPECT_EQ(FloorTol(2.4), 2);
  EXPECT_EQ(CeilTol(-2.4), -2);
  EXPECT_EQ(FloorTol(-2.4), -3);
}

TEST(BoundsEngineTest, UpperBoundAtLastIndexEqualsH) {
  // l_q >= h - m + C_T[q] = h and u_q <= h force u_q == h whenever a
  // qualified vector exists; spot-check on random failing instances.
  Rng rng(5);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 30; ++i) r.push_back(rng.Integer(0, 6));
    for (int i = 0; i < 20; ++i) t.push_back(rng.Integer(3, 9));
    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    for (size_t h = 1; h < 20; ++h) {
      if (engine.ExistsQualified(h)) {
        const BoundsVectors b = ComputeBounds(engine, h);
        EXPECT_EQ(b.upper[frame->q()], static_cast<int64_t>(h));
        EXPECT_LE(b.lower[frame->q()], b.upper[frame->q()]);
        break;
      }
    }
  }
}

TEST(BoundsEngineTest, Theorem2MonotoneInH) {
  Rng rng(9);
  for (int rep = 0; rep < 30; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    const int n = static_cast<int>(rng.Integer(5, 40));
    const int m = static_cast<int>(rng.Integer(5, 25));
    for (int i = 0; i < n; ++i) r.push_back(rng.Integer(0, 10));
    for (int i = 0; i < m; ++i) t.push_back(rng.Integer(0, 10));
    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    bool seen_true = false;
    for (size_t h = 1; h + 1 <= static_cast<size_t>(m); ++h) {
      const bool holds = engine.NecessaryCondition(h);
      if (seen_true) {
        EXPECT_TRUE(holds) << "Theorem 2 not monotone at h=" << h;
      }
      seen_true = seen_true || holds;
    }
  }
}

TEST(BoundsEngineTest, ConstructedVectorsPassForAllFeasibleSizes) {
  Rng rng(21);
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 25; ++i) r.push_back(rng.Integer(0, 6));
    for (int i = 0; i < 12; ++i) t.push_back(rng.Integer(2, 9));
    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    RemovalKs removal(r, t, 0.05);
    for (size_t h = 1; h <= 11; ++h) {
      if (!engine.ExistsQualified(h)) continue;
      auto cum = ConstructQualifiedVector(engine, h);
      ASSERT_TRUE(cum.ok());
      const std::vector<double> subset = VectorToSubset(*frame, *cum);
      ASSERT_EQ(subset.size(), h);
      removal.Reset();
      for (double v : subset) ASSERT_TRUE(removal.RemoveValue(v).ok());
      EXPECT_TRUE(removal.Passes()) << "h=" << h;
    }
  }
}

}  // namespace
}  // namespace moche
