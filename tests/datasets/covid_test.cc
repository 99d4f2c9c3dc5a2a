#include "datasets/covid.h"

#include <gtest/gtest.h>

#include "core/moche.h"

namespace moche {
namespace datasets {
namespace {

class CovidDataTest : public ::testing::Test {
 protected:
  void SetUp() override { data_ = MakeCovidData(); }
  CovidData data_;
};

TEST_F(CovidDataTest, PaperSetSizes) {
  EXPECT_EQ(data_.august_age.size(), 2175u);
  EXPECT_EQ(data_.september_age.size(), 3375u);
  EXPECT_EQ(data_.august_ha.size(), 2175u);
  EXPECT_EQ(data_.september_ha.size(), 3375u);
}

TEST_F(CovidDataTest, AgeGroupsInRange) {
  for (int a : data_.august_age) {
    ASSERT_GE(a, 1);
    ASSERT_LE(a, 10);
  }
  for (int a : data_.september_age) {
    ASSERT_GE(a, 1);
    ASSERT_LE(a, 10);
  }
}

TEST_F(CovidDataTest, FailsKsTestAtPointZeroFive) {
  const KsInstance inst = data_.MakeInstance(0.05);
  auto outcome = RunInstance(inst);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->reject);
}

TEST_F(CovidDataTest, ExplanationSizeNearPaperValue) {
  // The paper's instance yields k = 291 (8.6% of |T|). Our synthetic
  // calibration reproduces the same order: k within [150, 450], i.e. a
  // small single-digit percentage of the 3375 test points.
  Moche engine;
  const KsInstance inst = data_.MakeInstance(0.05);
  auto prepared = engine.Prepare(inst.reference, 0.05);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  auto size = engine.FindExplanationSizeInto(*prepared, inst.test, &workspace);
  ASSERT_TRUE(size.ok());
  EXPECT_GE(size->k, 150u);
  EXPECT_LE(size->k, 450u);
}

TEST_F(CovidDataTest, HaPreferencePutsFhaFirst) {
  const PreferenceList pref = data_.PreferenceByHaPopulationDesc();
  ASSERT_EQ(pref.size(), data_.september_age.size());
  // count FHA cases; the first that-many entries must all be FHA
  size_t fha_count = 0;
  for (HealthAuthority ha : data_.september_ha) {
    if (ha == HealthAuthority::kFHA) ++fha_count;
  }
  ASSERT_GT(fha_count, 0u);
  for (size_t pos = 0; pos < fha_count; ++pos) {
    EXPECT_EQ(data_.september_ha[pref[pos]], HealthAuthority::kFHA);
  }
}

TEST_F(CovidDataTest, AgePreferenceIsDescending) {
  const PreferenceList pref = data_.PreferenceByAgeGroupDesc();
  for (size_t pos = 1; pos < pref.size(); ++pos) {
    EXPECT_GE(data_.september_age[pref[pos - 1]],
              data_.september_age[pref[pos]]);
  }
}

TEST_F(CovidDataTest, MocheWithHaPreferenceSelectsOnlyFha) {
  // Figure 1b: all points of I_p come from FHA, the most populous HA.
  Moche engine;
  const KsInstance inst = data_.MakeInstance(0.05);
  auto report = engine.Explain(inst, data_.PreferenceByHaPopulationDesc());
  ASSERT_TRUE(report.ok());
  const std::vector<size_t> ha_counts =
      data_.HaCounts(report->explanation.indices);
  for (size_t h = 1; h < ha_counts.size(); ++h) {
    EXPECT_EQ(ha_counts[h], 0u) << "non-FHA cases in I_p";
  }
  EXPECT_EQ(ha_counts[0], report->explanation.size());
}

TEST_F(CovidDataTest, BothPreferencesGiveSameSizeExplanations) {
  // All explanations on the same failed test share the size k (Def. 1).
  Moche engine;
  const KsInstance inst = data_.MakeInstance(0.05);
  auto ia = engine.Explain(inst, data_.PreferenceByAgeGroupDesc());
  auto ip = engine.Explain(inst, data_.PreferenceByHaPopulationDesc());
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ia->k, ip->k);
  EXPECT_EQ(ia->explanation.size(), ip->explanation.size());
}

TEST_F(CovidDataTest, AgeHistogramSumsToOne) {
  const std::vector<double> hist = CovidData::AgeHistogram(data_.august_age);
  ASSERT_EQ(hist.size(), 10u);
  double sum = 0.0;
  for (double h : hist) sum += h;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(CovidDataTest, DeterministicForFixedSeed) {
  const CovidData again = MakeCovidData();
  EXPECT_EQ(again.september_age, data_.september_age);
  CovidOptions other;
  other.seed = 12345;
  const CovidData different = MakeCovidData(other);
  EXPECT_NE(different.september_age, data_.september_age);
}

TEST(HealthAuthorityTest, Names) {
  EXPECT_STREQ(HealthAuthorityName(HealthAuthority::kFHA), "FHA");
  EXPECT_STREQ(HealthAuthorityName(HealthAuthority::kVIHA), "VIHA");
}

}  // namespace
}  // namespace datasets
}  // namespace moche
