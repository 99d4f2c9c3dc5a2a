#include "core/cumulative.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/moche.h"
#include "ks/ks_test.h"

namespace moche {
namespace {

struct FramePoint {
  double value;
  int64_t c_r;
  int64_t c_t;
  bool operator==(const FramePoint& o) const {
    return value == o.value && c_r == o.c_r && c_t == o.c_t;
  }
};

std::vector<FramePoint> Points(const CumulativeFrame& frame) {
  std::vector<FramePoint> points;
  for (size_t i = 1; i <= frame.q(); ++i) {
    points.push_back({frame.Value(i), frame.CR(i), frame.CT(i)});
  }
  return points;
}

// The textbook merge of sorted R and T: D's first maximizing base value,
// reported by its first copy (R's when both samples hold it).
double MergeLocation(const std::vector<double>& r,
                     const std::vector<double>& t) {
  double best = 0.0;
  double best_x = r.front();
  size_t i = 0;
  size_t j = 0;
  while (i < r.size() || j < t.size()) {
    const double x =
        j >= t.size() || (i < r.size() && r[i] <= t[j]) ? r[i] : t[j];
    while (i < r.size() && r[i] == x) ++i;
    while (j < t.size() && t[j] == x) ++j;
    const double d =
        std::fabs(static_cast<double>(i) / static_cast<double>(r.size()) -
                  static_cast<double>(j) / static_cast<double>(t.size()));
    if (d > best) {
      best = d;
      best_x = x;
    }
  }
  return best_x;
}

// Example 3 of the paper.
const std::vector<double> kRefExample{14, 14, 14, 14, 20, 20, 20, 20};
const std::vector<double> kTestExample{13, 13, 12, 20};

TEST(CumulativeFrameTest, PaperExampleThreeBaseVector) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->q(), 4u);
  EXPECT_DOUBLE_EQ(frame->Value(1), 12.0);
  EXPECT_DOUBLE_EQ(frame->Value(2), 13.0);
  EXPECT_DOUBLE_EQ(frame->Value(3), 14.0);
  EXPECT_DOUBLE_EQ(frame->Value(4), 20.0);
  EXPECT_EQ(frame->n(), 8u);
  EXPECT_EQ(frame->m(), 4u);
}

TEST(CumulativeFrameTest, PaperExampleThreeCumulativeVectors) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  // C_R = <0, 0, 0, 4, 8>; C_T = <0, 1, 3, 3, 4>.
  EXPECT_EQ(frame->CR(0), 0);
  EXPECT_EQ(frame->CR(1), 0);
  EXPECT_EQ(frame->CR(2), 0);
  EXPECT_EQ(frame->CR(3), 4);
  EXPECT_EQ(frame->CR(4), 8);
  EXPECT_EQ(frame->CT(0), 0);
  EXPECT_EQ(frame->CT(1), 1);
  EXPECT_EQ(frame->CT(2), 3);
  EXPECT_EQ(frame->CT(3), 3);
  EXPECT_EQ(frame->CT(4), 4);
}

TEST(CumulativeFrameTest, PaperExampleThreeSubsetVector) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  // C_S for S = {13, 13} is <0, 0, 2, 2, 2>.
  auto cs = frame->CumulativeOf({13, 13});
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(*cs, (std::vector<int64_t>{0, 0, 2, 2, 2}));
}

TEST(CumulativeFrameTest, CountT) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->CountT(1), 1);  // one 12 in T
  EXPECT_EQ(frame->CountT(2), 2);  // two 13s
  EXPECT_EQ(frame->CountT(3), 0);  // no 14s
  EXPECT_EQ(frame->CountT(4), 1);  // one 20
}

TEST(CumulativeFrameTest, IndexOfValue) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  auto idx = frame->IndexOfValue(14.0);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 3u);
  EXPECT_TRUE(frame->IndexOfValue(15.0).status().IsNotFound());
}

TEST(CumulativeFrameTest, CumulativeOfUnknownValueFails) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->CumulativeOf({99.0}).status().IsNotFound());
}

TEST(CumulativeFrameTest, EmptyInputsRejected) {
  EXPECT_TRUE(CumulativeFrame::Build({}, {1.0}).status().IsInvalidArgument());
  EXPECT_TRUE(CumulativeFrame::Build({1.0}, {}).status().IsInvalidArgument());
}

TEST(CumulativeFrameTest, DuplicatesAcrossSetsCollapse) {
  auto frame = CumulativeFrame::Build({1, 1, 2}, {2, 2, 3});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->q(), 3u);  // values 1, 2, 3
  EXPECT_EQ(frame->CR(3), 3);
  EXPECT_EQ(frame->CT(3), 3);
  EXPECT_EQ(frame->CT(1), 0);
  EXPECT_EQ(frame->CR(1), 2);
}

TEST(CumulativeFrameTest, SingletonSets) {
  auto frame = CumulativeFrame::Build({5.0}, {5.0});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->q(), 1u);
  EXPECT_EQ(frame->CR(1), 1);
  EXPECT_EQ(frame->CT(1), 1);
}

TEST(CumulativeFrameTest, LastEntriesEqualSetSizes) {
  auto frame = CumulativeFrame::Build({1, 5, 5, 9}, {2, 2, 2});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->CR(frame->q()), 4);
  EXPECT_EQ(frame->CT(frame->q()), 3);
}

// The frame keeps, per reference-only run, only its last value: a leading
// run {1, 2, 3}, the interior run {6, 7} and the trailing run {9, 10, 11}
// each leave one point; 5 is in both samples.
TEST(CumulativeFrameTest, CompressesEveryKindOfReferenceOnlyRun) {
  auto frame = CumulativeFrame::Build({1, 2, 3, 5, 6, 7, 9, 10, 11},
                                      {8, 5, 4, 5});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(Points(*frame), (std::vector<FramePoint>{{3, 3, 0},
                                                     {4, 3, 1},
                                                     {5, 4, 3},
                                                     {7, 6, 3},
                                                     {8, 6, 4},
                                                     {11, 9, 4}}));
  EXPECT_LE(frame->q(), 2u * 3u + 1u);  // three distinct test values
  EXPECT_EQ(*frame->IndexOfValue(3.0), 1u);
  EXPECT_TRUE(frame->IndexOfValue(2.0).status().IsNotFound());
  EXPECT_TRUE(frame->IndexOfValue(6.0).status().IsNotFound());
}

// Test values below min R and above max R; a run with repeats ({2, 3, 3})
// is kept as its last value's first copy.
TEST(CumulativeFrameTest, TestValuesOutsideTheReferenceRange) {
  auto frame = CumulativeFrame::Build({2, 3, 3, 4, 6, 6.5}, {7, 1, 4, 4});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(Points(*frame), (std::vector<FramePoint>{{1, 0, 1},
                                                     {3, 3, 1},
                                                     {4, 4, 3},
                                                     {6.5, 6, 3},
                                                     {7, 6, 4}}));
  EXPECT_LE(frame->q(), 2u * 3u + 1u);
}

// At a value in both samples the point carries R's copy, as the merge
// does: with -0.0 in R and +0.0 in T, both KS locations of an explanation
// and ks::StatisticSorted's are -0.0.
TEST(CumulativeFrameTest, SharedZeroKeepsTheReferenceSignBit) {
  const std::vector<double> r{-0.0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<double> t{0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5, 9, 9, 9};
  CumulativeFrame frame;
  CumulativeFrame::BuildFromSortedUncheckedInto(r, t, &frame);
  EXPECT_TRUE(std::signbit(frame.Value(1)));

  double location = 1.0;
  ks::StatisticSorted(r, t, &location);
  EXPECT_TRUE(std::signbit(MergeLocation(r, t)));
  EXPECT_EQ(std::signbit(location), std::signbit(MergeLocation(r, t)));
  EXPECT_EQ(location, MergeLocation(r, t));

  auto report = Moche().Explain(r, t, 0.2, IdentityPreference(t.size()));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->explanation.indices, (std::vector<size_t>{0}));
  EXPECT_EQ(std::signbit(report->original.location),
            std::signbit(MergeLocation(r, t)));
  EXPECT_EQ(report->original.location, MergeLocation(r, t));
  const std::vector<double> after(t.begin() + 1, t.end());
  EXPECT_TRUE(std::signbit(MergeLocation(r, after)));
  EXPECT_EQ(std::signbit(report->after.location),
            std::signbit(MergeLocation(r, after)));
  EXPECT_EQ(report->after.location, MergeLocation(r, after));
}

// A reference-only run ending in equal zeros of both signs is reported by
// its first copy, where the merge reports it.
TEST(CumulativeFrameTest, RunOfMixedZerosKeepsItsFirstCopy) {
  const std::vector<double> r{-1.0, 0.0, -0.0, 1.0};
  const std::vector<double> t{0.5};
  double location = 1.0;
  EXPECT_DOUBLE_EQ(ks::StatisticSorted(r, t, &location), 0.75);
  EXPECT_FALSE(std::signbit(MergeLocation(r, t)));
  EXPECT_EQ(std::signbit(location), std::signbit(MergeLocation(r, t)));
  // Build would re-sort r, and std::sort may swap the equal zeros.
  CumulativeFrame frame;
  CumulativeFrame::BuildFromSortedUncheckedInto(r, t, &frame);
  ASSERT_EQ(frame.q(), 3u);  // 0 (run end), 0.5, 1 (trailing run)
  EXPECT_FALSE(std::signbit(frame.Value(1)));
}

}  // namespace
}  // namespace moche
