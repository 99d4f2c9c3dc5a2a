// Certified-triage properties (src/sketch/sketched_reference.h and
// Moche::TriageSketchedInto).
//
// The contract under test: a kCertainPass / kCertainFail verdict is
// CERTIFIED — the exact ks::Run decision on the same (reference, window)
// is guaranteed to agree. A disagreement is a hard bug, never flaky test
// noise, because the bracket is derived from the sketch's exact integer
// rank bound and the margin only ever widens the uncertain band. The
// randomized sweep below therefore asserts agreement on every certified
// verdict, across regimes chosen to produce all three verdicts.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "ks/ks_test.h"
#include "sketch/sketched_reference.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace moche {
namespace {

using sketch::KllOptions;
using sketch::SketchedReference;
using sketch::SketchTriage;
using sketch::TriageVerdict;

SketchedReference MakeSketched(const std::vector<double>& reference,
                               double alpha, size_t k) {
  KllOptions options;
  options.capacity = k;
  auto sketched = SketchedReference::FromSample(reference, alpha, options);
  EXPECT_TRUE(sketched.ok()) << sketched.status().message();
  return std::move(*sketched);
}

// One window through Moche::TriageSketchedInto with a fresh workspace.
SketchTriage Triage(const Moche& engine, const SketchedReference& sketched,
                    const std::vector<double>& window) {
  ExplainWorkspace workspace;
  SketchTriage triage;
  const Status status =
      engine.TriageSketchedInto(sketched, window, &workspace, &triage);
  EXPECT_TRUE(status.ok()) << status.message();
  return triage;
}

TEST(SketchTriageTest, CertifiedVerdictsAgreeWithExactKs) {
  Rng rng(101);
  const double alpha = 0.05;
  const size_t n = 4000;
  std::vector<double> reference;
  reference.reserve(n);
  for (size_t i = 0; i < n; ++i) reference.push_back(rng.Normal(0.0, 1.0));

  const Moche engine{MocheOptions{}};
  // A deliberately coarse sketch (k = 128, epsilon ~ 0.04) keeps the
  // uncertain band wide but narrower than the KS threshold itself, so the
  // shift ladder below exercises all three verdicts. (At k = 32 epsilon
  // exceeds the m = 40 threshold and a certified pass cannot exist.)
  const SketchedReference sketched = MakeSketched(reference, alpha, 128);
  ASSERT_GT(sketched.epsilon(), 0.0);

  size_t certified = 0;
  size_t uncertain = 0;
  bool saw_pass = false;
  bool saw_fail = false;
  for (int trial = 0; trial < 200; ++trial) {
    // Shifts from 0 (clear pass) to 3 sigma (clear fail), dense in the
    // middle where the bracket straddles the threshold.
    const double shift = 3.0 * static_cast<double>(trial % 25) / 24.0;
    const size_t m = 40 + static_cast<size_t>(trial % 3) * 40;
    std::vector<double> window;
    window.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      window.push_back(rng.Normal(shift, 1.0));
    }

    const SketchTriage triage = Triage(engine, sketched, window);
    auto exact = ks::Run(reference, window, alpha);
    ASSERT_TRUE(exact.ok()) << exact.status().message();

    // The bracket must contain the true statistic, always.
    ASSERT_LE(triage.lower, exact->statistic + 1e-12);
    ASSERT_GE(triage.upper, exact->statistic - 1e-12);
    ASSERT_EQ(triage.n, n);
    ASSERT_EQ(triage.m, m);

    switch (triage.verdict) {
      case TriageVerdict::kCertainPass:
        ASSERT_FALSE(exact->reject)
            << "certified pass but exact KS rejects (shift " << shift
            << ", m " << m << ") — hard bug";
        ++certified;
        saw_pass = true;
        break;
      case TriageVerdict::kCertainFail:
        ASSERT_TRUE(exact->reject)
            << "certified fail but exact KS passes (shift " << shift
            << ", m " << m << ") — hard bug";
        ++certified;
        saw_fail = true;
        break;
      case TriageVerdict::kUncertain:
        ++uncertain;
        break;
    }
  }
  // The regimes must actually exercise the triage: both certified verdicts
  // and a non-trivial uncertain band.
  EXPECT_TRUE(saw_pass);
  EXPECT_TRUE(saw_fail);
  EXPECT_GT(certified, 0u);
  EXPECT_GT(uncertain, 0u);

  // A window holding a non-finite value, or none at all, is rejected
  // before it is sorted.
  ExplainWorkspace workspace;
  SketchTriage triage;
  EXPECT_TRUE(engine
                  .TriageSketchedInto(sketched, {0.5, std::nan("")},
                                      &workspace, &triage)
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.TriageSketchedInto(sketched, {}, &workspace, &triage)
                  .IsInvalidArgument());
}

TEST(SketchTriageTest, SerializeRoundTripPreservesTriage) {
  Rng rng(109);
  const double alpha = 0.02;
  std::vector<double> reference;
  for (int i = 0; i < 1500; ++i) reference.push_back(rng.Exponential(1.0));
  const SketchedReference sketched = MakeSketched(reference, alpha, 32);

  std::string bytes;
  sketched.SerializeTo(&bytes);
  bin::Reader reader(bytes);
  auto restored = SketchedReference::DeserializeFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(reader.AtEnd());
  std::string again;
  restored->SerializeTo(&again);
  EXPECT_EQ(bytes, again);

  std::vector<double> window;
  for (int i = 0; i < 60; ++i) window.push_back(rng.Exponential(0.7));
  std::sort(window.begin(), window.end());
  EXPECT_EQ(restored->StatisticAgainstSorted(window),
            sketched.StatisticAgainstSorted(window));
  const SketchTriage a = sketched.Classify(0.3, window.size());
  const SketchTriage b = restored->Classify(0.3, window.size());
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.epsilon, b.epsilon);
}

// More capacity can only shrink the uncertain band: a window certified at
// coarse k must stay certified (same direction) at finer k.
TEST(SketchTriageTest, FinerSketchesNeverLoseCertifications) {
  Rng rng(113);
  const double alpha = 0.05;
  std::vector<double> reference;
  for (int i = 0; i < 4000; ++i) reference.push_back(rng.Uniform(0.0, 1.0));
  const Moche engine{MocheOptions{}};
  const SketchedReference coarse = MakeSketched(reference, alpha, 16);
  const SketchedReference fine = MakeSketched(reference, alpha, 512);
  ASSERT_LT(fine.epsilon(), coarse.epsilon());

  for (int trial = 0; trial < 60; ++trial) {
    const double shift = 0.8 * static_cast<double>(trial) / 59.0;
    std::vector<double> window;
    for (int j = 0; j < 80; ++j) {
      window.push_back(rng.Uniform(shift, 1.0 + shift));
    }
    const SketchTriage coarse_triage = Triage(engine, coarse, window);
    const SketchTriage fine_triage = Triage(engine, fine, window);
    auto exact = ks::Run(reference, window, alpha);
    ASSERT_TRUE(exact.ok());
    // Certified verdicts at ANY capacity agree with the exact decision, so
    // certifications can change only by leaving the uncertain band.
    for (const SketchTriage* t : {&coarse_triage, &fine_triage}) {
      if (t->verdict == TriageVerdict::kCertainPass) {
        ASSERT_FALSE(exact->reject);
      } else if (t->verdict == TriageVerdict::kCertainFail) {
        ASSERT_TRUE(exact->reject);
      }
    }
  }
}

}  // namespace
}  // namespace moche
