#include "ks/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "testing_util.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace moche {
namespace {

using testing_util::kTightTol;

// The detector's statistic recomputed by brute force in integers:
// max |m*C_R(x) - n*C_W(x)| over every reference and window value x, over
// (n*m) as a double — the same division the detector performs, so the two
// must agree bit for bit.
double IntegerOracleStatistic(const std::vector<double>& reference,
                              const std::deque<double>& window) {
  const int64_t n = static_cast<int64_t>(reference.size());
  const int64_t m = static_cast<int64_t>(window.size());
  int64_t best = 0;
  const auto score_at = [&](double x) {
    int64_t c_r = 0;
    int64_t c_w = 0;
    for (double r : reference) c_r += r <= x;
    for (double w : window) c_w += w <= x;
    best = std::max(best, std::abs(m * c_r - n * c_w));
  };
  for (double x : reference) score_at(x);
  for (double x : window) score_at(x);
  return static_cast<double>(best) /
         (static_cast<double>(n) * static_cast<double>(m));
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Asserts the full-window statistic equals the integer oracle bit for bit.
void ExpectBitExact(const StreamingKs& stream,
                    const std::vector<double>& reference,
                    const std::deque<double>& mirror, int step) {
  auto outcome = stream.CurrentOutcome();
  ASSERT_TRUE(outcome.ok()) << "step " << step;
  const double expected = IntegerOracleStatistic(reference, mirror);
  ASSERT_EQ(Bits(outcome->statistic), Bits(expected))
      << "step " << step << ": " << outcome->statistic << " vs "
      << expected;
}

std::shared_ptr<const std::vector<double>> SortedCopy(
    std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return std::make_shared<const std::vector<double>>(std::move(values));
}

TEST(StreamingKsTest, ValidatesConstruction) {
  EXPECT_FALSE(StreamingKs::Create({}, 10, 0.05).ok());
  EXPECT_FALSE(StreamingKs::Create({1.0}, 0, 0.05).ok());
  EXPECT_FALSE(StreamingKs::Create({1.0}, 10, 0.0).ok());
  EXPECT_FALSE(StreamingKs::Create({1.0, NAN}, 10, 0.05).ok());
  EXPECT_TRUE(StreamingKs::Create({1.0, 2.0}, 10, 0.05).ok());
}

TEST(StreamingKsTest, RejectsNonFiniteObservations) {
  auto stream = StreamingKs::Create({1, 2, 3}, 2, 0.05);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stream->Push(NAN).ok());
  EXPECT_FALSE(stream->Push(INFINITY).ok());
  EXPECT_TRUE(stream->Push(1.0).ok());
}

TEST(StreamingKsTest, OutcomeRequiresFullWindow) {
  auto stream = StreamingKs::Create({1, 2, 3}, 3, 0.05);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stream->WindowFull());
  EXPECT_FALSE(stream->CurrentOutcome().ok());
  EXPECT_FALSE(stream->Drifted());
  ASSERT_TRUE(stream->Push(1.0).ok());
  ASSERT_TRUE(stream->Push(2.0).ok());
  ASSERT_TRUE(stream->Push(3.0).ok());
  EXPECT_TRUE(stream->WindowFull());
  EXPECT_TRUE(stream->CurrentOutcome().ok());
}

TEST(StreamingKsTest, IdenticalWindowHasZeroStatistic) {
  const std::vector<double> ref{1, 2, 3, 4};
  auto stream = StreamingKs::Create(ref, 4, 0.05);
  ASSERT_TRUE(stream.ok());
  for (double v : ref) ASSERT_TRUE(stream->Push(v).ok());
  auto outcome = stream->CurrentOutcome();
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->statistic, 0.0);
  EXPECT_FALSE(outcome->reject);
}

// The core property: the incremental statistic equals a from-scratch
// ks::Statistic on the current window at every step, across a long random
// stream with duplicates and evictions.
TEST(StreamingKsTest, MatchesBatchStatisticAtEveryStep) {
  Rng rng(77);
  std::vector<double> ref;
  for (int i = 0; i < 60; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 12)));
  }
  const size_t window = 25;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());

  std::deque<double> mirror;
  for (int step = 0; step < 400; ++step) {
    // mixture: mostly same support, occasionally shifted (drift)
    const double v = step < 200
                         ? static_cast<double>(rng.Integer(0, 12))
                         : static_cast<double>(rng.Integer(6, 18));
    ASSERT_TRUE(stream->Push(v).ok());
    mirror.push_back(v);
    if (mirror.size() > window) mirror.pop_front();

    if (stream->WindowFull()) {
      auto outcome = stream->CurrentOutcome();
      ASSERT_TRUE(outcome.ok());
      const double expected =
          ks::Statistic(ref, {mirror.begin(), mirror.end()});
      ASSERT_NEAR(outcome->statistic, expected, kTightTol) << "step " << step;
      ExpectBitExact(*stream, ref, mirror, step);
    }
  }
}

TEST(StreamingKsTest, WindowContentsMatchArrivalOrder) {
  auto stream = StreamingKs::Create({5.0, 6.0}, 3, 0.05);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->Push(1.0).ok());
  ASSERT_TRUE(stream->Push(2.0).ok());
  ASSERT_TRUE(stream->Push(3.0).ok());
  EXPECT_EQ(stream->WindowContents(), (std::vector<double>{1, 2, 3}));
  ASSERT_TRUE(stream->Push(4.0).ok());  // evicts 1.0
  EXPECT_EQ(stream->WindowContents(), (std::vector<double>{2, 3, 4}));
}

TEST(StreamingKsTest, WindowContentsIntoReusesBufferAcrossWraparound) {
  auto stream = StreamingKs::Create({5.0, 6.0}, 3, 0.05);
  ASSERT_TRUE(stream.ok());
  std::vector<double> snapshot{99.0, 99.0, 99.0, 99.0};  // stale contents
  stream->WindowContentsInto(&snapshot);
  EXPECT_TRUE(snapshot.empty());
  // Push far past capacity so the ring wraps several times; the reused
  // buffer must always equal the from-scratch WindowContents.
  for (int i = 1; i <= 11; ++i) {
    ASSERT_TRUE(stream->Push(static_cast<double>(i)).ok());
    stream->WindowContentsInto(&snapshot);
    EXPECT_EQ(snapshot, stream->WindowContents()) << "push " << i;
  }
  EXPECT_EQ(snapshot, (std::vector<double>{9, 10, 11}));
}

TEST(StreamingKsTest, DetectsDriftAfterDistributionShift) {
  Rng rng(91);
  std::vector<double> ref;
  for (int i = 0; i < 300; ++i) ref.push_back(rng.Normal(0.0, 1.0));
  const size_t window = 100;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());

  // in-distribution phase: fill the window, expect no drift
  for (size_t i = 0; i < window; ++i) {
    ASSERT_TRUE(stream->Push(rng.Normal(0.0, 1.0)).ok());
  }
  EXPECT_FALSE(stream->Drifted());

  // shifted phase: drift must fire once the window fills with N(3,1)
  bool fired = false;
  for (int i = 0; i < 150 && !fired; ++i) {
    ASSERT_TRUE(stream->Push(rng.Normal(3.0, 1.0)).ok());
    fired = stream->Drifted();
  }
  EXPECT_TRUE(fired);
}

TEST(StreamingKsTest, HeavyDuplicateStream) {
  // Only three distinct values; exercises the equal-key paths hard.
  Rng rng(13);
  std::vector<double> ref;
  for (int i = 0; i < 40; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 2)));
  }
  const size_t window = 15;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());
  std::deque<double> mirror;
  for (int step = 0; step < 200; ++step) {
    const double v = static_cast<double>(rng.Integer(0, 2));
    ASSERT_TRUE(stream->Push(v).ok());
    mirror.push_back(v);
    if (mirror.size() > window) mirror.pop_front();
    if (stream->WindowFull()) {
      const double expected =
          ks::Statistic(ref, {mirror.begin(), mirror.end()});
      ASSERT_NEAR(stream->CurrentOutcome()->statistic, expected, kTightTol);
      ExpectBitExact(*stream, ref, mirror, step);
    }
  }
}

// Eviction-heavy differential test: thousands of pushes through a full
// window, drawn from a tiny value alphabet so nearly every insert/evict
// hits an equal-key treap path, checked against a from-scratch
// ks::Statistic recompute at every single tick.
TEST(StreamingKsTest, EvictionHeavyDifferentialAgainstBatch) {
  Rng rng(2024);
  std::vector<double> ref;
  for (int i = 0; i < 120; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 6)));
  }
  const size_t window = 40;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());

  std::deque<double> mirror;
  for (int step = 0; step < 4000; ++step) {
    // Drifting mixture over a 7-value alphabet: long stretches of heavy
    // duplication, with the support sliding so both treap tails move.
    const int phase = step / 800;
    const double v =
        static_cast<double>(rng.Integer(phase, phase + 4 + (step % 3)));
    ASSERT_TRUE(stream->Push(v).ok());
    mirror.push_back(v);
    if (mirror.size() > window) mirror.pop_front();

    if (stream->WindowFull()) {
      auto outcome = stream->CurrentOutcome();
      ASSERT_TRUE(outcome.ok());
      const double expected =
          ks::Statistic(ref, {mirror.begin(), mirror.end()});
      ASSERT_NEAR(outcome->statistic, expected, kTightTol) << "step " << step;
      ExpectBitExact(*stream, ref, mirror, step);
    }
  }
}

TEST(StreamingKsTest, ThresholdMatchesBatchFormula) {
  auto stream = StreamingKs::Create({1, 2, 3, 4, 5}, 4, 0.1);
  ASSERT_TRUE(stream.ok());
  for (double v : {9.0, 9.0, 9.0, 9.0}) ASSERT_TRUE(stream->Push(v).ok());
  auto outcome = stream->CurrentOutcome();
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->threshold, *ks::Threshold(0.1, 5, 4));
  EXPECT_TRUE(outcome->reject);  // disjoint supports
  EXPECT_DOUBLE_EQ(outcome->statistic, 1.0);
}

// Heavy ties, exhaustively: every push sequence of length 7 over a
// five-value alphabet — three values that also occur (repeatedly) in the
// reference, two that do not — through a window of 3. Each repeated value
// is therefore evicted in every possible order relative to its copies and
// to the other keys, and every full window is checked bit for bit.
TEST(StreamingKsTest, TiesEvictedInEveryOrderAreBitExact) {
  const std::vector<double> ref{1, 1, 2, 2, 2, 3, 3, 1, 2};
  const std::vector<double> alphabet{0.5, 1, 2, 2.5, 3};
  const size_t window = 3;
  const size_t length = 7;
  size_t sequences = 1;
  for (size_t i = 0; i < length; ++i) sequences *= alphabet.size();
  for (size_t code = 0; code < sequences; ++code) {
    auto stream = StreamingKs::Create(ref, window, 0.05);
    ASSERT_TRUE(stream.ok());
    std::deque<double> mirror;
    size_t digits = code;
    for (size_t step = 0; step < length; ++step) {
      const double v = alphabet[digits % alphabet.size()];
      digits /= alphabet.size();
      ASSERT_TRUE(stream->Push(v).ok());
      mirror.push_back(v);
      if (mirror.size() > window) mirror.pop_front();
      if (!stream->WindowFull()) continue;
      ExpectBitExact(*stream, ref, mirror, static_cast<int>(code));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(StreamingKsTest, CreateOverSortedSharesTheReferenceAndMatchesCreate) {
  Rng rng(5150);
  std::vector<double> ref;
  for (int i = 0; i < 90; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 9)));
  }
  const auto sorted = SortedCopy(ref);
  auto owned = StreamingKs::Create(ref, 20, 0.05);
  auto shared_a = StreamingKs::CreateOverSorted(sorted, 20, 0.05);
  auto shared_b = StreamingKs::CreateOverSorted(sorted, 20, 0.05);
  ASSERT_TRUE(owned.ok() && shared_a.ok() && shared_b.ok());
  // Both detectors hold the one sample; neither copied it.
  EXPECT_EQ(sorted.use_count(), 3);
  EXPECT_EQ(shared_a->reference_size(), ref.size());

  for (int step = 0; step < 500; ++step) {
    const double v = static_cast<double>(rng.Integer(step / 100, 9));
    ASSERT_TRUE(owned->Push(v).ok());
    ASSERT_TRUE(shared_a->Push(v).ok());
    if (!owned->WindowFull()) continue;
    ASSERT_EQ(Bits(owned->CurrentOutcome()->statistic),
              Bits(shared_a->CurrentOutcome()->statistic))
        << "step " << step;
  }
}

TEST(StreamingKsTest, CreateOverSortedValidatesInO1) {
  EXPECT_FALSE(StreamingKs::CreateOverSorted(nullptr, 4, 0.05).ok());
  EXPECT_FALSE(
      StreamingKs::CreateOverSorted(SortedCopy({}), 4, 0.05).ok());
  EXPECT_FALSE(
      StreamingKs::CreateOverSorted(SortedCopy({1.0, INFINITY}), 4, 0.05)
          .ok());
  EXPECT_FALSE(StreamingKs::CreateOverSorted(SortedCopy({1.0}), 0, 0.05).ok());
  EXPECT_FALSE(StreamingKs::CreateOverSorted(SortedCopy({1.0}), 4, 0.0).ok());
  EXPECT_TRUE(StreamingKs::CreateOverSorted(SortedCopy({1.0}), 4, 0.05).ok());
}

// The state header StreamingKs::SerializeStateTo writes, with no window
// values after it.
std::string StateHeader(uint64_t n, uint64_t window_size, double alpha,
                        uint64_t window_count) {
  std::string bytes;
  bin::AppendU64Le(n, &bytes);
  bin::AppendU64Le(window_size, &bytes);
  bin::AppendDoubleLe(alpha, &bytes);
  bin::AppendU64Le(window_count, &bytes);
  return bytes;
}

TEST(StreamingKsTest, ScoreProductAboveTheBoundIsInvalidArgument) {
  const auto ref = SortedCopy({1.0, 2.0, 3.0});
  const uint64_t near_2_62 = (uint64_t{1} << 62) - 3;
  // 3 * (2^62 - 3) overflows int64 scores: every entry point refuses it
  // before allocating anything.
  const std::string bytes = StateHeader(3, near_2_62, 0.05, 0);
  bin::Reader reader(bytes);
  auto restored = StreamingKs::DeserializeState(ref, &reader);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("2^60"), std::string::npos)
      << restored.status().ToString();
  auto created = StreamingKs::Create({1.0, 2.0, 3.0}, near_2_62, 0.05);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  auto shared = StreamingKs::CreateOverSorted(ref, near_2_62, 0.05);
  ASSERT_FALSE(shared.ok());
  EXPECT_EQ(shared.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingKsTest, RestoreAllocatesOnlyForTheObservationsItHolds) {
  // n * m exactly at the bound: accepted. The snapshot holds two values of
  // a 2^58-slot window, so a restore sized by the capacity would abort;
  // this one holds two values and keeps growing as it fills.
  const auto ref = SortedCopy({1.0, 2.0, 3.0, 4.0});
  const uint64_t capacity = StreamingKs::kMaxScoreProduct / 4;
  std::string bytes = StateHeader(4, capacity, 0.05, 2);
  bin::AppendDoubleLe(2.5, &bytes);
  bin::AppendDoubleLe(0.5, &bytes);
  bin::Reader reader(bytes);
  auto restored = StreamingKs::DeserializeState(ref, &reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored->window_size(), capacity);
  EXPECT_EQ(restored->window_count(), 2u);
  EXPECT_FALSE(restored->WindowFull());
  for (double v : {3.5, 1.5, 1.0}) ASSERT_TRUE(restored->Push(v).ok());
  EXPECT_EQ(restored->WindowContents(),
            (std::vector<double>{2.5, 0.5, 3.5, 1.5, 1.0}));
  EXPECT_FALSE(restored->CurrentOutcome().ok());  // far from full
}

TEST(StreamingKsTest, RestoredDetectorTracksTheLiveOneBitForBit) {
  // The restored treap is built in one pass, not replayed, so its shape
  // differs; its scores must not. Snapshots mid-fill and on a full ring
  // over a tied alphabet with both signed zeros keep pushing beside the
  // live detector, which must agree with the integer oracle and with them.
  Rng rng(4242);
  std::vector<double> ref;
  for (int i = 0; i < 40; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(-2, 3)));
  }
  const auto sorted = SortedCopy(ref);
  const auto draw = [&rng] {
    const double v = static_cast<double>(rng.Integer(-2, 4));
    return v == 0.0 && rng.Integer(0, 1) == 0 ? -0.0 : v;
  };
  auto live = StreamingKs::CreateOverSorted(sorted, 12, 0.05);
  ASSERT_TRUE(live.ok());
  int pushed = 0;
  for (int snapshot_at : {0, 5, 11, 12, 30}) {
    for (; pushed < snapshot_at; ++pushed) {
      ASSERT_TRUE(live->Push(draw()).ok());
    }
    std::string bytes;
    live->SerializeStateTo(&bytes);
    bin::Reader reader(bytes);
    auto restored = StreamingKs::DeserializeState(sorted, &reader);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    // A twin fed the same window by Push: the replayed build.
    const std::vector<double> held = live->WindowContents();
    auto twin = StreamingKs::CreateOverSorted(sorted, 12, 0.05);
    ASSERT_TRUE(twin.ok());
    for (double v : held) ASSERT_TRUE(twin->Push(v).ok());
    std::deque<double> mirror(held.begin(), held.end());
    for (int step = 0; step < 40; ++step) {
      if (restored->WindowFull()) {
        ExpectBitExact(*restored, *sorted, mirror, step);
        ASSERT_EQ(Bits(restored->CurrentOutcome()->statistic),
                  Bits(twin->CurrentOutcome()->statistic))
            << "snapshot at " << snapshot_at << ", step " << step;
      }
      const double v = draw();
      ASSERT_TRUE(twin->Push(v).ok());
      ASSERT_TRUE(restored->Push(v).ok());
      mirror.push_back(v);
      if (mirror.size() > 12) mirror.pop_front();
      ASSERT_EQ(restored->WindowContents(), twin->WindowContents());
    }
  }
}

TEST(StreamingKsTest, RestoreRejectsANonFiniteWindowValue) {
  // Push refuses non-finite observations; a restore must refuse them too,
  // before any score is computed from one.
  const auto ref = SortedCopy({1.0, 2.0, 3.0, 4.0});
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (size_t at = 0; at < 3; ++at) {
      std::string bytes = StateHeader(4, 4, 0.05, 3);
      for (size_t i = 0; i < 3; ++i) {
        bin::AppendDoubleLe(i == at ? bad : 1.5 + static_cast<double>(i),
                            &bytes);
      }
      bin::Reader reader(bytes);
      auto restored = StreamingKs::DeserializeState(ref, &reader);
      ASSERT_FALSE(restored.ok()) << bad << " at " << at;
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(StreamingKsTest, SerializedStateRestoresBitIdentically) {
  Rng rng(31337);
  std::vector<double> ref;
  for (int i = 0; i < 70; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 5)));
  }
  const auto sorted = SortedCopy(ref);
  auto live = StreamingKs::CreateOverSorted(sorted, 16, 0.05);
  ASSERT_TRUE(live.ok());
  // One snapshot mid-fill and one per lap of the full ring.
  for (int step = 0; step < 60; ++step) {
    ASSERT_TRUE(live->Push(static_cast<double>(rng.Integer(0, 7))).ok());
    if (step % 13 != 7) continue;
    std::string bytes;
    live->SerializeStateTo(&bytes);
    bin::Reader reader(bytes);
    auto restored = StreamingKs::DeserializeState(sorted, &reader);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored->WindowContents(), live->WindowContents());
    std::string again;
    restored->SerializeStateTo(&again);
    EXPECT_EQ(again, bytes) << "step " << step;
    if (live->WindowFull()) {
      EXPECT_EQ(Bits(restored->CurrentOutcome()->statistic),
                Bits(live->CurrentOutcome()->statistic));
    }
    // A restored ring that is not yet full keeps filling.
    for (double v : {0.0, 6.0, 3.0}) {
      ASSERT_TRUE(restored->Push(v).ok());
    }
    EXPECT_EQ(restored->window_count(),
              std::min<size_t>(live->window_count() + 3, 16));
  }
  // Restoring over a reference of another size is refused.
  std::string bytes;
  live->SerializeStateTo(&bytes);
  bin::Reader reader(bytes);
  EXPECT_FALSE(
      StreamingKs::DeserializeState(SortedCopy({1.0, 2.0}), &reader).ok());
}

}  // namespace
}  // namespace moche
