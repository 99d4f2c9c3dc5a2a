// Differential oracle: StreamingKs under an eviction-heavy push schedule
// against two from-scratch recomputes on a mirrored window.
//
// The incremental detector maintains the integer scores of
// s(x) = m*C_R(x) - n*C_W(x) in a window-only treap, with reference ranks
// read from the shared sorted reference. Its statistic must equal, bit
// for bit, max |s| over every sample point recomputed by brute force in
// integers and divided as the detector divides — and a twin detector
// built by CreateOverSorted over the same sorted reference must agree bit
// for bit too. Against ks::Run's double-arithmetic ECDF walk (the
// mathematically identical batch path) the statistic is compared within
// the tree's tight tolerance (1e-12), the threshold bit-exactly (same
// formula, same operands), the window contents exactly, and the reject
// decisions may only differ when the batch statistic sits within tolerance
// of the threshold.
//
// A byte-chosen step also checkpoints the detector (SerializeStateTo ->
// DeserializeState), mid-fill or on a full ring. The restored detector,
// whose treap is built in one pass rather than replayed, is then fed every
// later push and must match the live one bit for bit at every step.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "ks/streaming.h"
#include "provider.h"
#include "util/binary_io.h"

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr double kTightTol = 1e-12;

// max |m*C_R(x) - n*C_W(x)| over every reference and window value x,
// counted by brute force, over (n*m) as a double — the detector's exact
// statistic.
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

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  const size_t n = in.SizeInRange(1, 48);
  const size_t window = in.SizeInRange(1, 24);
  const double alpha = in.Alpha();
  const int alphabet = static_cast<int>(in.SizeInRange(1, 12));

  std::vector<double> reference;
  if (in.Bool()) {
    in.TiedArray(n, alphabet, &reference);
  } else {
    in.FiniteArray(n, &reference);
  }

  auto stream = moche::StreamingKs::Create(reference, window, alpha);
  MOCHE_FUZZ_CHECK(stream.ok(), "Create rejected a valid config: %s",
                   stream.status().message().c_str());
  auto sorted = std::make_shared<std::vector<double>>(reference);
  // moche-lint: allow(sort-doubles): Create above validated the sample finite
  std::sort(sorted->begin(), sorted->end());
  auto twin = moche::StreamingKs::CreateOverSorted(sorted, window, alpha);
  MOCHE_FUZZ_CHECK(twin.ok(), "CreateOverSorted rejected a valid config: %s",
                   twin.status().message().c_str());

  std::optional<moche::StreamingKs> restored;  // from the last checkpoint
  std::deque<double> mirror;
  const size_t pushes = in.SizeInRange(0, 160);
  for (size_t step = 0; step < pushes; ++step) {
    // A non-finite push must fail atomically: state unchanged.
    if (in.Byte() % 16 == 0) {
      const auto before = stream->WindowContents();
      const double bad = in.Bool() ? std::nan("") : HUGE_VAL;
      MOCHE_FUZZ_CHECK(!stream->Push(bad).ok(),
                       "Push accepted a non-finite observation");
      MOCHE_FUZZ_CHECK(stream->WindowContents() == before,
                       "rejected push mutated the window");
    }

    if (in.Byte() % 8 == 0) {
      std::string bytes;
      stream->SerializeStateTo(&bytes);
      moche::bin::Reader reader(bytes);
      auto back = moche::StreamingKs::DeserializeState(sorted, &reader);
      MOCHE_FUZZ_CHECK(back.ok() && reader.AtEnd(),
                       "step %zu: restore of a live checkpoint failed", step);
      std::string again;
      back->SerializeStateTo(&again);
      MOCHE_FUZZ_CHECK(again == bytes,
                       "step %zu: restored state re-serializes differently",
                       step);
      if (stream->WindowFull()) {
        auto live_outcome = stream->CurrentOutcome();
        auto restored_outcome = back->CurrentOutcome();
        MOCHE_FUZZ_CHECK(live_outcome.ok() && restored_outcome.ok() &&
                             SameBits(restored_outcome->statistic,
                                      live_outcome->statistic),
                         "step %zu: freshly restored detector diverged",
                         step);
      }
      restored.emplace(std::move(*back));
    }

    // Values from the same alphabet as the reference so evictions hit the
    // equal-key treap paths constantly; an alphabet zero may come signed,
    // so -0.0 and +0.0 share one treap key.
    double v = in.Bool() ? static_cast<double>(in.IntInRange(0, alphabet))
                         : in.FiniteValue();
    if (v == 0.0 && in.Bool()) v = -v;
    MOCHE_FUZZ_CHECK(stream->Push(v).ok(), "Push rejected a finite value");
    MOCHE_FUZZ_CHECK(twin->Push(v).ok(), "twin Push rejected a finite value");
    if (restored.has_value()) {
      MOCHE_FUZZ_CHECK(restored->Push(v).ok(),
                       "restored Push rejected a finite value");
      MOCHE_FUZZ_CHECK(restored->WindowContents() == stream->WindowContents(),
                       "restored window diverged at step %zu", step);
    }
    mirror.push_back(v);
    if (mirror.size() > window) mirror.pop_front();

    MOCHE_FUZZ_CHECK(stream->WindowFull() == (mirror.size() == window),
                     "WindowFull disagrees with the mirror at step %zu",
                     step);
    const std::vector<double> snapshot = stream->WindowContents();
    MOCHE_FUZZ_CHECK(
        snapshot == std::vector<double>(mirror.begin(), mirror.end()),
        "WindowContents diverged from arrival order at step %zu", step);

    if (!stream->WindowFull()) continue;

    auto incremental = stream->CurrentOutcome();
    MOCHE_FUZZ_CHECK(incremental.ok(), "CurrentOutcome failed: %s",
                     incremental.status().message().c_str());
    auto batch = moche::ks::Run(
        reference, std::vector<double>(mirror.begin(), mirror.end()), alpha);
    MOCHE_FUZZ_CHECK(batch.ok(), "batch recompute failed: %s",
                     batch.status().message().c_str());

    const double exact = IntegerOracleStatistic(reference, mirror);
    MOCHE_FUZZ_CHECK(SameBits(incremental->statistic, exact),
                     "step %zu: incremental D %.17g vs integer oracle %.17g",
                     step, incremental->statistic, exact);
    auto twin_outcome = twin->CurrentOutcome();
    MOCHE_FUZZ_CHECK(twin_outcome.ok() &&
                         SameBits(twin_outcome->statistic, exact),
                     "step %zu: CreateOverSorted twin diverged", step);
    if (restored.has_value()) {
      auto restored_outcome = restored->CurrentOutcome();
      MOCHE_FUZZ_CHECK(
          restored_outcome.ok() &&
              SameBits(restored_outcome->statistic, exact) &&
              SameBits(restored_outcome->threshold, incremental->threshold) &&
              restored_outcome->reject == incremental->reject,
          "step %zu: restored detector diverged from the live one", step);
    }
    MOCHE_FUZZ_CHECK(
        std::fabs(incremental->statistic - batch->statistic) <= kTightTol,
        "step %zu: incremental D %.17g vs batch D %.17g", step,
        incremental->statistic, batch->statistic);
    MOCHE_FUZZ_CHECK(SameBits(incremental->threshold, batch->threshold),
                     "step %zu: thresholds differ: %.17g vs %.17g", step,
                     incremental->threshold, batch->threshold);
    if (incremental->reject != batch->reject) {
      // Only excusable exactly at the decision boundary, where the two
      // computations' last-ulp difference can fall on opposite sides.
      MOCHE_FUZZ_CHECK(
          std::fabs(batch->statistic - batch->threshold) <= 1e-9,
          "step %zu: reject disagreement away from the boundary "
          "(D=%.17g p=%.17g)",
          step, batch->statistic, batch->threshold);
    }
    MOCHE_FUZZ_CHECK(incremental->n == n && incremental->m == window,
                     "outcome sizes mismatch at step %zu", step);
    MOCHE_FUZZ_CHECK(stream->Drifted() == incremental->reject,
                     "Drifted() disagrees with CurrentOutcome at step %zu",
                     step);
  }

  // WindowContentsInto must agree with WindowContents through a recycled
  // buffer.
  std::vector<double> recycled(7, -1.0);
  stream->WindowContentsInto(&recycled);
  MOCHE_FUZZ_CHECK(recycled == stream->WindowContents(),
                   "WindowContentsInto diverged from WindowContents");
  return 0;
}
