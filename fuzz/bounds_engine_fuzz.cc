// Differential oracle: BoundsEngine Theorem 1/2 and SizeScan against
// brute-force subset enumeration on small instances.
//
// Soundness is the sharp edge: when the engine refutes a size h (Theorem 1
// says no qualified h-subset exists), exhaustive enumeration must agree —
// a refuted size with a qualifying explanation would make MOCHE return
// non-minimal (wrong) explanations while every test stays green. The
// target also checks completeness (engine says exists => brute force finds
// one), Theorem 2's necessity (qualified h-subset exists => the Equation 5
// condition holds), SizeScan's bit-identity to the stateless check under
// arbitrary probe orders, and that ConstructQualifiedVector's witness is a
// genuine sub-multiset of T of the requested size.
//
// The engine's frame is window-compressed (core/cumulative.h): reference
// values inside a reference-only run are dropped. A textbook merge frame
// over every value of R u T, built here and nowhere in the library, is the
// oracle for that compression: for every h in [0, m) Theorem 1 and
// Theorem 2 must decide alike on both frames, and so must the size search
// (k, k_hat) and the built explanation I. A third input regime draws up
// to 64 reference values against at most 9 test values over one range, so
// long leading, interior and trailing reference-only runs are the norm.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/bounds.h"
#include "core/bounds_witness.h"
#include "core/brute_force.h"
#include "core/builder.h"
#include "core/cumulative.h"
#include "core/instance.h"
#include "core/size_search.h"
#include "fuzz_target.h"
#include "provider.h"

namespace moche {

struct CumulativeFrameTestPeer {
  // The full merge of Definition 3: one base value per distinct value of
  // R u T, reported by its first copy (R's when both samples hold it).
  static CumulativeFrame MergeFrame(const std::vector<double>& r,
                                    const std::vector<double>& t) {
    CumulativeFrame frame;
    frame.n_ = r.size();
    frame.m_ = t.size();
    frame.cum_r_.push_back(0);
    frame.cum_t_.push_back(0);
    size_t i = 0;
    size_t j = 0;
    while (i < r.size() || j < t.size()) {
      const double x =
          j >= t.size() || (i < r.size() && r[i] <= t[j]) ? r[i] : t[j];
      while (i < r.size() && r[i] == x) ++i;
      while (j < t.size() && t[j] == x) ++j;
      frame.values_.push_back(x);
      frame.cum_r_.push_back(static_cast<int64_t>(i));
      frame.cum_t_.push_back(static_cast<int64_t>(j));
    }
    return frame;
  }
};

}  // namespace moche

namespace {

void CheckSameSize(const moche::Result<moche::SizeSearchResult>& a,
                   const moche::Result<moche::SizeSearchResult>& b,
                   bool use_lower_bound) {
  MOCHE_FUZZ_CHECK(a.ok() == b.ok(),
                   "size search (lower bound %d) %s on the compressed frame "
                   "but %s on the merge frame",
                   use_lower_bound, a.ok() ? "succeeds" : "fails",
                   b.ok() ? "succeeds" : "fails");
  if (!a.ok()) return;
  MOCHE_FUZZ_CHECK(a->k == b->k && a->k_hat == b->k_hat,
                   "size search (lower bound %d): compressed k=%zu "
                   "k_hat=%zu, merge k=%zu k_hat=%zu",
                   use_lower_bound, a->k, a->k_hat, b->k, b->k_hat);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  // Small m keeps the 2^m enumeration cheap; a tight shared alphabet makes
  // ties (the hard case for the ceil/floor tolerance algebra) the norm.
  moche::KsInstance inst;
  size_t n = in.SizeInRange(1, 14);
  const size_t m = in.SizeInRange(2, 9);
  const int alphabet = static_cast<int>(in.SizeInRange(1, 6));
  const uint8_t regime = in.Byte();
  if (regime & 1) {
    in.TiedArray(n, alphabet, &inst.reference);
    in.TiedArray(m, alphabet, &inst.test);
  } else if (regime & 2) {
    // Long runs: up to 64 R values on the integers of [0, 4n] against
    // T on the half-integers of [-2, 4n + 2], so T values fall between,
    // below, above and on R's.
    n += in.SizeInRange(0, 50);
    const int64_t top = 4 * static_cast<int64_t>(n);
    inst.reference.clear();
    inst.test.clear();
    for (size_t i = 0; i < n; ++i) {
      inst.reference.push_back(static_cast<double>(in.IntInRange(0, top)));
    }
    for (size_t j = 0; j < m; ++j) {
      inst.test.push_back(0.5 *
                          static_cast<double>(in.IntInRange(-4, 2 * top + 4)));
    }
  } else {
    in.FiniteArray(n, &inst.reference);
    in.FiniteArray(m, &inst.test);
  }
  inst.alpha = in.Alpha();

  auto frame = moche::CumulativeFrame::Build(inst.reference, inst.test);
  MOCHE_FUZZ_CHECK(frame.ok(), "CumulativeFrame::Build failed: %s",
                   frame.status().message().c_str());
  moche::BoundsEngine engine(*frame, inst.alpha);
  moche::BruteForceExplainer brute;

  std::vector<bool> exists(m, false);
  for (size_t h = 1; h < m; ++h) {
    const bool fast = engine.ExistsQualified(h);
    auto slow = brute.ExistsQualifiedSubset(inst, h);
    MOCHE_FUZZ_CHECK(slow.ok(), "brute force failed at h=%zu: %s", h,
                     slow.status().message().c_str());
    MOCHE_FUZZ_CHECK(
        fast == *slow,
        "Theorem 1 %s at h=%zu but enumeration says %s (n=%zu m=%zu "
        "alpha=%.17g)",
        fast ? "accepts" : "refutes", h, *slow ? "exists" : "none", n, m,
        inst.alpha);
    exists[h] = fast;

    // Theorem 2 is a necessary condition: existence implies it holds.
    if (fast) {
      MOCHE_FUZZ_CHECK(engine.NecessaryCondition(h),
                       "Theorem 2 fails at h=%zu where a qualified subset "
                       "exists",
                       h);
    }

    // The constructed witness must be a size-h sub-multiset of T.
    auto witness = moche::ConstructQualifiedVector(engine, h);
    MOCHE_FUZZ_CHECK(witness.ok() == fast,
                     "ConstructQualifiedVector %s at h=%zu but Theorem 1 "
                     "says %d",
                     witness.ok() ? "succeeded" : "failed", h, fast);
    if (witness.ok()) {
      const std::vector<int64_t>& cum = *witness;
      MOCHE_FUZZ_CHECK(cum.size() == frame->q() + 1 && cum[0] == 0,
                       "witness vector has wrong shape at h=%zu", h);
      MOCHE_FUZZ_CHECK(cum.back() == static_cast<int64_t>(h),
                       "witness vector has size %lld, wanted h=%zu",
                       static_cast<long long>(cum.back()), h);
      for (size_t i = 1; i < cum.size(); ++i) {
        const int64_t count = cum[i] - cum[i - 1];
        MOCHE_FUZZ_CHECK(count >= 0 && count <= frame->CountT(i),
                         "witness count %lld at i=%zu exceeds T's "
                         "multiplicity %lld",
                         static_cast<long long>(count), i,
                         static_cast<long long>(frame->CountT(i)));
      }
    }
  }

  // Theorem 2 is monotone in h: once it holds it must keep holding.
  bool held = false;
  for (size_t h = 1; h < m; ++h) {
    const bool now = engine.NecessaryCondition(h);
    MOCHE_FUZZ_CHECK(!held || now,
                     "Theorem 2 monotonicity violated at h=%zu", h);
    held = held || now;
  }

  // SizeScan must be bit-identical to the stateless check in ANY call
  // order, including revisits (the walk carries failure state across
  // sizes; a byte-derived probe order stresses the carry logic).
  moche::SizeScan scan(engine);
  const size_t probes = in.SizeInRange(1, 24);
  for (size_t p = 0; p < probes; ++p) {
    const size_t h = in.SizeInRange(1, m - 1);
    MOCHE_FUZZ_CHECK(scan.ExistsQualified(h) == exists[h],
                     "SizeScan diverges from ExistsQualified at h=%zu "
                     "(probe %zu)",
                     h, p);
  }
  // Every probe either short-circuits via the O(1) refutation or falls back
  // to a full scan; the counters must account for all of them.
  MOCHE_FUZZ_CHECK(scan.probe_refutations() + scan.full_scans() == probes,
                   "SizeScan counters %zu + %zu do not cover %zu probes",
                   scan.probe_refutations(), scan.full_scans(), probes);

  // The compressed frame against the textbook merge frame.
  std::vector<double> r_sorted = inst.reference;
  std::vector<double> t_sorted = inst.test;
  std::sort(r_sorted.begin(), r_sorted.end());
  std::sort(t_sorted.begin(), t_sorted.end());
  const moche::CumulativeFrame merge =
      moche::CumulativeFrameTestPeer::MergeFrame(r_sorted, t_sorted);
  const size_t distinct_t = static_cast<size_t>(
      std::unique(t_sorted.begin(), t_sorted.end()) - t_sorted.begin());
  MOCHE_FUZZ_CHECK(frame->q() <= 2 * distinct_t + 1 &&
                       frame->q() <= merge.q(),
                   "compressed frame has q=%zu (merge q=%zu, %zu distinct "
                   "test values)",
                   frame->q(), merge.q(), distinct_t);
  MOCHE_FUZZ_CHECK(frame->CR(frame->q()) == static_cast<int64_t>(n) &&
                       frame->CT(frame->q()) == static_cast<int64_t>(m),
                   "compressed frame does not end at (n, m)");
  // Every compressed point is a merge point: same counts, same value bits.
  size_t at = 1;
  for (size_t i = 1; i <= frame->q(); ++i) {
    while (at < merge.q() && merge.Value(at) < frame->Value(i)) ++at;
    const double want = merge.Value(at);
    const double got = frame->Value(i);
    MOCHE_FUZZ_CHECK(std::memcmp(&want, &got, sizeof(double)) == 0 &&
                         merge.CR(at) == frame->CR(i) &&
                         merge.CT(at) == frame->CT(i),
                     "compressed point %zu (%.17g, C_R %lld, C_T %lld) is "
                     "not the merge point (%.17g, C_R %lld, C_T %lld)",
                     i, got, static_cast<long long>(frame->CR(i)),
                     static_cast<long long>(frame->CT(i)), want,
                     static_cast<long long>(merge.CR(at)),
                     static_cast<long long>(merge.CT(at)));
  }
  moche::BoundsEngine merge_engine(merge, inst.alpha);
  for (size_t h = 0; h < m; ++h) {
    MOCHE_FUZZ_CHECK(
        engine.ExistsQualified(h) == merge_engine.ExistsQualified(h),
        "Theorem 1 at h=%zu differs between the compressed frame (q=%zu) "
        "and the merge frame (q=%zu)",
        h, frame->q(), merge.q());
    MOCHE_FUZZ_CHECK(
        engine.NecessaryCondition(h) == merge_engine.NecessaryCondition(h),
        "Theorem 2 at h=%zu differs between the compressed and merge "
        "frames",
        h);
  }
  const auto found = moche::SizeSearcher(engine).FindSize();
  CheckSameSize(found, moche::SizeSearcher(merge_engine).FindSize(),
                /*use_lower_bound=*/true);
  CheckSameSize(moche::SizeSearcher(engine).FindSize(false),
                moche::SizeSearcher(merge_engine).FindSize(false),
                /*use_lower_bound=*/false);
  if (found.ok()) {
    // A byte-derived preference order (Fisher-Yates over the identity).
    moche::PreferenceList pref = moche::IdentityPreference(m);
    for (size_t i = m - 1; i > 0; --i) {
      std::swap(pref[i], pref[in.SizeInRange(0, i)]);
    }
    for (bool incremental : {true, false}) {
      auto a = moche::BuildMostComprehensible(engine, found->k, inst.test,
                                              pref, incremental);
      auto b = moche::BuildMostComprehensible(merge_engine, found->k,
                                              inst.test, pref, incremental);
      MOCHE_FUZZ_CHECK(a.ok() && b.ok(),
                       "building I of size k=%zu failed (compressed %d, "
                       "merge %d)",
                       found->k, a.ok(), b.ok());
      MOCHE_FUZZ_CHECK(a->indices == b->indices,
                       "the built explanation (incremental %d, k=%zu) "
                       "differs between the compressed and merge frames",
                       incremental, found->k);
    }
  }
  return 0;
}
