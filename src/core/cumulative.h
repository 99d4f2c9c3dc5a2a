// Cumulative vectors (paper Definition 3), over a window-compressed base.
//
// Definition 3's base vector holds the unique values of R u T in ascending
// order; the cumulative vector of a multiset S <= T is the (q+1)-vector C_S
// with C_S[0] = 0 and C_S[i] = |{x in S : x <= x_i}|. A CumulativeFrame
// precomputes C_R and C_T once per instance; every MOCHE phase works on top
// of it.
//
// The frame keeps only the base values that can bind (ks/rank_walk.h): each
// distinct test value and the last reference value of each reference-only
// run, so q <= 2 * distinct(T) + 1 whatever n is. Dropping the rest changes
// no answer. Along a run of reference-only values C_T and every C_S
// (S <= T) stay constant while C_R rises, so in Equation 4 Gamma(i,h)
// falls along the run:
//   * u_i is smallest at the run's last value, which is kept;
//   * l_i is constant, because the prefix maximum M(i,h) is already set at
//     the point before the run (a leading run has no such point, but its
//     Gamma is negative, where l_i's 0 term dominates);
//   * |C_R/n - C_S/|S|| peaks at one end of the run.
// So Theorems 1-3 and both KS outcomes of an explanation read the same on
// this frame as on the full merge; only the work counters (where SizeScan's
// probes and Theorem 3's recursion stop) can differ. Building the frame
// from sorted samples costs O(m log(n/m)) for m <= n.
//
// Indexing convention: this class mirrors the paper's 1-based indices —
// CR(i)/CT(i) accept i in [0, q] with CR(0) = CT(0) = 0, and base value x_i
// is Value(i) for i in [1, q].
//
// Ownership & thread-safety: a CumulativeFrame owns its vectors and is
// immutable after Build, so concurrent readers need no synchronization;
// builders hand ownership to the caller by value.

#ifndef MOCHE_CORE_CUMULATIVE_H_
#define MOCHE_CORE_CUMULATIVE_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace moche {

struct CumulativeFrameTestPeer;

class CumulativeFrame {
 public:
  /// An empty frame (q = n = m = 0), the state a reusable frame starts in;
  /// fill it with BuildFromSortedUncheckedInto. Every accessor requires a
  /// built frame.
  CumulativeFrame() = default;

  /// Builds the compressed base vector and the cumulative vectors of R and
  /// T. Fails when either multiset is empty or holds a non-finite value.
  static Result<CumulativeFrame> Build(const std::vector<double>& r,
                                       const std::vector<double>& t);

  /// As Build, for inputs already sorted ascending, with the preconditions
  /// (non-empty, finite, sorted) checked by MOCHE_DCHECK only: rebuilds
  /// `out` in place, reusing its capacity, so a frame cycled through
  /// same-sized instances stops allocating once warm. The ExplainWorkspace
  /// hot path; its callers validate first.
  static void BuildFromSortedUncheckedInto(
      const std::vector<double>& r_sorted,
      const std::vector<double>& t_sorted, CumulativeFrame* out);

  /// Heap bytes retained by the frame's arrays (capacity, not size) — the
  /// workspace-footprint accounting the stream monitor reports.
  size_t FootprintBytes() const {
    return values_.capacity() * sizeof(double) +
           (cum_r_.capacity() + cum_t_.capacity()) * sizeof(int64_t);
  }

  size_t q() const { return values_.size(); }

  /// 2m + 1: the largest q of a frame built for any window of this size.
  /// Buffers indexed by base coordinate reserve QBound() + 1 entries, so a
  /// warm workspace does not reallocate when a later same-sized window
  /// yields more points.
  size_t QBound() const { return 2 * m_ + 1; }
  size_t n() const { return n_; }
  size_t m() const { return m_; }

  /// x_i for i in [1, q].
  double Value(size_t i) const { return values_[i - 1]; }

  /// C_R[i] for i in [0, q].
  int64_t CR(size_t i) const { return cum_r_[i]; }

  /// C_T[i] for i in [0, q].
  int64_t CT(size_t i) const { return cum_t_[i]; }

  /// Multiplicity of x_i in T: C_T[i] - C_T[i-1], i in [1, q].
  int64_t CountT(size_t i) const { return cum_t_[i] - cum_t_[i - 1]; }

  /// 1-based index of `value` in the base vector, or NotFound. Every test
  /// value is in the base vector; a reference value the compression dropped
  /// (one inside a reference-only run) is NotFound.
  Result<size_t> IndexOfValue(double value) const;

  /// The cumulative vector C_S (length q+1) of a multiset S (values must all
  /// occur in the base vector; multiplicities are NOT checked against T).
  Result<std::vector<int64_t>> CumulativeOf(
      const std::vector<double>& subset) const;

 private:
  // Lets a test oracle fill a frame with the full, uncompressed merge of
  // R and T, to check that every decision reads the same on both.
  friend struct CumulativeFrameTestPeer;

  size_t n_ = 0;
  size_t m_ = 0;
  std::vector<double> values_;   // x_1..x_q, ascending
  std::vector<int64_t> cum_r_;   // length q+1, cum_r_[0] = 0
  std::vector<int64_t> cum_t_;   // length q+1, cum_t_[0] = 0
};

}  // namespace moche

#endif  // MOCHE_CORE_CUMULATIVE_H_
