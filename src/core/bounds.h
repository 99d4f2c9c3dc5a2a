// The bounds engine: Lemma 1, Equation 4, Theorem 1 and Theorem 2.
//
// For a subset size h, Omega(h) = c_alpha * sqrt(m-h + (m-h)^2/n) and
// Gamma(i,h) = C_T[i] - ((m-h)/n) * C_R[i] define per-coordinate lower and
// upper bounds on any qualified h-cumulative vector (Equation 4):
//   l_i^h = max(ceil(M(i,h) - Omega(h)), h - m + C_T[i], 0)
//   u_i^h = min(floor(Gamma(i,h) + Omega(h)), C_T[i], h)
// with M(i,h) = max_{j<=i} Gamma(j,h). Theorem 1: a qualified h-subset exists
// iff l_i^h <= u_i^h for every i. Theorem 2 relaxes this to a condition
// monotone in h, enabling the binary-searched lower bound of Section 4.4.
//
// Hot-path layout: the constructor flattens the cumulative frame into
// structure-of-arrays coefficient vectors (C_T and C_R pre-converted to
// double), so each Theorem 1/2 check streams contiguous double arrays with
// the (m-h)/n division hoisted out of the loop. A scan evaluates only the
// real-valued fast filter; every coordinate the filter cannot certify
// takes the exact CeilTol/FloorTol integer path, so decisions are
// identical to computing the bounds outright (the corpus-dump gate pins
// this). SizeScan carries failure state across adjacent
// candidate sizes so a size walk usually refutes a size in O(1) instead of
// O(q); decisions are provably identical to the stateless checks (see the
// class comment). q is the frame's window-compressed base size, at most
// 2m + 1 whatever n is (core/cumulative.h), so a full check is O(m).
//
// Ownership & thread-safety: a BoundsEngine borrows its CumulativeFrame
// (the frame must outlive it) and is immutable after construction, so one
// engine may serve concurrent readers. SizeScan instances are mutable
// per-caller scratch — share the engine, not the scan.

#ifndef MOCHE_CORE_BOUNDS_H_
#define MOCHE_CORE_BOUNDS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/cumulative.h"

namespace moche {

/// Floating-point guard for the ceilings/floors of Lemma 1: values within a
/// tiny tolerance of an integer round to that integer, so that boundary-exact
/// instances agree with the direct KS comparison (see docs/ARCHITECTURE.md).
int64_t CeilTol(double x);
int64_t FloorTol(double x);

class BoundsEngine {
 public:
  /// An unbound engine: every query requires a Reset (or the binding
  /// constructor) first. Exists so a reusable workspace can carry one
  /// engine — and its coefficient array's capacity — across many instances.
  BoundsEngine() = default;

  /// The frame must outlive the engine. alpha must satisfy
  /// ks::ValidateAlpha (a precondition — Moche validates before building an
  /// engine; checked by MOCHE_DCHECK in debug builds).
  BoundsEngine(const CumulativeFrame& frame, double alpha);

  /// Rebinds the engine to a (frame, alpha) pair, rebuilding the flattened
  /// coefficient array in place: a warm engine recycled across same-sized
  /// instances allocates nothing. Same preconditions as the constructor.
  void Reset(const CumulativeFrame& frame, double alpha);

  /// Omega(h) = c_alpha * sqrt(m-h + (m-h)^2/n), h in [0, m-1].
  double Omega(size_t h) const;

  /// Gamma(i,h) = C_T[i] - ((m-h)/n) * C_R[i], i in [1, q].
  double Gamma(size_t i, size_t h) const;

  /// The closed-form bounds of Equation 4 for subset size h, written into
  /// caller-owned vectors (assign-style, so reused vectors keep their
  /// capacity). `lower` and `upper` end up with length q+1; entry 0 is the
  /// constant C[0] = 0 (l[0] = u[0] = 0).
  void ComputeBoundsInto(size_t h, std::vector<int64_t>* lower,
                         std::vector<int64_t>* upper) const;

  /// Theorem 1: true iff a qualified h-cumulative vector (equivalently a
  /// qualified h-subset) exists. O(q), q <= 2m + 1, with early exit.
  bool ExistsQualified(size_t h) const;

  /// On a false ExistsQualifiedWithFailure result: the first coordinate
  /// whose bounds crossed and the prefix-argmax of Gamma there, both
  /// 1-based. SizeScan re-tests these coordinates first at the next size.
  struct ScanFailure {
    size_t fail = 0;    ///< first i with l_i > u_i
    size_t argmax = 0;  ///< argmax_{j<=fail} Gamma(j, h)
  };

  /// As ExistsQualified; on failure additionally reports where (when
  /// `failure` is non-null).
  bool ExistsQualifiedWithFailure(size_t h, ScanFailure* failure) const;

  /// Theorem 2's necessary condition (Equation 5); monotone in h.
  bool NecessaryCondition(size_t h) const;

  const CumulativeFrame& frame() const { return *frame_; }
  double alpha() const { return alpha_; }
  double critical_value() const { return c_alpha_; }

  /// C_R[i] and C_T[i] for i in [0, q], as doubles: the flattened
  /// coefficient arrays. Moche sweeps these for its KS decisions, so one
  /// explanation walks R and T only once.
  const double* cum_r_data() const { return cr_d_.data(); }
  const double* cum_t_data() const { return ct_d_.data(); }

  /// Heap bytes retained by the coefficient arrays (capacity-based; see
  /// CumulativeFrame::FootprintBytes).
  size_t FootprintBytes() const {
    return (ct_d_.capacity() + cr_d_.capacity()) * sizeof(double);
  }

 private:
  friend class SizeScan;

  // Structure-of-arrays coefficient view of the frame, one entry per
  // base-vector coordinate (index 0 is the constant C[0] = 0 entry). The
  // two double arrays feed the fast-filter scans; the exact integer path
  // reads its C_T operands from the frame itself. The
  // int64 -> double conversions happen once, in Reset (all exact — counts
  // are far below 2^53).
  //
  // frame_ is a pointer, not a reference, so Reset can rebind a reused
  // engine. Null only in the unbound default-constructed state.
  const CumulativeFrame* frame_ = nullptr;
  double alpha_ = 0.0;
  double c_alpha_ = 0.0;
  std::vector<double> ct_d_;  // C_T[i]
  std::vector<double> cr_d_;  // C_R[i]
};

/// A Theorem 1 size walk that maintains bounds state incrementally across
/// adjacent candidate removal-set sizes instead of re-evaluating the full
/// cumulative frame per candidate.
///
/// When the check at size h fails, the engine reports the first failing
/// coordinate i* and the prefix-argmax j* of Gamma there. At the next size,
/// Gamma(j*, h') lower-bounds the prefix maximum M(i*, h') (j* <= i*), so
///   CeilTol(Gamma(j*,h') - Omega(h')) > u_{i*}^{h'}
/// already proves l_{i*} > u_{i*} — an O(1) refutation. The bounds-conflict
/// region moves slowly with h, so consecutive sizes usually fail at the
/// same coordinates and the walk degenerates to O(1) per size; whenever the
/// O(1) probe cannot refute, the full O(q) check runs and re-seeds the
/// state. Every answer is bit-identical to BoundsEngine::ExistsQualified —
/// the probe only short-circuits sizes whose failure it proves outright.
///
/// Mutable per-caller scratch: not thread-safe; share the engine instead.
class SizeScan {
 public:
  explicit SizeScan(const BoundsEngine& engine) : engine_(engine) {}

  /// Bit-identical to engine.ExistsQualified(h), in any call order.
  bool ExistsQualified(size_t h);

  /// Sizes refuted by the O(1) probe vs full O(q) scans, for tests and
  /// the efficiency counters.
  size_t probe_refutations() const { return probe_refutations_; }
  size_t full_scans() const { return full_scans_; }

 private:
  const BoundsEngine& engine_;
  BoundsEngine::ScanFailure last_failure_;
  bool have_failure_ = false;
  size_t probe_refutations_ = 0;
  size_t full_scans_ = 0;
};

}  // namespace moche

#endif  // MOCHE_CORE_BOUNDS_H_
