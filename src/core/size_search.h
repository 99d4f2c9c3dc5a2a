// Phase 1 of MOCHE: finding the explanation size k (paper Section 4).
//
// Theorem 2's necessary condition is monotone in h, so the smallest h
// satisfying it — a lower bound k_hat <= k — is found by binary search in
// O(q log m), where q <= 2m + 1 is the frame's window-compressed base size
// (core/cumulative.h). A walk with the exact Theorem 1 check from k_hat
// upward then yields k; the walk runs through SizeScan (core/bounds.h), which
// carries failure state across adjacent sizes and refutes most failing
// sizes in O(1) with answers bit-identical to the stateless check.
// Disabling the lower bound (scanning from h = 1) reproduces the paper's
// MOCHE_ns ablation.
//
// Ownership & thread-safety: a SizeSearcher owns nothing — it borrows the
// caller's BoundsEngine (which must outlive it) and both entry points are
// const and pure, so one searcher may serve concurrent callers.

#ifndef MOCHE_CORE_SIZE_SEARCH_H_
#define MOCHE_CORE_SIZE_SEARCH_H_

#include <cstddef>

#include "core/bounds.h"
#include "util/status.h"

namespace moche {

/// Outcome of the size search, including the counters the paper's
/// efficiency study reports (Figure 6's EE = k - k_hat; Figure 5's
/// MOCHE vs MOCHE_ns gap is driven by theorem1_checks).
struct SizeSearchResult {
  size_t k = 0;               ///< the explanation size
  size_t k_hat = 0;           ///< lower bound from Theorem 2 (== scan start)
  size_t theorem1_checks = 0; ///< number of candidate sizes Theorem 1 tested
  size_t theorem2_checks = 0; ///< number of O(q) Theorem 2 evaluations
  /// Of the theorem1_checks, how many SizeScan refuted with its O(1) probe
  /// instead of a full O(q) pass (so full_scans + probe_refutations ==
  /// theorem1_checks).
  size_t probe_refutations = 0;
  size_t full_scans = 0;
};

class SizeSearcher {
 public:
  explicit SizeSearcher(const BoundsEngine& engine) : engine_(engine) {}

  /// Binary-searches the smallest h in [1, m-1] satisfying Theorem 2.
  /// NotFound when even h = m-1 fails (possible only when alpha > 2/e^2).
  /// `checks` (optional) accumulates the number of condition evaluations.
  Result<size_t> LowerBound(size_t* checks = nullptr) const;

  /// Full phase 1. With `use_lower_bound` false the Theorem 1 scan starts
  /// at h = 1 (the MOCHE_ns ablation).
  Result<SizeSearchResult> FindSize(bool use_lower_bound = true) const;

 private:
  const BoundsEngine& engine_;
};

}  // namespace moche

#endif  // MOCHE_CORE_SIZE_SEARCH_H_
