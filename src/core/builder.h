// Phase 2 of MOCHE: Algorithm 1 — constructing the most comprehensible
// explanation by one scan of the test set in preference order, keeping each
// point iff the grown set is still a partial explanation (Theorem 3).
//
// Ownership & thread-safety: free functions only. They borrow the caller's
// BoundsEngine and write into caller-owned output/scratch; nothing is
// shared behind the caller's back, so concurrent calls are safe as long as
// each thread passes its own scratch (core/workspace.h).

#ifndef MOCHE_CORE_BUILDER_H_
#define MOCHE_CORE_BUILDER_H_

#include <vector>

#include "core/bounds.h"
#include "core/explanation.h"
#include "core/partial.h"
#include "core/preference.h"
#include "util/status.h"

namespace moche {

/// Counters for the construction scan (reported by the micro benches).
struct BuildStats {
  size_t candidates_checked = 0;  ///< Theorem 3 evaluations performed
  size_t recursion_steps = 0;     ///< total backward-recursion steps
};

/// Runs Algorithm 1. `test` is the instance's test set in original order;
/// `pref` the preference list; `k` the size found by phase 1.
/// With `incremental_check` false, every Theorem 3 evaluation uses the
/// paper-faithful full O(q) recursion.
/// Returns the explanation as indices into `test`, listed in `pref` order.
Result<Explanation> BuildMostComprehensible(const BoundsEngine& engine,
                                            size_t k,
                                            const std::vector<double>& test,
                                            const PreferenceList& pref,
                                            bool incremental_check = true,
                                            BuildStats* stats = nullptr);

/// Caller-owned scratch for the in-place builder below. Members are rebuilt
/// in place on every call; reusing one BuildScratch across calls is what
/// makes the warm scan allocation-free. ExplainWorkspace embeds one.
struct BuildScratch {
  /// After a call: the 1-based base-vector index of each test point (Moche
  /// forms C_I from it). The other members are internal state.
  std::vector<size_t> value_index;
  PartialExplanationChecker checker;
  std::vector<unsigned char> pref_seen;

  size_t FootprintBytes() const {
    return value_index.capacity() * sizeof(size_t) +
           checker.FootprintBytes() + pref_seen.capacity();
  }
};

namespace internal {

/// As BuildMostComprehensible, borrowing caller-owned scratch so a warm
/// caller (the ExplainWorkspace hot path) runs the scan without heap
/// allocation; the explanation is written into `out` (cleared first,
/// capacity reused). `stats`, when non-null, is overwritten — not
/// accumulated into. `pref` validation is a PRECONDITION: the caller must
/// have run ValidatePreference(pref, test.size()) already (Moche's explain
/// pipeline validates once at its entry instead of re-paying the O(m)
/// permutation check per call). Mirrors the ks::internal::*Unchecked
/// pattern.
Status BuildMostComprehensiblePrevalidated(
    const BoundsEngine& engine, size_t k, const std::vector<double>& test,
    const PreferenceList& pref, bool incremental_check, BuildStats* stats,
    BuildScratch* scratch, Explanation* out);

}  // namespace internal

}  // namespace moche

#endif  // MOCHE_CORE_BUILDER_H_
