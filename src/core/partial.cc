#include "core/partial.h"

#include <algorithm>

#include "util/logging.h"

namespace moche {

Status PartialExplanationChecker::Reset(const BoundsEngine& engine,
                                        size_t k) {
  if (k == 0 || k >= engine.frame().m()) {
    return Status::InvalidArgument("explanation size out of range");
  }
  frame_ = &engine.frame();
  k_ = k;
  accepted_count_ = 0;
  steps_ = 0;
  scratch_valid_ = false;
  scratch_lo_ = 0;
  scratch_v_ = 0;
  // Sized for any window of this size, so a warm checker never reallocates.
  for (std::vector<int64_t>* v : {&lk_, &uk_, &counts_, &scratch_, &ubar_}) {
    v->reserve(frame_->QBound() + 1);
  }
  engine.ComputeBoundsInto(k, &lk_, &uk_);
  const size_t q = frame_->q();
  counts_.assign(q + 1, 0);
  scratch_.assign(q + 1, 0);
  // ubar of the empty accepted set: the recursion with all s_i = 0.
  ubar_.assign(q + 1, 0);
  ubar_[q] = uk_[q];
  for (size_t i = q; i >= 1; --i) {
    ubar_[i - 1] = std::min(uk_[i - 1], ubar_[i]);
  }
  // The empty set is a partial explanation iff an explanation of size k
  // exists; verify so later Accepts can rely on a feasible cached state.
  for (size_t i = 0; i <= q; ++i) {
    if (lk_[i] > ubar_[i]) {
      return Status::Internal(
          "no qualified k-cumulative vector; was k computed by phase 1?");
    }
  }
  return Status::OK();
}

Result<PartialExplanationChecker> PartialExplanationChecker::Create(
    const BoundsEngine& engine, size_t k) {
  PartialExplanationChecker checker;
  MOCHE_RETURN_IF_ERROR(checker.Reset(engine, k));
  return checker;
}

bool PartialExplanationChecker::WalkCandidate(size_t v) {
  MOCHE_DCHECK(v >= 1 && v <= frame_->q());
  scratch_valid_ = false;
  if (counts_[v] + 1 > frame_->CountT(v)) {
    return false;  // would exceed the multiplicity available in T
  }
  // Recursion ubar_{i-1} = min(u^k_{i-1}, ubar_i - s_i), starting at i = v
  // with s_v incremented by the candidate. Indices >= v are unchanged.
  scratch_lo_ = v;  // nothing written yet
  int64_t upper = ubar_[v];
  int64_t s = counts_[v] + 1;
  for (size_t i = v; i >= 1; --i) {
    ++steps_;
    const int64_t nu = std::min(uk_[i - 1], upper - s);
    if (nu < lk_[i - 1]) return false;
    if (nu == ubar_[i - 1]) {
      // Converged: all lower entries are unchanged and were feasible for
      // the accepted state (class invariant).
      scratch_valid_ = true;
      scratch_v_ = v;
      return true;
    }
    scratch_[i - 1] = nu;
    scratch_lo_ = i - 1;
    if (i == 1) break;
    upper = nu;
    s = counts_[i - 1];
  }
  scratch_valid_ = true;
  scratch_v_ = v;
  return true;
}

bool PartialExplanationChecker::CandidateFeasible(size_t v) {
  return WalkCandidate(v);
}

bool PartialExplanationChecker::CandidateFeasibleFull(size_t v) {
  MOCHE_DCHECK(v >= 1 && v <= frame_->q());
  scratch_valid_ = false;
  if (counts_[v] + 1 > frame_->CountT(v)) return false;
  const size_t q = frame_->q();
  int64_t upper = uk_[q];
  ++steps_;
  if (upper < lk_[q]) return false;
  for (size_t i = q; i >= 1; --i) {
    ++steps_;
    const int64_t s = counts_[i] + (i == v ? 1 : 0);
    const int64_t nu = std::min(uk_[i - 1], upper - s);
    if (nu < lk_[i - 1]) return false;
    upper = nu;
  }
  return true;
}

void PartialExplanationChecker::Accept(size_t v) {
  if (!scratch_valid_ || scratch_v_ != v) {
    const bool feasible = WalkCandidate(v);
    MOCHE_CHECK(feasible);
  }
  for (size_t i = scratch_lo_; i + 1 <= v; ++i) {
    ubar_[i] = scratch_[i];
  }
  ++counts_[v];
  ++accepted_count_;
  scratch_valid_ = false;
}

}  // namespace moche
