#include "core/builder.h"

#include "util/string_util.h"

namespace moche {

Result<Explanation> BuildMostComprehensible(const BoundsEngine& engine,
                                            size_t k,
                                            const std::vector<double>& test,
                                            const PreferenceList& pref,
                                            bool incremental_check,
                                            BuildStats* stats) {
  BuildScratch scratch;
  MOCHE_RETURN_IF_ERROR(
      ValidatePreference(pref, test.size(), &scratch.pref_seen));
  Explanation expl;
  MOCHE_RETURN_IF_ERROR(internal::BuildMostComprehensiblePrevalidated(
      engine, k, test, pref, incremental_check, stats, &scratch, &expl));
  return expl;
}

Status internal::BuildMostComprehensiblePrevalidated(
    const BoundsEngine& engine, size_t k, const std::vector<double>& test,
    const PreferenceList& pref, bool incremental_check, BuildStats* stats,
    BuildScratch* scratch, Explanation* out) {
  const CumulativeFrame& frame = engine.frame();
  if (stats != nullptr) *stats = BuildStats{};
  if (test.size() != frame.m()) {
    return Status::InvalidArgument("test set does not match the frame");
  }

  // Map each test point to its 1-based base-vector index once.
  std::vector<size_t>* value_index = &scratch->value_index;
  PartialExplanationChecker* checker = &scratch->checker;
  value_index->resize(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    MOCHE_ASSIGN_OR_RETURN((*value_index)[i], frame.IndexOfValue(test[i]));
  }

  MOCHE_RETURN_IF_ERROR(checker->Reset(engine, k));

  out->indices.clear();
  out->indices.reserve(k);
  for (size_t pos = 0; pos < pref.size(); ++pos) {
    const size_t t_idx = pref[pos];
    const size_t v = (*value_index)[t_idx];
    if (stats != nullptr) ++stats->candidates_checked;
    const bool feasible = incremental_check
                              ? checker->CandidateFeasible(v)
                              : checker->CandidateFeasibleFull(v);
    if (feasible) {
      checker->Accept(v);
      out->indices.push_back(t_idx);
      if (checker->accepted_count() == k) {
        if (stats != nullptr) stats->recursion_steps = checker->steps();
        return Status::OK();
      }
    }
  }
  if (stats != nullptr) stats->recursion_steps = checker->steps();
  return Status::Internal(
      StrFormat("scan exhausted after accepting %zu of %zu points; "
                "phase 1 and phase 2 disagree",
                checker->accepted_count(), k));
}

}  // namespace moche
