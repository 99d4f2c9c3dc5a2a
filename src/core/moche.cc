#include "core/moche.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/bounds.h"
#include "core/cumulative.h"
#include "util/sort.h"
#include "util/stats.h"
#include "util/timer.h"

namespace moche {

namespace {

// Copies `count` values into *sorted and sorts them.
void SortInto(const double* values, size_t count,
              std::vector<double>* sorted) {
  sorted->assign(values, values + count);
  SortDoubles(sorted->data(), sorted->size());
}

// Validates (reference, alpha) and writes the sorted reference to *sorted:
// the per-call preparation of the entry points that take a raw reference.
Status ValidateAndSortReference(const std::vector<double>& reference,
                                double alpha, std::vector<double>* sorted) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(reference, "reference set"));
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  SortInto(reference.data(), reference.size(), sorted);
  return Status::OK();
}

// The ECDF sweep over q precomputed cumulative counts (as doubles):
//   d_i = |cum_r[i] / n - cum_t[i] / m|
// Returns max_i d_i. *best_index is the smallest i attaining it (first
// strict max), or left untouched when the max is 0.0: no d_i ever exceeds
// the initial best, and the caller keeps its front-value location.
double SweepCum(const double* cum_r, const double* cum_t, size_t q, double n,
                double m, size_t* best_index) {
  double best = 0.0;
  for (size_t i = 0; i < q; ++i) {
    const double d = std::fabs(cum_r[i] / n - cum_t[i] / m);
    if (d > best) {
      best = d;
      *best_index = i;
    }
  }
  return best;
}

// The KS outcome of R against a test multiset of size m whose cumulative
// counts on the engine's base vector are cum_t[1..q], swept against the
// engine's C_R. Base values absent from both R and that multiset only
// repeat the previous |F_R - F_T|, and the reference values the frame
// dropped sit inside runs along which it is strictly monotone, so the
// first-strict-max location is the one ks::StatisticSorted finds on the
// samples themselves. `front` is R's smallest value, StatisticSorted's
// location when D = 0.
KsOutcome SweepFrame(const BoundsEngine& engine, const double* cum_t,
                     size_t m, double front) {
  const CumulativeFrame& frame = engine.frame();
  size_t best_index = SIZE_MAX;
  const double statistic =
      SweepCum(engine.cum_r_data() + 1, cum_t + 1, frame.q(),
               static_cast<double>(frame.n()), static_cast<double>(m),
               &best_index);
  KsOutcome out =
      ks::internal::DecideUnchecked(statistic, frame.n(), m, engine.alpha());
  out.location = best_index == SIZE_MAX ? front : frame.Value(best_index + 1);
  return out;
}

// The precondition of EvaluateBatchPrepared. An empty batch is valid
// whatever its width; otherwise windows must be non-empty, the data
// non-null, and every value finite — checked in one flat pass over
// count * width doubles.
Status ValidateBatch(const WindowBatch& batch) {
  if (batch.count == 0) return Status::OK();
  if (batch.width == 0) {
    return Status::InvalidArgument("batch windows must be non-empty");
  }
  if (batch.data == nullptr) {
    return Status::InvalidArgument("batch data is null");
  }
  if (!AllFinite(batch.data, batch.count * batch.width)) {
    return Status::InvalidArgument("test window contains a non-finite value");
  }
  return Status::OK();
}

}  // namespace

Result<MocheReport> Moche::Explain(const std::vector<double>& reference,
                                   const std::vector<double>& test,
                                   double alpha,
                                   const PreferenceList& preference) const {
  ExplainWorkspace workspace;
  MocheReport report;
  MOCHE_RETURN_IF_ERROR(
      ExplainInto(reference, test, alpha, preference, &workspace, &report));
  return report;
}

Result<PreparedReference> Moche::Prepare(std::vector<double> reference,
                                         double alpha) const {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(reference, "reference set"));
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  PreparedReference prepared;
  SortDoubles(reference.data(), reference.size());
  prepared.sorted_reference_ = std::move(reference);
  prepared.alpha_ = alpha;
  return prepared;
}

void PreparedReference::SerializeTo(std::string* out) const {
  bin::AppendDoubleLe(alpha_, out);
  bin::AppendDoubleArray(sorted_reference_, out);
}

Result<PreparedReference> PreparedReference::DeserializeFrom(
    bin::Reader* reader) {
  double alpha = 0.0;
  PreparedReference prepared;
  if (!reader->ReadDoubleLe(&alpha) ||
      !reader->ReadDoubleArray(&prepared.sorted_reference_)) {
    return Status::OutOfRange("prepared reference: snapshot truncated");
  }
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  MOCHE_RETURN_IF_ERROR(
      ks::ValidateSample(prepared.sorted_reference_, "prepared reference"));
  if (!std::is_sorted(prepared.sorted_reference_.begin(),
                      prepared.sorted_reference_.end())) {
    return Status::InvalidArgument(
        "prepared reference: snapshot sample is not sorted");
  }
  prepared.alpha_ = alpha;
  return prepared;
}

Status Moche::ExplainPreparedInto(const PreparedReference& prepared,
                                  const std::vector<double>& test,
                                  const PreferenceList& preference,
                                  ExplainWorkspace* workspace,
                                  MocheReport* report) const {
  return ExplainSortedInto(prepared.sorted_reference_, prepared.alpha_, test,
                           preference, workspace, report);
}

Status Moche::ExplainInto(const std::vector<double>& reference,
                          const std::vector<double>& test, double alpha,
                          const PreferenceList& preference,
                          ExplainWorkspace* workspace,
                          MocheReport* report) const {
  MOCHE_RETURN_IF_ERROR(ValidateAndSortReference(
      reference, alpha, &workspace->reference_sorted_));
  return ExplainSortedInto(workspace->reference_sorted_, alpha, test,
                           preference, workspace, report);
}

Status Moche::FindSizeSortedInto(const std::vector<double>& sorted_reference,
                                 double alpha, const std::vector<double>& test,
                                 ExplainWorkspace* workspace,
                                 MocheReport* report) const {
  ExplainWorkspace& ws = *workspace;
  // Per-call validation covers only the test window; the reference and
  // alpha were validated (and R sorted) by the caller, so the per-window
  // cost carries no redundant O(n) re-scans of the reference.
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(test, "test set"));
  SortInto(test.data(), test.size(), &ws.test_sorted_);

  // The frame is the explanation's one rank walk over R and T; the KS
  // decision sweeps the engine's flattened copy of its cumulative vectors.
  CumulativeFrame::BuildFromSortedUncheckedInto(sorted_reference,
                                                ws.test_sorted_, &ws.frame_);
  ws.engine_.Reset(ws.frame_, alpha);
  const KsOutcome original = SweepFrame(ws.engine_, ws.engine_.cum_t_data(),
                                       test.size(), sorted_reference.front());
  if (!original.reject) {
    return Status::AlreadyPasses(
        "R and T pass the KS test; there is nothing to explain");
  }
  report->original = original;

  WallTimer timer;
  MOCHE_ASSIGN_OR_RETURN(
      report->size_stats,
      SizeSearcher(ws.engine_).FindSize(options_.use_lower_bound));
  report->k = report->size_stats.k;
  report->k_hat = report->size_stats.k_hat;
  report->seconds_size_search = timer.Seconds();
  return Status::OK();
}

Status Moche::ExplainSortedInto(const std::vector<double>& sorted_reference,
                                double alpha, const std::vector<double>& test,
                                const PreferenceList& preference,
                                ExplainWorkspace* workspace,
                                MocheReport* report) const {
  ExplainWorkspace& ws = *workspace;
  MOCHE_RETURN_IF_ERROR(
      ValidatePreference(preference, test.size(), &ws.build_.pref_seen));
  MOCHE_RETURN_IF_ERROR(
      FindSizeSortedInto(sorted_reference, alpha, test, workspace, report));

  WallTimer timer;
  // Prevalidated variant: the preference permutation check already ran at
  // this function's entry; no need to re-pay it per call.
  MOCHE_RETURN_IF_ERROR(internal::BuildMostComprehensiblePrevalidated(
      ws.engine_, report->k, test, preference,
      options_.incremental_partial_check, &report->build_stats, &ws.build_,
      &report->explanation));
  report->seconds_construction = timer.Seconds();

  // R vs T \ I on the same frame: C_{T \ I} = C_T - C_I, with C_I
  // prefix-summed from the base-vector index the builder recorded for each
  // test point. No copy of T \ I, no sort, no second walk.
  const size_t m_after = test.size() - report->explanation.size();
  if (m_after == 0) {
    return Status::Internal("explanation removed the whole test set");
  }
  const size_t q = ws.frame_.q();
  const double* cum_t = ws.engine_.cum_t_data();
  std::vector<double>& cum_after = ws.cum_after_;
  cum_after.reserve(ws.frame_.QBound() + 1);
  cum_after.assign(q + 1, 0.0);
  for (size_t idx : report->explanation.indices) {
    cum_after[ws.build_.value_index[idx]] += 1.0;
  }
  double cum_removed = 0.0;
  for (size_t i = 1; i <= q; ++i) {
    cum_removed += cum_after[i];
    cum_after[i] = cum_t[i] - cum_removed;
  }
  report->after = SweepFrame(ws.engine_, cum_after.data(), m_after,
                             sorted_reference.front());
  if (options_.validate_result && report->after.reject) {
    return Status::Internal(
        "constructed explanation does not reverse the KS test");
  }
  return Status::OK();
}

Status Moche::EvaluateBatchPrepared(const PreparedReference& prepared,
                                    const WindowBatch& batch,
                                    ExplainWorkspace* workspace,
                                    std::vector<KsOutcome>* outcomes) const {
  MOCHE_RETURN_IF_ERROR(ValidateBatch(batch));
  std::vector<double>& test_sorted = workspace->test_sorted_;
  outcomes->resize(batch.count);
  for (size_t w = 0; w < batch.count; ++w) {
    SortInto(batch.data + w * batch.width, batch.width, &test_sorted);
    double location = 0.0;
    const double statistic = ks::StatisticSorted(prepared.sorted_reference_,
                                                 test_sorted, &location);
    KsOutcome& out = (*outcomes)[w];
    out = ks::internal::DecideUnchecked(statistic,
                                        prepared.sorted_reference_.size(),
                                        batch.width, prepared.alpha_);
    out.location = location;
  }
  return Status::OK();
}

Status Moche::TriageSketchedInto(const sketch::SketchedReference& sketched,
                                 const std::vector<double>& test,
                                 ExplainWorkspace* workspace,
                                 sketch::SketchTriage* triage) const {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(test, "test set"));
  std::vector<double>& test_sorted = workspace->test_sorted_;
  SortInto(test.data(), test.size(), &test_sorted);
  *triage = sketched.Classify(sketched.StatisticAgainstSorted(test_sorted),
                              test_sorted.size());
  return Status::OK();
}

Result<SizeSearchResult> Moche::FindExplanationSizeInto(
    const PreparedReference& prepared, const std::vector<double>& test,
    ExplainWorkspace* workspace) const {
  MocheReport report;
  MOCHE_RETURN_IF_ERROR(FindSizeSortedInto(prepared.sorted_reference_,
                                           prepared.alpha_, test, workspace,
                                           &report));
  return report.size_stats;
}

}  // namespace moche
