#include "core/moche.h"

#include <algorithm>

#include "core/bounds.h"
#include "core/cumulative.h"
#include "util/simd.h"
#include "util/timer.h"

namespace moche {

namespace {

// Copies `count` validated (finite) values into *sorted and sorts them.
void SortInto(const double* values, size_t count,
              std::vector<double>* sorted) {
  sorted->assign(values, values + count);
  std::sort(sorted->begin(), sorted->end());
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

// The KS outcome of sorted R vs sorted T, swept through the workspace's
// merge buffers.
KsOutcome DecideSorted(const std::vector<double>& r_sorted,
                       const std::vector<double>& t_sorted, double alpha,
                       ks::KsSweepScratch* sweep) {
  double location = 0.0;
  const double statistic =
      ks::StatisticSortedScratch(r_sorted, t_sorted, sweep, &location);
  KsOutcome out = ks::internal::DecideUnchecked(statistic, r_sorted.size(),
                                                t_sorted.size(), alpha);
  out.location = location;
  return out;
}

// The shared precondition of the batched evaluators. An empty batch is
// valid whatever its width; otherwise windows must be non-empty, the data
// non-null, and every value finite — checked in one flat SIMD pass over
// count * width doubles, so the lanes stay full instead of paying
// per-window ramp-up and tail handling count times.
Status ValidateBatch(const WindowBatch& batch) {
  if (batch.count == 0) return Status::OK();
  if (batch.width == 0) {
    return Status::InvalidArgument("batch windows must be non-empty");
  }
  if (batch.data == nullptr) {
    return Status::InvalidArgument("batch data is null");
  }
  if (!simd::ActiveKernels().all_finite(batch.data,
                                        batch.count * batch.width)) {
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
  std::sort(reference.begin(), reference.end());
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

Result<MocheReport> Moche::ExplainPrepared(
    const PreparedReference& prepared, const std::vector<double>& test,
    const PreferenceList& preference) const {
  ExplainWorkspace workspace;
  MocheReport report;
  MOCHE_RETURN_IF_ERROR(
      ExplainPreparedInto(prepared, test, preference, &workspace, &report));
  return report;
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

  const KsOutcome original =
      DecideSorted(sorted_reference, ws.test_sorted_, alpha, &ws.ks_sweep_);
  if (!original.reject) {
    return Status::AlreadyPasses(
        "R and T pass the KS test; there is nothing to explain");
  }
  report->original = original;

  CumulativeFrame::BuildFromSortedUncheckedInto(sorted_reference,
                                                ws.test_sorted_, &ws.frame_);
  ws.engine_.Reset(ws.frame_, alpha);
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

  // T \ I, built from the index mask directly (copying the reference into a
  // KsInstance just for RemoveExplanation would cost O(n) per window).
  ws.removed_.assign(test.size(), 0);
  for (size_t idx : report->explanation.indices) ws.removed_[idx] = 1;
  std::vector<double>& remaining = ws.remaining_;
  remaining.clear();
  remaining.reserve(test.size() - report->explanation.size());
  for (size_t i = 0; i < test.size(); ++i) {
    if (!ws.removed_[i]) remaining.push_back(test[i]);
  }
  if (remaining.empty()) {
    return Status::Internal("explanation removed the whole test set");
  }
  std::sort(remaining.begin(), remaining.end());
  report->after =
      DecideSorted(sorted_reference, remaining, alpha, &ws.ks_sweep_);
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
  ExplainWorkspace& ws = *workspace;
  outcomes->resize(batch.count);
  for (size_t w = 0; w < batch.count; ++w) {
    SortInto(batch.data + w * batch.width, batch.width, &ws.test_sorted_);
    (*outcomes)[w] = DecideSorted(prepared.sorted_reference_,
                                  ws.test_sorted_, prepared.alpha_,
                                  &ws.ks_sweep_);
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

Status Moche::EvaluateBatchSketched(
    const sketch::SketchedReference& sketched, const WindowBatch& batch,
    ExplainWorkspace* workspace,
    std::vector<sketch::SketchTriage>* triages) const {
  MOCHE_RETURN_IF_ERROR(ValidateBatch(batch));
  std::vector<double>& test_sorted = workspace->test_sorted_;
  triages->resize(batch.count);
  for (size_t w = 0; w < batch.count; ++w) {
    SortInto(batch.data + w * batch.width, batch.width, &test_sorted);
    (*triages)[w] = sketched.Classify(
        sketched.StatisticAgainstSorted(test_sorted), batch.width);
  }
  return Status::OK();
}

Result<SizeSearchResult> Moche::FindExplanationSize(
    const std::vector<double>& reference, const std::vector<double>& test,
    double alpha) const {
  ExplainWorkspace workspace;
  MOCHE_RETURN_IF_ERROR(ValidateAndSortReference(
      reference, alpha, &workspace.reference_sorted_));
  MocheReport report;
  MOCHE_RETURN_IF_ERROR(FindSizeSortedInto(workspace.reference_sorted_, alpha,
                                           test, &workspace, &report));
  return report.size_stats;
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
