// The public facade of the library: MOCHE end to end.
//
//   moche::Moche engine;
//   auto report = engine.Explain(reference, test, /*alpha=*/0.05, preference);
//   if (report.ok()) { /* report->explanation.indices ... */ }
//
// Explain, ExplainInto and Prepare + ExplainPreparedInto (and, for phase 1
// alone, FindExplanationSizeInto) share one pipeline and agree bit for bit.
//
// Explain returns:
//  * AlreadyPasses when R and T pass the KS test (nothing to explain),
//  * NotFound when no explanation exists (possible only for alpha > 2/e^2,
//    cf. Proposition 1),
//  * otherwise the unique most comprehensible counterfactual explanation.
//
// Ownership & thread-safety: Moche and PreparedReference are immutable
// after construction — one engine and one prepared reference may be shared
// by any number of concurrent Explain/ExplainPreparedInto calls (the batch
// harness and the stream monitor both do). Each call owns all of its
// mutable state on the stack; no call mutates its inputs. The *Into entry
// points move that state into a caller-owned ExplainWorkspace instead: a
// hot-loop caller recycles one workspace (and one MocheReport) per thread
// and the warmed-up steady state allocates nothing (core/workspace.h).
//
// Input conventions: samples must be non-empty and finite —
// ks::ValidateSample rejects NaN/Inf up front with InvalidArgument, so the
// numeric core never sorts or compares a NaN (it has no rank). alpha
// must lie in (0, 2), the domain of the critical value c_alpha. The
// determinism, data-flow, and NaN/empty-sample contracts are collected in
// docs/ARCHITECTURE.md.

#ifndef MOCHE_CORE_MOCHE_H_
#define MOCHE_CORE_MOCHE_H_

#include <vector>

#include "core/builder.h"
#include "core/explanation.h"
#include "core/instance.h"
#include "core/preference.h"
#include "core/size_search.h"
#include "core/workspace.h"
#include "sketch/sketched_reference.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace moche {

/// Tuning knobs; the defaults reproduce the full MOCHE algorithm.
struct MocheOptions {
  /// Phase 1 lower bound via Theorem 2 binary search. Disabling reproduces
  /// the paper's MOCHE_ns ablation (Figure 5).
  bool use_lower_bound = true;

  /// Incremental Theorem 3 checks in phase 2 (our optimization). Disabling
  /// uses the paper-faithful O(q)-per-candidate recursion. Both modes return
  /// identical explanations.
  bool incremental_partial_check = true;

  /// Fail with Internal when the report's `after` outcome (R vs T \ I,
  /// swept over the explanation's frame as C_T - C_I; always computed)
  /// still rejects. Cheap insurance: tripping it would indicate a bug in
  /// the bounds algebra.
  bool validate_result = true;
};

/// Everything one Explain call produces.
struct MocheReport {
  Explanation explanation;     ///< indices into the test set, in L order
  size_t k = 0;                ///< explanation size
  size_t k_hat = 0;            ///< Theorem 2 lower bound (== k start of scan)
  KsOutcome original;          ///< the failed test being explained
  KsOutcome after;             ///< outcome on R vs T \ I (passes)
  double seconds_size_search = 0.0;
  double seconds_construction = 0.0;
  SizeSearchResult size_stats;
  BuildStats build_stats;
};

/// A reference sample validated and sorted once, for explaining many test
/// windows against the same R (e.g. the sliding-window sweeps of Section 6:
/// hundreds of test windows are sliced from one series and compared against
/// one reference). Construct with Moche::Prepare; immutable afterwards, so
/// one PreparedReference may be shared by concurrent ExplainPreparedInto
/// calls (each with its own workspace).
class PreparedReference {
 public:
  const std::vector<double>& sorted_reference() const {
    return sorted_reference_;
  }
  double alpha() const { return alpha_; }

  /// Appends the canonical little-endian encoding (alpha, then the sorted
  /// sample bit-exact; util/binary_io.h) — the snapshot hook of
  /// src/persist. Deterministic: equal prepared references serialize to
  /// equal bytes.
  void SerializeTo(std::string* out) const;

  /// Inverse of SerializeTo over an untrusted buffer. Re-validates
  /// everything Prepare guarantees — alpha domain, non-empty, all-finite,
  /// ascending order — so a corrupted snapshot can never mint a
  /// PreparedReference that breaks the Unchecked hot-path invariants;
  /// restoring skips only the sort (SortDoubles, an in-place radix sort of
  /// a few linear passes), not the checks.
  static Result<PreparedReference> DeserializeFrom(bin::Reader* reader);

 private:
  friend class Moche;
  // Only Moche::Prepare and DeserializeFrom may construct one:
  // ExplainPreparedInto's unchecked hot path relies on the validate-and-sort
  // invariant both establish.
  PreparedReference() = default;

  std::vector<double> sorted_reference_;
  double alpha_ = 0.05;
};

/// A structure-of-arrays batch of equally sized test windows: window w
/// occupies data[w * width, (w + 1) * width). Borrowed, not owned — the
/// buffer must outlive the call. Batch validation (the all-finite scan)
/// runs as a single pass over count * width doubles.
struct WindowBatch {
  const double* data = nullptr;
  size_t count = 0;  ///< number of windows
  size_t width = 0;  ///< observations per window (> 0 when count > 0)
};

class Moche {
 public:
  explicit Moche(MocheOptions options = {}) : options_(options) {}

  /// Explains why (reference, test) fail the KS test at `alpha`, returning
  /// the most comprehensible explanation under `preference`.
  Result<MocheReport> Explain(const std::vector<double>& reference,
                              const std::vector<double>& test, double alpha,
                              const PreferenceList& preference) const;

  /// Convenience overload for a packaged instance.
  Result<MocheReport> Explain(const KsInstance& instance,
                              const PreferenceList& preference) const {
    return Explain(instance.reference, instance.test, instance.alpha,
                   preference);
  }

  /// Validates and sorts `reference` once for many ExplainPreparedInto
  /// (and FindExplanationSizeInto) calls.
  /// InvalidArgument on an empty/non-finite sample or out-of-domain alpha.
  Result<PreparedReference> Prepare(std::vector<double> reference,
                                    double alpha) const;

  /// The zero-allocation hot path: as Explain, but reuses the prepared
  /// (already sorted) reference — only the test window is validated and
  /// sorted per call — and every scratch buffer lives in the caller-owned
  /// `workspace`; the result is written into the caller-owned `*report`
  /// (whose explanation vector's capacity is reused). A caller that
  /// recycles the same workspace and report performs no heap allocation
  /// once warm — the steady state of the Section 6 sweeps and
  /// DriftMonitor. Reports are bit-identical to Explain on the same
  /// inputs; `*report` is meaningful only when the returned Status is OK.
  /// The workspace and report are mutable per-caller state: share the
  /// engine and the prepared reference across threads, never a workspace
  /// (docs/ARCHITECTURE.md).
  Status ExplainPreparedInto(const PreparedReference& prepared,
                             const std::vector<double>& test,
                             const PreferenceList& preference,
                             ExplainWorkspace* workspace,
                             MocheReport* report) const;

  /// One-shot workspace variant: validates and sorts `reference` into the
  /// workspace per call (no PreparedReference needed). Reports are
  /// bit-identical to Explain; used by the batch harness, whose instances
  /// each carry their own reference.
  Status ExplainInto(const std::vector<double>& reference,
                     const std::vector<double>& test, double alpha,
                     const PreferenceList& preference,
                     ExplainWorkspace* workspace, MocheReport* report) const;

  /// Phase 1 only: the size k and its Theorem 2 lower bound k_hat, without
  /// building the explanation. Runs entirely inside `workspace` like
  /// ExplainPreparedInto (zero allocation once warm); k, k_hat and any
  /// error status match Explain's on (R, T, alpha) and a valid preference.
  Result<SizeSearchResult> FindExplanationSizeInto(
      const PreparedReference& prepared, const std::vector<double>& test,
      ExplainWorkspace* workspace) const;

  /// Runs the KS test (no explanation) for every window of an SoA batch
  /// against one prepared reference, writing outcome w for window w into
  /// (*outcomes)[w]. Each outcome is bit-identical to
  /// ks::RunSorted(sorted_reference, sort(window), alpha) on the same data.
  /// The whole batch is finiteness-checked in one pass before any
  /// window is evaluated; InvalidArgument (and *outcomes untouched) if any
  /// window holds a non-finite value, if count > 0 with width == 0, or if
  /// data is null with count * width > 0. Zero-allocation once `workspace`
  /// and `outcomes` are warm (outcomes keeps its capacity). DriftMonitor's
  /// kSketched mode calls it with a one-window batch for the exact
  /// outcome of a window the sketch triage could not settle, or of one
  /// that fires an explanation.
  Status EvaluateBatchPrepared(const PreparedReference& prepared,
                               const WindowBatch& batch,
                               ExplainWorkspace* workspace,
                               std::vector<KsOutcome>* outcomes) const;

  /// Certified three-way KS triage of one test window against a sketched
  /// reference (sketch/sketched_reference.h): computes the exact weighted
  /// sweep statistic D_sketch against the sketch summary, brackets the
  /// true two-sample D in [D_sketch - eps, D_sketch + eps], and compares
  /// the bracket to the KS threshold. kCertainPass / kCertainFail verdicts
  /// are *certified*: the exact ks::Run decision on (R, T) is guaranteed
  /// to agree; kUncertain means only the exact path can decide. Costs
  /// O(m log m + summary) — independent of the reference size n. The test
  /// window is sorted into `workspace` (zero allocation once warm) and the
  /// verdict written to `*triage` (meaningful only when the returned
  /// Status is OK). The stream monitor's sketched mode runs this per push.
  Status TriageSketchedInto(const sketch::SketchedReference& sketched,
                            const std::vector<double>& test,
                            ExplainWorkspace* workspace,
                            sketch::SketchTriage* triage) const;

  const MocheOptions& options() const { return options_; }

 private:
  /// The shared pipeline behind the Explain* entry points: `sorted_reference`
  /// must be validated and sorted, `alpha` validated.
  Status ExplainSortedInto(const std::vector<double>& sorted_reference,
                           double alpha, const std::vector<double>& test,
                           const PreferenceList& preference,
                           ExplainWorkspace* workspace,
                           MocheReport* report) const;

  /// Phase 1, the one copy behind ExplainSortedInto and FindExplanationSizeInto
  /// (same preconditions): validate and sort T, build the frame and bounds
  /// engine, decide from the frame, search the size. Fills
  /// report->original, size_stats, k, k_hat and seconds_size_search.
  Status FindSizeSortedInto(const std::vector<double>& sorted_reference,
                            double alpha, const std::vector<double>& test,
                            ExplainWorkspace* workspace,
                            MocheReport* report) const;

  MocheOptions options_;
};

}  // namespace moche

#endif  // MOCHE_CORE_MOCHE_H_
