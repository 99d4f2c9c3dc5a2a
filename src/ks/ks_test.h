// The two-sample Kolmogorov-Smirnov test (paper Section 3.1).
//
// The KS statistic is D(R,T) = max_{x in R u T} |F_R(x) - F_T(x)|. The null
// hypothesis ("T is sampled from the same distribution as R") is rejected at
// significance level alpha when D exceeds the threshold
//   p = c_alpha * sqrt((n+m)/(n*m)),  c_alpha = sqrt(-ln(alpha/2)/2).
//
// Ownership & thread-safety: the free functions are pure and thread-safe;
// RemovalKs owns its rank-frame arrays and is mutable per-caller scratch
// (not thread-safe — each worker builds its own).
//
// NaN/empty-sample conventions (shared with the rest of the tree, see
// docs/ARCHITECTURE.md): the Status-returning entry points reject empty
// samples and non-finite values via ValidateSample (a NaN has no rank, so
// it has no statistic); the Statistic* primitives assume
// validated input and define the degenerate cases deterministically —
// D = 1 when exactly one sample is empty (location: the smallest value of
// the non-empty sample), D = 0 and location 0.0 when both are.

#ifndef MOCHE_KS_KS_TEST_H_
#define MOCHE_KS_KS_TEST_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace moche {

/// Everything a single KS test run reports.
struct KsOutcome {
  double statistic = 0.0;    ///< D(R, T)
  double threshold = 0.0;    ///< p = c_alpha * sqrt((n+m)/(n m))
  bool reject = false;       ///< true iff D > p (the test "fails")
  double location = 0.0;     ///< an x achieving the maximum |F_R - F_T|
  size_t n = 0;              ///< |R|
  size_t m = 0;              ///< |T|
};

namespace ks {

/// Rejects empty samples and samples containing NaN/Inf values; `name` is
/// used in the error message ("reference set", ...).
Status ValidateSample(const std::vector<double>& sample, const char* name);

/// Rejects significance levels outside the domain (0, 2) of c_alpha.
Status ValidateAlpha(double alpha);

/// c_alpha = sqrt(-0.5 * ln(alpha/2)). InvalidArgument unless 0 < alpha < 2
/// (the whole public ks surface reports bad inputs through Status; it never
/// aborts).
Result<double> CriticalValue(double alpha);

/// The rejection threshold p = c_alpha * sqrt((n+m)/(n*m)).
/// InvalidArgument when alpha is outside (0, 2) or n or m is zero.
Result<double> Threshold(double alpha, size_t n, size_t m);

namespace internal {

/// Precondition-based fast paths for hot loops that already validated their
/// inputs (ValidateAlpha / non-empty samples). Preconditions are checked
/// with MOCHE_DCHECK only; release builds compute garbage on bad input.
double CriticalValueUnchecked(double alpha);
double ThresholdUnchecked(double alpha, size_t n, size_t m);

/// The one KS decision: threshold from ThresholdUnchecked, reject iff
/// statistic > threshold. Every KS decision in ks and core goes through
/// here. The outcome's location is left 0.0 for the caller to set.
KsOutcome DecideUnchecked(double statistic, size_t n, size_t m, double alpha);

}  // namespace internal

/// D(R,T) for samples that are already sorted ascending.
/// Returns 1.0 if exactly one sample is empty; 0.0 if both are. `location`
/// (when non-null) is always written: the maximizing x, or 0.0 when both
/// samples are empty and no x exists. The location is the first x, in
/// ascending order, at which the maximum is reached — R's copy when x is in
/// both samples — and R's smallest value when D = 0. The sweep visits only
/// the rank frame (ks/rank_walk.h): O(m + d log(n/d)) for d distinct test
/// values, so O(m log(n/m)) once n >= m.
double StatisticSorted(const std::vector<double>& r_sorted,
                       const std::vector<double>& t_sorted,
                       double* location = nullptr);

/// D(R,T) for samples in arbitrary order (sorts copies). Returns NaN (and
/// location 0.0) if either sample contains NaN — a NaN observation has no
/// rank, so there is no statistic.
double Statistic(std::vector<double> r, std::vector<double> t,
                 double* location = nullptr);

/// Runs the full three-step test. Fails with InvalidArgument when either
/// sample is empty, contains a non-finite value, or alpha is outside
/// (0, 2); inputs are validated before anything is sorted.
Result<KsOutcome> Run(std::vector<double> r, std::vector<double> t,
                      double alpha);

/// As Run, but for pre-sorted inputs (no copies, no sorting).
Result<KsOutcome> RunSorted(const std::vector<double>& r_sorted,
                            const std::vector<double>& t_sorted, double alpha);

}  // namespace ks

/// Re-tests R against T \ S for evolving removal sets S without re-sorting.
///
/// The test runs over the rank frame of R and T (ks/rank_walk.h), not over
/// R u T: q <= 2 * distinct(T) + 1 points, each with its C_R and its count
/// of T copies. Removals only lower C_T at window values, so C_T stays
/// constant along every reference-only run and the frame keeps every point
/// at which |F_R - F_T| can first reach its maximum. Statistic, threshold
/// and reject are bit-identical to ks::RunSorted(R, T \ S), and the
/// location is the same value (a -0.0/+0.0 tie may carry either sign).
///
/// Construction is O(n log n + m log m) (the sorts; the walk itself is
/// O(m log(n/m)) once n >= m). Each RemoveValue / UnremoveValue is O(log q),
/// each CurrentOutcome O(q) with q <= 2m + 1, independent of n. Retained
/// memory is O(m). This is the workhorse of the greedy-style baselines and
/// the brute-force oracle, which repeatedly grow a removal set and re-run
/// the test.
class RemovalKs {
 public:
  /// Builds the rank frame from (unsorted) samples. R must be non-empty and
  /// alpha must satisfy ks::ValidateAlpha — validate before constructing
  /// (the greedy baselines do); violations are caught by MOCHE_DCHECK in
  /// debug builds only.
  RemovalKs(const std::vector<double>& r, const std::vector<double>& t,
            double alpha);

  /// Marks one occurrence of `value` in T as removed.
  /// Returns InvalidArgument if all occurrences are already removed or the
  /// value does not occur in T.
  Status RemoveValue(double value);

  /// Undoes one RemoveValue of `value`.
  Status UnremoveValue(double value);

  /// Clears the removal set.
  void Reset();

  /// KS outcome of R vs T \ S for the current removal set S.
  ///
  /// When the removal set has consumed all of T (|T \ S| = 0), the outcome
  /// is the degenerate one-empty-sample convention of StatisticSorted:
  /// D = 1, reject = true, threshold = 0 (the threshold formula diverges at
  /// m = 0), location = the smallest reference value (where |F_R - F_empty|
  /// first reaches 1). Greedy callers that strip the whole test set
  /// therefore see a well-defined "still failing" result instead of a
  /// crash.
  KsOutcome CurrentOutcome() const;

  /// True iff R and T \ S pass the test at the configured alpha. False when
  /// the whole test set has been removed (see CurrentOutcome).
  bool Passes() const;

  size_t num_removed() const { return removed_total_; }
  size_t n() const { return n_; }
  size_t m() const { return m_; }
  double alpha() const { return alpha_; }

  /// The remaining test multiset T \ S (ascending).
  std::vector<double> RemainingTest() const;

 private:
  double alpha_;
  size_t n_ = 0;
  size_t m_ = 0;
  double front_ = 0.0;               // R's smallest value
  std::vector<double> values_;       // rank-frame values, ascending
  std::vector<double> cum_r_d_;      // C_R at values_[i], as double
  std::vector<int64_t> count_t_;     // multiplicity of values_[i] in T
  std::vector<int64_t> removed_;     // multiplicity removed from T
  size_t removed_total_ = 0;
};

}  // namespace moche

#endif  // MOCHE_KS_KS_TEST_H_
