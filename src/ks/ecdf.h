// Empirical cumulative distribution functions.
//
// Ownership & thread-safety: an Ecdf owns a sorted copy of its sample and
// is immutable after construction — concurrent Evaluate calls on a shared
// instance are safe. EcdfRmse is a pure function of caller-owned samples.

#ifndef MOCHE_KS_ECDF_H_
#define MOCHE_KS_ECDF_H_

#include <cstddef>
#include <vector>

namespace moche {

/// The empirical CDF of a finite sample: F(x) = |{v in sample : v <= x}| / n.
///
/// Construction sorts a copy of the sample once; evaluation is a binary
/// search. The sample must be non-empty for Evaluate to be meaningful.
///
/// A sample containing NaN has no order statistics. Such a sample poisons
/// the Ecdf: construction skips the sort and Evaluate always returns NaN.
class Ecdf {
 public:
  /// Builds from an arbitrary-order sample (copied and sorted).
  explicit Ecdf(std::vector<double> sample);

  /// F(x): fraction of sample points <= x. Returns NaN for an empty sample
  /// (no distribution function exists; 0 would be a valid CDF value) and
  /// for a sample that contained NaN.
  double Evaluate(double x) const;

  /// Number of sample points.
  size_t size() const { return sorted_.size(); }

  /// The sample in ascending order. Unspecified order if the sample
  /// contained NaN (see class comment).
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
  bool has_nan_ = false;
};

/// Root mean square error between the ECDFs of two samples, evaluated at
/// every point of the merged multiset (n + m evaluation points, repeats
/// included), as used by the paper's effectiveness metric (Section 6.3):
///   RMSE = sqrt( sum_{x in R (+) T'} (F_R(x) - F_T'(x))^2 / (|R| + |T'|) ).
/// Inputs may be in any order. Returns NaN if either sample is empty — the
/// error against a nonexistent ECDF is undefined, and the old 0.0 read as
/// "distributions identical".
double EcdfRmse(const std::vector<double>& r, const std::vector<double>& t);

}  // namespace moche

#endif  // MOCHE_KS_ECDF_H_
