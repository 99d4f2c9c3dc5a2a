// Descriptive statistics shared by the harness and the benches, and the
// finiteness check every validation path runs before a sort.
//
// Ownership & thread-safety: pure free functions over caller-owned vectors
// (by-value parameters are private copies); no shared state, safe from any
// thread. NaN inputs propagate to NaN results — they never reach a sort.

#ifndef MOCHE_UTIL_STATS_H_
#define MOCHE_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace moche {

/// True iff none of values[0, count) is NaN or +-Inf. An empty range is
/// finite. Every input gate (samples, batches, pushes, restored rings and
/// sketch levels) runs this before a value can reach std::sort.
bool AllFinite(const double* values, size_t count);

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& v);

/// Unbiased sample variance (n-1 denominator); 0 when fewer than 2 points.
double Variance(const std::vector<double>& v);

/// Square root of Variance().
double StdDev(const std::vector<double>& v);

/// Linear-interpolated quantile, p in [0, 1]; matches numpy's default.
/// The input does not need to be sorted. Returns 0 for an empty input.
/// NaN-propagating: any NaN in the input yields NaN (a NaN would break the
/// strict weak ordering std::sort requires, so the input is never sorted
/// with one). Mean/Variance/StdDev propagate NaN arithmetically already.
double Quantile(std::vector<double> v, double p);

/// Quantile(v, 0.5). NaN-propagating like Quantile.
double Median(std::vector<double> v);

/// The summary a box plot draws (paper Figure 6).
struct FiveNumberSummary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;  ///< Figure 6 also marks the mean
};

/// Computes the five-number summary (plus mean) of `v`. NaN-propagating
/// like Quantile: any NaN in the input yields a summary of all NaNs.
FiveNumberSummary Summarize(const std::vector<double>& v);

/// z-normalizes `v` in place: (x - mean) / stddev. A (near-)constant input
/// becomes all zeros instead of dividing by ~0.
void ZNormalize(std::vector<double>* v);

}  // namespace moche

#endif  // MOCHE_UTIL_STATS_H_
