#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace moche {

namespace {

// NaN breaks the strict weak ordering std::sort requires (UB), so every
// sorting entry point screens for it and propagates NaN instead.
bool ContainsNan(const std::vector<double>& v) {
  for (double x : v) {
    if (std::isnan(x)) return true;
  }
  return false;
}

}  // namespace

bool AllFinite(const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) return false;
  }
  return true;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double mu = Mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - mu) * (x - mu);
  return ss / static_cast<double>(v.size() - 1);
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  if (ContainsNan(v)) return std::numeric_limits<double>::quiet_NaN();
  p = std::clamp(p, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Exact positions and equal neighbors return the order statistic itself:
  // the interpolation arithmetic would produce NaN on infinities
  // (0 * inf, inf - inf).
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

FiveNumberSummary Summarize(const std::vector<double>& v) {
  FiveNumberSummary s;
  if (v.empty()) return s;
  if (ContainsNan(v)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    s.min = s.q1 = s.median = s.q3 = s.max = s.mean = nan;
    return s;
  }
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.q1 = Quantile(sorted, 0.25);
  s.median = Quantile(sorted, 0.5);
  s.q3 = Quantile(sorted, 0.75);
  s.mean = Mean(v);
  return s;
}

void ZNormalize(std::vector<double>* v) {
  const double mu = Mean(*v);
  const double sd = StdDev(*v);
  if (sd < 1e-12) {
    std::fill(v->begin(), v->end(), 0.0);
    return;
  }
  for (double& x : *v) x = (x - mu) / sd;
}

}  // namespace moche
