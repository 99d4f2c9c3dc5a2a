#include "ks/ecdf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/sort.h"

namespace moche {

namespace {

bool ContainsNan(const std::vector<double>& v) {
  for (double x : v) {
    if (std::isnan(x)) return true;
  }
  return false;
}

}  // namespace

Ecdf::Ecdf(std::vector<double> sample)
    : sorted_(std::move(sample)), has_nan_(ContainsNan(sorted_)) {
  // A NaN observation has no rank, so a poisoned sample is left unsorted
  // and Evaluate reports NaN instead.
  if (has_nan_) return;
  SortDoubles(sorted_.data(), sorted_.size());
}

double Ecdf::Evaluate(double x) const {
  // An empty sample has no distribution function; 0.0 would silently read
  // as "F(x) = 0 everywhere", which is a valid CDF value.
  if (sorted_.empty() || has_nan_) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EcdfRmse(const std::vector<double>& r, const std::vector<double>& t) {
  // 0.0 here would silently read as "distributions identical"; there is no
  // ECDF to compare against on an empty side, so the error is undefined.
  if (r.empty() || t.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // A NaN observation has no rank: the merge walk below would spin
  // forever on `rs[i] == x` never holding. Poison the metric instead.
  if (ContainsNan(r) || ContainsNan(t)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<double> rs = r;
  std::vector<double> ts = t;
  SortDoubles(rs.data(), rs.size());
  SortDoubles(ts.data(), ts.size());
  const double n = static_cast<double>(rs.size());
  const double m = static_cast<double>(ts.size());

  // Walk the merged multiset; at each evaluation point both ECDFs are the
  // counts of elements <= that point.
  double sum_sq = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < rs.size() || j < ts.size()) {
    double x;
    if (j >= ts.size() || (i < rs.size() && rs[i] <= ts[j])) {
      x = rs[i];
    } else {
      x = ts[j];
    }
    size_t reps = 0;
    while (i < rs.size() && rs[i] == x) {
      ++i;
      ++reps;
    }
    while (j < ts.size() && ts[j] == x) {
      ++j;
      ++reps;
    }
    const double fr = static_cast<double>(i) / n;
    const double ft = static_cast<double>(j) / m;
    sum_sq += static_cast<double>(reps) * (fr - ft) * (fr - ft);
  }
  return std::sqrt(sum_sq / (n + m));
}

}  // namespace moche
