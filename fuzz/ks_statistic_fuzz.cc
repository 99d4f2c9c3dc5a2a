// Differential oracle: ks::Statistic / StatisticSorted against a naive
// double-loop ECDF reference.
//
// The reference recomputes D(R,T) the textbook way — for every grid value
// x, count r <= x and t <= x with two linear scans and take
// max |cnt_r/n - cnt_t/m| with the first-strict-max location tie-break.
// The divisions are the same IEEE operations in the same order the library
// sweep performs, and a max over the same multiset of finite doubles is
// order-insensitive, so agreement is required BIT-EXACTLY (memcmp), not
// within a tolerance. Any last-ulp divergence here would break the SIMD
// bit-identity contract one layer up.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Textbook D(R,T) over the sorted union grid; mirrors the documented
// degenerate conventions (D = 1 with one empty sample, D = 0, location 0.0
// with two).
double NaiveStatistic(const std::vector<double>& r,
                      const std::vector<double>& t, double* location) {
  *location = 0.0;
  if (r.empty() && t.empty()) return 0.0;
  if (r.empty() || t.empty()) {
    const std::vector<double>& s = r.empty() ? t : r;
    *location = *std::min_element(s.begin(), s.end());
    return 1.0;
  }
  std::vector<double> grid;
  grid.reserve(r.size() + t.size());
  grid.insert(grid.end(), r.begin(), r.end());
  grid.insert(grid.end(), t.begin(), t.end());
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  const double n = static_cast<double>(r.size());
  const double m = static_cast<double>(t.size());
  double best = 0.0;
  // The library's D == 0 sentinel is the smallest reference value.
  *location = *std::min_element(r.begin(), r.end());
  for (double x : grid) {
    double cnt_r = 0.0;
    double cnt_t = 0.0;
    for (double v : r) cnt_r += (v <= x) ? 1.0 : 0.0;
    for (double v : t) cnt_t += (v <= x) ? 1.0 : 0.0;
    const double d = std::fabs(cnt_r / n - cnt_t / m);
    if (d > best) {
      best = d;
      *location = x;
    }
  }
  return best;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  // Empty samples are legal for the Statistic* primitives (degenerate
  // conventions), so sizes start at 0 — but mostly non-empty.
  const size_t n = in.SizeInRange(0, 48);
  const size_t m = in.SizeInRange(0, 48);
  std::vector<double> r;
  std::vector<double> t;
  if (in.Bool()) {
    // Tie-heavy shared alphabet: duplicate values across and within samples.
    const int alphabet = static_cast<int>(in.SizeInRange(1, 10));
    in.TiedArray(n, alphabet, &r);
    in.TiedArray(m, alphabet, &t);
  } else {
    in.FiniteArray(n, &r);
    in.FiniteArray(m, &t);
  }

  double naive_loc = 0.0;
  const double naive = NaiveStatistic(r, t, &naive_loc);

  double lib_loc = 0.0;
  const double lib = moche::ks::Statistic(r, t, &lib_loc);
  MOCHE_FUZZ_CHECK(SameBits(lib, naive),
                   "Statistic %.17g != naive %.17g (n=%zu m=%zu)", lib, naive,
                   n, m);
  // Locations compare by value, not bits: a ±0.0 tie collapses to one grid
  // point whose sign depends on which sample supplied it first.
  MOCHE_FUZZ_CHECK(lib_loc == naive_loc,
                   "Statistic location %.17g != naive %.17g", lib_loc,
                   naive_loc);

  // The sorted variant must agree bit-exactly with Statistic.
  std::vector<double> r_sorted = r;
  std::vector<double> t_sorted = t;
  std::sort(r_sorted.begin(), r_sorted.end());
  std::sort(t_sorted.begin(), t_sorted.end());
  double sorted_loc = 0.0;
  const double sorted =
      moche::ks::StatisticSorted(r_sorted, t_sorted, &sorted_loc);
  MOCHE_FUZZ_CHECK(SameBits(sorted, naive),
                   "StatisticSorted %.17g != naive %.17g", sorted, naive);
  MOCHE_FUZZ_CHECK(sorted_loc == naive_loc,
                   "StatisticSorted location %.17g != naive %.17g",
                   sorted_loc, naive_loc);

  // The full three-step test: reject must be exactly D > threshold.
  if (!r.empty() && !t.empty()) {
    const double alpha = in.Alpha();
    auto run = moche::ks::Run(r, t, alpha);
    MOCHE_FUZZ_CHECK(run.ok(), "ks::Run rejected a valid instance: %s",
                     run.status().message().c_str());
    MOCHE_FUZZ_CHECK(SameBits(run->statistic, naive),
                     "Run statistic %.17g != naive %.17g", run->statistic,
                     naive);
    MOCHE_FUZZ_CHECK(run->reject == (run->statistic > run->threshold),
                     "reject flag disagrees with D > p (D=%.17g p=%.17g)",
                     run->statistic, run->threshold);
    MOCHE_FUZZ_CHECK(run->n == r.size() && run->m == t.size(),
                     "outcome sizes n=%zu m=%zu mismatch", run->n, run->m);
  }
  return 0;
}
