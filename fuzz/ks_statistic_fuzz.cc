// Differential oracle: ks::Statistic / StatisticSorted and RemovalKs's
// re-tests against a naive double-loop ECDF reference, and SortDoubles
// against std::sort by the same key.
//
// The reference recomputes D(R,T) the textbook way — for every grid value
// x, count r <= x and t <= x with two linear scans and take
// max |cnt_r/n - cnt_t/m| with the first-strict-max location tie-break.
// The divisions are the same IEEE operations in the same order the library
// sweep performs, and a max over the same multiset of finite doubles is
// order-insensitive, so agreement is required BIT-EXACTLY (memcmp), not
// within a tolerance. Any last-ulp divergence here would move the
// corpus-dump md5 one layer up.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"
#include "util/sort.h"

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
  double alpha = 0.05;
  if (!r.empty() && !t.empty()) {
    alpha = in.Alpha();
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

  // RemovalKs over a removal schedule drawn after everything above (so
  // existing seeds decode to the same R and T): after every step its
  // outcome must match the textbook scan of R against the remaining test
  // multiset, which is tracked here independently of the class.
  if (!r.empty()) {
    moche::RemovalKs removal(r, t, alpha);
    std::vector<double> remaining = t;
    std::vector<double> removed;
    const size_t steps = in.SizeInRange(0, 64);
    for (size_t step = 0; step < steps; ++step) {
      const uint8_t op = in.Byte();
      if (op % 8 == 0) {
        removal.Reset();
        remaining = t;
        removed.clear();
      } else {
        // Mostly T values; op % 8 == 1 picks an R value, which T may not
        // hold.
        const std::vector<double>& source = op % 8 == 1 || t.empty() ? r : t;
        const double value = source[in.SizeInRange(0, source.size() - 1)];
        const bool remove = op % 8 < 6;
        std::vector<double>& from = remove ? remaining : removed;
        std::vector<double>& to = remove ? removed : remaining;
        const auto it = std::find(from.begin(), from.end(), value);
        const bool ok = remove ? removal.RemoveValue(value).ok()
                               : removal.UnremoveValue(value).ok();
        MOCHE_FUZZ_CHECK(ok == (it != from.end()),
                         "RemovalKs %s(%.17g) returned ok=%d",
                         remove ? "RemoveValue" : "UnremoveValue", value, ok);
        if (ok) {
          to.push_back(*it);
          from.erase(it);
        }
      }
      const std::vector<double> rest = removal.RemainingTest();
      std::vector<double> want_rest = remaining;
      std::sort(want_rest.begin(), want_rest.end());
      MOCHE_FUZZ_CHECK(rest == want_rest,
                       "RemovalKs RemainingTest differs from T \\ S "
                       "(%zu vs %zu values)",
                       rest.size(), want_rest.size());
      double want_loc = 0.0;
      const double want = NaiveStatistic(r, rest, &want_loc);
      const moche::KsOutcome got = removal.CurrentOutcome();
      MOCHE_FUZZ_CHECK(SameBits(got.statistic, want),
                       "RemovalKs D %.17g != naive %.17g (step %zu)",
                       got.statistic, want, step);
      MOCHE_FUZZ_CHECK(got.location == want_loc,
                       "RemovalKs location %.17g != naive %.17g",
                       got.location, want_loc);
      MOCHE_FUZZ_CHECK(got.n == r.size() && got.m == rest.size(),
                       "RemovalKs sizes n=%zu m=%zu mismatch", got.n, got.m);
      if (rest.empty()) {
        MOCHE_FUZZ_CHECK(got.reject && got.threshold == 0.0,
                         "RemovalKs with T fully removed must reject");
      } else {
        const auto threshold =
            moche::ks::Threshold(alpha, r.size(), rest.size());
        MOCHE_FUZZ_CHECK(
            threshold.ok() && SameBits(got.threshold, *threshold),
            "RemovalKs threshold %.17g is not ks::Threshold", got.threshold);
        MOCHE_FUZZ_CHECK(got.reject == (got.statistic > got.threshold),
                         "RemovalKs reject disagrees with D > p");
      }
    }
  }

  // SortDoubles against std::sort by the same key, bit for bit, on R and T
  // (±0.0, denormals, ties) laced with raw bit patterns (NaN payloads,
  // ±Inf) and tiled so the larger draws cross kSortSmallRange into
  // the radix path. Drawn last, so existing seeds decode as before.
  std::vector<double> sample = r;
  sample.insert(sample.end(), t.begin(), t.end());
  const size_t raw = in.SizeInRange(0, 16);
  for (size_t i = 0; i < raw; ++i) sample.push_back(in.RawDouble());
  const size_t copies = in.SizeInRange(1, 24);
  std::vector<double> got;
  for (size_t c = 0; c < copies; ++c) {
    got.insert(got.end(), sample.begin(), sample.end());
  }
  std::vector<double> want = got;
  std::sort(want.begin(), want.end(), [](double a, double b) {
    return moche::DoubleSortKey(a) < moche::DoubleSortKey(b);
  });
  moche::SortDoubles(got.data(), got.size());
  MOCHE_FUZZ_CHECK(std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(double)) == 0,
                   "SortDoubles differs from the key-order oracle (n=%zu)",
                   got.size());
  return 0;
}
