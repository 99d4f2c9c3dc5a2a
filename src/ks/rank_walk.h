// The window-compressed rank frame: the points of the two-sample merge of
// a sorted reference R (size n) and a sorted test window T (size m) at
// which a KS statistic or a MOCHE bound can bind, read from R by rank
// searches instead of a merge over all of R.
//
// Along a maximal run of reference-only values (no T value among them),
// C_T is constant and C_R strictly rises, so C_R/n - C_T/m is increasing:
// |F_R - F_T| peaks at one end of the run, and the paper's Gamma(i,h)
// (Equation 4) falls along it, so only the run's last value can bind an
// upper bound while the prefix maximum is already set before the run. The
// walk therefore emits, in ascending value order:
//   * each distinct window value x, with C_R = rank_<=(x);
//   * just before x, the largest reference value below it, with
//     C_R = rank_<(x), when a reference-only run lies there;
//   * the last reference value, with C_R = n, when a trailing run exists.
// That is q <= 2 * distinct(T) + 1 points. Each point carries the
// representation the full merge would report: a value present in both
// samples is R's copy (the merge takes r[i] when r[i] <= t[j]), and a
// value repeated in R is its first copy, so a -0.0/+0.0 pair keeps its
// sign bit. Every rank is a galloping (exponential, then binary) search
// from the previous one, so a walk over d distinct window values costs
// O(m + d log(n/d)) comparisons — O(m log(n/m)) once n >= m, and never
// asymptotically more than the O(n + m) merge — so one walk serves every
// size.
//
// Ownership & thread-safety: pure functions that own nothing; they read
// borrowed arrays and never write them, so concurrent walks are safe.

#ifndef MOCHE_KS_RANK_WALK_H_
#define MOCHE_KS_RANK_WALK_H_

#include <algorithm>
#include <cstddef>

namespace moche {
namespace ks {

namespace internal {

/// The first index in [from, size) at which `below` is false, for a
/// predicate true on a prefix of the ascending array `v` (size when it
/// never fails): an exponential search from `from`, then a binary search
/// inside the bracket it found. O(log d) for an answer d past `from`.
template <typename Below>
size_t GallopFrom(const double* v, size_t from, size_t size, Below below) {
  size_t lo = from;  // below holds on [from, lo)
  size_t hi = from;  // the next probe
  size_t step = 1;
  while (hi < size && below(v[hi])) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  return static_cast<size_t>(
      std::partition_point(v + lo, v + std::min(hi, size), below) - v);
}

/// The first index of the group of copies equal to v[last] within
/// [from, last] — where the merge reports that group.
inline size_t GroupStart(const double* v, size_t from, size_t last) {
  if (last == from || v[last - 1] != v[last]) return last;
  const double x = v[last];
  return static_cast<size_t>(
      std::partition_point(v + from, v + last,
                           [x](double e) { return e < x; }) -
      v);
}

}  // namespace internal

/// Walks the compressed frame of ascending, NaN-free r[0..n) and t[0..m),
/// calling emit(value, c_r, c_t) once per point in ascending value order
/// (c_r and c_t are size_t counts of R and T values <= value). Emits
/// nothing when m == 0.
template <typename Emit>
void WalkRankFrame(const double* r, size_t n, const double* t, size_t m,
                   Emit&& emit) {
  size_t rank = 0;  // C_R of the last emitted point
  size_t j = 0;
  while (j < m) {
    const double x = t[j];
    const size_t lt =
        internal::GallopFrom(r, rank, n, [x](double v) { return v < x; });
    if (lt > rank) {
      emit(r[internal::GroupStart(r, rank, lt - 1)], lt, j);
    }
    // r[lt..] >= x, so "v <= x" is "v == x" from here on.
    const size_t le =
        internal::GallopFrom(r, lt, n, [x](double v) { return v <= x; });
    size_t j_end = j + 1;
    while (j_end < m && t[j_end] == x) ++j_end;
    emit(le > lt ? r[lt] : x, le, j_end);
    rank = le;
    j = j_end;
  }
  if (m > 0 && rank < n) {
    emit(r[internal::GroupStart(r, rank, n - 1)], n, m);
  }
}

}  // namespace ks
}  // namespace moche

#endif  // MOCHE_KS_RANK_WALK_H_
