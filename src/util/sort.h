// One sort for double samples: every reference and test window that the
// KS layer (src/ks) and MOCHE (src/core) read C_R / C_T off is sorted by
// SortDoubles.
//
// The order is the one of the order-preserving 64-bit key (DoubleSortKey):
// flip every bit of a negative double, set the sign bit of a non-negative
// one, and compare the results as unsigned integers. That order is total on
// every bit pattern:
//
//   -NaN (by payload) < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN
//
// so the sorted bits depend only on the multiset of input bits — never on
// the input permutation or the standard library (std::sort leaves mixed
// -0.0/+0.0 in whatever order its partitioning happens to produce). On
// everything but ±0 and NaN the order is operator<, so a NaN-free
// SortDoubles output is std::is_sorted and interchangeable with a std::sort
// output wherever values are only compared.
//
// SortDoubles is an in-place MSD radix sort (American flag, 11-bit digits)
// that starts each range at its highest differing key bit and returns from
// a range whose keys are all equal. A range of at most kSortSmallRange
// values (a w = 1000 test window among them) is sorted through its keys in
// a stack buffer instead: by insertion or std::sort up to 128 values, else
// by an LSD radix sort on bytes. Every path orders by the same key, so the output
// bits do not depend on which one ran. It allocates nothing: its scratch
// is about 40 KB of stack per radix level, and a level consumes 11 of the
// 64 key bits, so at most six levels are live at once.
//
// Ownership & thread-safety: free functions over caller-owned memory; no
// shared state, so concurrent calls on disjoint ranges are safe.

#ifndef MOCHE_UTIL_SORT_H_
#define MOCHE_UTIL_SORT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace moche {

/// The order-preserving key of `x`: unsigned comparison of keys is the
/// total order documented above.
inline uint64_t DoubleSortKey(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint64_t sign = uint64_t{1} << 63;
  // All ones for a negative (sign bit set), else just the sign bit.
  return bits ^ ((uint64_t{0} - (bits >> 63)) | sign);
}

/// Ranges of at most this many values are sorted through their keys in a
/// stack buffer; larger ones take an in-place radix pass.
inline constexpr size_t kSortSmallRange = 1024;

/// Sorts data[0, n) ascending by DoubleSortKey, in place. Any bit pattern
/// is allowed (NaN payloads go to the ends); n = 0 and n = 1 are no-ops.
void SortDoubles(double* data, size_t n);

}  // namespace moche

#endif  // MOCHE_UTIL_SORT_H_
