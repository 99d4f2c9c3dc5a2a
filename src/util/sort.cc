#include "util/sort.h"

#include <algorithm>

namespace moche {

namespace {

constexpr int kDigitBits = 11;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;
// Small ranges (up to kSortSmallRange values) are sorted through their keys
// in a stack buffer: by insertion up to kInsertionCutoff values, by
// std::sort up to kKeySortCutoff, and above that by an LSD radix sort on
// bytes, which at w = 1000 takes about a third of std::sort's time.
constexpr size_t kInsertionCutoff = 16;
constexpr size_t kKeySortCutoff = 128;

// The inverse of DoubleSortKey.
double FromSortKey(uint64_t key) {
  const uint64_t sign = uint64_t{1} << 63;
  // A key with the sign bit clear came from a negative: flip every bit back.
  const uint64_t bits = key ^ ((uint64_t{0} - ((~key) >> 63)) | sign);
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

size_t Digit(double x, int shift) {
  return static_cast<size_t>((DoubleSortKey(x) >> shift) & kDigitMask);
}

// Stable LSD radix sort of keys[0, n) one byte at a time through `spare`
// (both hold at least n keys), skipping every byte all keys share. Returns
// whichever of the two buffers ends up holding the sorted keys.
uint64_t* SortKeysByBytes(uint64_t* keys, uint64_t* spare, size_t n) {
  uint32_t count[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 8; ++b) ++count[b][(keys[i] >> (8 * b)) & 0xFF];
  }
  for (int b = 0; b < 8; ++b) {
    const int shift = 8 * b;
    uint32_t* offset = count[b];
    if (offset[(keys[0] >> shift) & 0xFF] == n) continue;
    uint32_t start = 0;
    for (int d = 0; d < 256; ++d) {
      const uint32_t c = offset[d];
      offset[d] = start;
      start += c;
    }
    for (size_t i = 0; i < n; ++i) {
      spare[offset[(keys[i] >> shift) & 0xFF]++] = keys[i];
    }
    std::swap(keys, spare);
  }
  return keys;
}

void SortSmall(double* data, size_t n) {
  if (n <= kInsertionCutoff) {
    for (size_t i = 1; i < n; ++i) {
      const double x = data[i];
      const uint64_t key = DoubleSortKey(x);
      size_t j = i;
      for (; j > 0 && DoubleSortKey(data[j - 1]) > key; --j) {
        data[j] = data[j - 1];
      }
      data[j] = x;
    }
    return;
  }
  uint64_t keys[kSortSmallRange];
  uint64_t spare[kSortSmallRange];
  for (size_t i = 0; i < n; ++i) keys[i] = DoubleSortKey(data[i]);
  const uint64_t* sorted = keys;
  if (n <= kKeySortCutoff) {
    // moche-lint: allow(sort-doubles): uint64_t keys, whose operator< is total on every double bit pattern
    std::sort(keys, keys + n);
  } else {
    sorted = SortKeysByBytes(keys, spare, n);
  }
  for (size_t i = 0; i < n; ++i) data[i] = FromSortKey(sorted[i]);
}

// One American-flag pass: permutes data[0, n) so that Digit(x, shift) is
// non-decreasing, and writes the end offset of every bucket to
// bucket_end.
void PermuteByDigit(double* data, size_t n, int shift, size_t* bucket_end) {
  std::fill(bucket_end, bucket_end + kBuckets, size_t{0});
  for (size_t i = 0; i < n; ++i) ++bucket_end[Digit(data[i], shift)];
  size_t next[kBuckets];  // first unplaced slot of each bucket
  uint16_t live[kBuckets];  // buckets that still have unplaced slots
  size_t num_live = 0;
  size_t offset = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    next[b] = offset;
    if (bucket_end[b] != 0) live[num_live++] = static_cast<uint16_t>(b);
    offset += bucket_end[b];
    bucket_end[b] = offset;
  }
  // Each round walks the unplaced slots of every live bucket and swaps the
  // value there to the next unplaced slot of its own bucket. Every swap
  // places one value for good, and the four digits of an unrolled step are
  // independent loads, so only the cursor updates are serial.
  while (num_live > 0) {
    size_t kept = 0;
    for (size_t k = 0; k < num_live; ++k) {
      const size_t b = live[k];
      const size_t stop = bucket_end[b];
      size_t i = next[b];
      for (; i + 4 <= stop; i += 4) {
        const size_t d0 = Digit(data[i], shift);
        const size_t d1 = Digit(data[i + 1], shift);
        const size_t d2 = Digit(data[i + 2], shift);
        const size_t d3 = Digit(data[i + 3], shift);
        std::swap(data[i], data[next[d0]++]);
        std::swap(data[i + 1], data[next[d1]++]);
        std::swap(data[i + 2], data[next[d2]++]);
        std::swap(data[i + 3], data[next[d3]++]);
      }
      for (; i < stop; ++i) {
        std::swap(data[i], data[next[Digit(data[i], shift)]++]);
      }
      if (next[b] != stop) live[kept++] = static_cast<uint16_t>(b);
    }
    num_live = kept;
  }
}

void SortRange(double* data, size_t n) {
  if (n <= kSortSmallRange) {
    SortSmall(data, n);
    return;
  }
  const uint64_t first = DoubleSortKey(data[0]);
  uint64_t differ = 0;
  for (size_t i = 1; i < n; ++i) differ |= DoubleSortKey(data[i]) ^ first;
  if (differ == 0) return;  // every key equal: already sorted
  // The digit's top bit is the highest bit on which two keys differ, so no
  // pass is spent on a digit every key shares.
  int top = 63;
  while ((differ >> top) == 0) --top;
  const int shift = std::max(top - (kDigitBits - 1), 0);
  size_t bucket_end[kBuckets];
  PermuteByDigit(data, n, shift, bucket_end);
  if (shift == 0) return;  // the digit was the whole remaining key
  size_t start = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const size_t stop = bucket_end[b];
    if (stop - start > 1) SortRange(data + start, stop - start);
    start = stop;
  }
}

}  // namespace

void SortDoubles(double* data, size_t n) {
  if (n > 1) SortRange(data, n);
}

}  // namespace moche
