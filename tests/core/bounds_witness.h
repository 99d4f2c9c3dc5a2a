// Test-side companions of core/bounds.h: the Equation 4 bounds as owned
// vectors, and the Theorem 1 sufficiency construction that turns them into
// a witness cumulative vector and the subset it denotes. No library path
// needs a witness (MOCHE only needs the size, then builds the explanation
// by Theorem 3), so these live beside the tests: bounds_test checks them
// on the paper's examples and bounds_engine_fuzz checks each witness is a
// genuine size-h sub-multiset of T.
//
// Ownership & thread-safety: free functions over a borrowed, immutable
// BoundsEngine; every result is returned by value.

#ifndef MOCHE_TESTS_CORE_BOUNDS_WITNESS_H_
#define MOCHE_TESTS_CORE_BOUNDS_WITNESS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "util/status.h"

namespace moche {

/// Per-coordinate bounds of Equation 4 for one subset size h.
/// Entry 0 is the constant C[0] = 0 (l[0] = u[0] = 0).
struct BoundsVectors {
  std::vector<int64_t> lower;  // length q+1
  std::vector<int64_t> upper;  // length q+1
};

inline BoundsVectors ComputeBounds(const BoundsEngine& engine, size_t h) {
  BoundsVectors b;
  engine.ComputeBoundsInto(h, &b.lower, &b.upper);
  return b;
}

/// Constructs an actual qualified h-cumulative vector via the Theorem 1
/// sufficiency argument, or NotFound when none exists.
inline Result<std::vector<int64_t>> ConstructQualifiedVector(
    const BoundsEngine& engine, size_t h) {
  const CumulativeFrame& frame = engine.frame();
  const size_t q = frame.q();
  const BoundsVectors b = ComputeBounds(engine, h);
  for (size_t i = 1; i <= q; ++i) {
    if (b.lower[i] > b.upper[i]) {
      return Status::NotFound("no qualified cumulative vector at this size");
    }
  }
  // Theorem 1 sufficiency: start from C[q] = u_q and walk down, keeping
  // 0 <= C[i] - C[i-1] <= C_T[i] - C_T[i-1].
  std::vector<int64_t> cum(q + 1, 0);
  cum[q] = b.upper[q];
  for (size_t i = q; i >= 1; --i) {
    const int64_t lo_step = cum[i] - frame.CountT(i);  // C[i-1] >= this
    const int64_t lo = std::max(b.lower[i - 1], lo_step);
    const int64_t hi = std::min(b.upper[i - 1], cum[i]);
    if (lo > hi) {
      return Status::Internal(
          "Theorem 1 construction failed; bounds are inconsistent");
    }
    cum[i - 1] = lo;
  }
  if (cum[0] != 0) {
    return Status::Internal("constructed vector does not start at 0");
  }
  if (cum[q] != static_cast<int64_t>(h)) {
    return Status::Internal("constructed vector has the wrong cardinality");
  }
  return cum;
}

/// Expands a cumulative vector into the multiset of values it denotes
/// (x_i repeated C[i]-C[i-1] times).
inline std::vector<double> VectorToSubset(const CumulativeFrame& frame,
                                          const std::vector<int64_t>& cum) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(cum[frame.q()]));
  for (size_t i = 1; i <= frame.q(); ++i) {
    for (int64_t c = cum[i - 1]; c < cum[i]; ++c) {
      out.push_back(frame.Value(i));
    }
  }
  return out;
}

}  // namespace moche

#endif  // MOCHE_TESTS_CORE_BOUNDS_WITNESS_H_
