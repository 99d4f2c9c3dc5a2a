// Runtime-dispatched SIMD kernels for the bounds/KS hot loops.
//
// The library's inner loops — the Theorem 1/2 fast-filter scans, the merged
// ECDF sweeps, and batch validation — stream flat double/int64 arrays. This
// shim exposes those loops as a table of function pointers (`Kernels`) with
// three implementations: a portable scalar reference, an AVX2 path
// (x86-64), and a NEON path (aarch64). The table is selected exactly once,
// at first use, from the CPU's capabilities; `MOCHE_SIMD=scalar` (or
// `avx2`/`neon`, when available) overrides the choice for A/B runs and the
// forced-scalar CI leg. Unknown values fall back to scalar.
//
// Bit-identity contract: every vector kernel is REQUIRED to produce results
// bit-identical to the scalar reference on all finite inputs — same
// doubles, same indices, same booleans. The kernels achieve this by using
// only lane-wise IEEE-754 operations in the same order the scalar loop
// applies them (add/sub/mul/div/max/compare are correctly rounded per lane,
// so four lanes of vaddpd equal four scalar adds), by never using FMA (the
// build sets -ffp-contract=off so scalar code cannot silently fuse either),
// and by handling order-sensitive reductions (prefix max, first-strict-max
// argmax) with exact lane arithmetic rather than reassociation: a max tree
// over distinct finite doubles is order-insensitive, and first-index
// tie-breaks are recomputed from the lane mask. The scalar-vs-SIMD parity
// suite (tests/util/simd_test.cc) fuzzes every kernel on tie-heavy,
// denormal, and ±0.0 inputs, and the 399-instance corpus-dump gate checks
// the end-to-end pipeline (docs/BENCHMARKS.md).
//
// Adding a kernel: add the function pointer here, the scalar reference in
// simd.cc (it IS the spec — byte-for-byte the loop it replaced), the
// vector paths in simd_avx2.cc / simd_neon.cc (fall back to the scalar
// pointer if a port is not worth it), wire all tables, and extend the
// parity suite. Nothing else needs to change: callers reach kernels only
// through ActiveKernels().
//
// Thread-safety: dispatch is a magic static; the tables are immutable.
// Kernels are pure functions of their arguments.
//
// Ownership & thread-safety: the kernel tables are immutable statics owned
// by the process; ActiveKernels resolves the dispatch once and every kernel
// is a pure function over caller-provided buffers, so all of this is safe
// from any thread.

#ifndef MOCHE_UTIL_SIMD_H_
#define MOCHE_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace moche {
namespace simd {

enum class Isa {
  kScalar = 0,
  kAvx2,
  kNeon,
};

/// "scalar", "avx2", "neon" — stable strings, recorded in BENCH_*.json.
const char* IsaName(Isa isa);

/// The instruction set selected at startup (CPU capability, then the
/// MOCHE_SIMD override). Never changes during the process lifetime.
Isa ActiveIsa();
const char* ActiveIsaName();

/// The vectorized inner loops. All pointers are non-null in every table.
struct Kernels {
  /// The Theorem 1 fast-filter scan over coordinates [begin, end) of the
  /// engine's structure-of-arrays coefficient view (ct_d = C_T[i],
  /// cr_d = C_R[i], rigid_d = C_T[i] - m, all as doubles):
  ///   gamma_i = ct_d[i] - scale * cr_d[i]
  ///   M_i     = max(M_{i-1}, gamma_i)          (prefix max, seeded by
  ///                                             *running_max on entry)
  ///   pass_i  = M_i - omega <= min(ct_d[i], hh_d)
  ///          && gamma_i + omega >= max(hh_d + rigid_d[i], 0.0)
  ///          && (gamma_i + omega) - (M_i - omega) >= 1.0
  /// Returns the first i with !pass_i, or `end` when every coordinate
  /// passes. On return *running_max is the prefix max of gamma over
  /// [begin, i] (inclusive of the failing coordinate), so the caller can
  /// run the exact integer-rounding path at i and resume at i + 1.
  size_t (*theorem1_filter_scan)(const double* ct_d, const double* cr_d,
                                 const double* rigid_d, size_t begin,
                                 size_t end, double scale, double omega,
                                 double hh_d, double* running_max);

  /// The Theorem 2 (Equation 5) fast-filter scan, same conventions:
  ///   pass_i = gamma_i + omega >= 0.0
  ///         && M_i - omega <= hh_d
  ///         && M_i - omega <= gamma_i + omega
  size_t (*theorem2_filter_scan)(const double* ct_d, const double* cr_d,
                                 size_t begin, size_t end, double scale,
                                 double omega, double hh_d,
                                 double* running_max);

  /// The ECDF sweep over q precomputed cumulative counts (as doubles):
  ///   d_i = |cum_r[i] / n - cum_t[i] / m|
  /// Returns max_i d_i with the scalar loop's first-strict-max tie-break:
  /// *best_index is the smallest i attaining the max, or left untouched
  /// when the max is 0.0 (no d_i ever exceeds the initial best of 0.0 —
  /// callers keep their "front value" location sentinel for that case).
  double (*ecdf_sweep_cum)(const double* cum_r, const double* cum_t,
                           size_t q, double n, double m, size_t* best_index);

  /// The RemovalKs sweep over its q <= 2m + 1 rank-frame points: cum_r is
  /// C_R per point (doubles), the test side is prefix-summed in the kernel
  /// from per-point counts:
  ///   cum_t_i = sum_{j<=i} (count_t[j] - removed[j])
  ///   d_i     = |cum_r_d[i] / n - double(cum_t_i) / m_rem|
  /// Same return/tie-break contract as ecdf_sweep_cum. Counts must stay
  /// below 2^52 (any real sample is; the int64 -> double conversion is
  /// exact there). The prefix sum stays fused: a separate prefix pass
  /// feeding ecdf_sweep_cum measured slower per re-test, because here the
  /// sum hides behind the sweep's divisions.
  double (*ecdf_sweep_counts)(const double* cum_r_d, const int64_t* count_t,
                              const int64_t* removed, size_t q, double n,
                              double m_rem, size_t* best_index);

  /// True iff every value is finite (no NaN/Inf). Empty ranges are finite.
  bool (*all_finite)(const double* values, size_t count);
};

/// The table matching ActiveIsa().
const Kernels& ActiveKernels();

/// The table for a specific ISA — the scalar table when `isa` is not
/// available on this machine/build. The parity tests use this to compare
/// implementations directly without re-execing under MOCHE_SIMD.
const Kernels& KernelsFor(Isa isa);

/// True when `isa` has a real (non-fallback) table in this build on this
/// CPU. kScalar is always available.
bool IsaAvailable(Isa isa);

namespace internal {
// Per-ISA tables, defined in their own translation units so only
// simd_avx2.cc is compiled with -mavx2. Null when the build targets a
// different architecture.
const Kernels* Avx2KernelsOrNull();
const Kernels* NeonKernelsOrNull();
}  // namespace internal

}  // namespace simd
}  // namespace moche

#endif  // MOCHE_UTIL_SIMD_H_
