// ExplainWorkspace: the reusable scratch arena behind the zero-allocation
// explain pipeline.
//
// One MOCHE explanation needs a sorted copy of the test window, a
// CumulativeFrame (the explanation's one rank walk over R and T: at most
// 2m + 1 points whatever n is), the BoundsEngine's flattened coefficient
// arrays (which the KS decisions sweep too), the phase-2 builder/checker
// buffers, and the C_T - C_I vector of the final check — all O(m). The
// one-shot entry points allocate all
// of that per call — fine for a single explanation, pure churn for the
// paper's Section 6 workloads (and the stream monitor), which explain
// thousands of windows against one prepared reference. An ExplainWorkspace
// owns every one of those buffers; Moche::ExplainPreparedInto (and friends)
// rebuild them in place, so after the first call on a given instance size
// the steady state performs no heap allocation at all. The buffers only
// ever grow (capacity is never released short of destroying the
// workspace); FootprintBytes reports the high-water mark.
//
// Ownership & thread-affinity: a workspace is mutable per-caller scratch —
// share the Moche engine and the PreparedReference across threads, never a
// workspace. The per-worker pools in harness::RunMethods and
// stream::DriftMonitor hand each worker thread its own instance. The
// internal engine/checker members borrow the workspace's own frame only
// within a single Into call (every call rebinds them before use), so moving
// a workspace between calls is safe; using one mid-call is not.

#ifndef MOCHE_CORE_WORKSPACE_H_
#define MOCHE_CORE_WORKSPACE_H_

#include <vector>

#include "core/bounds.h"
#include "core/builder.h"
#include "core/cumulative.h"

namespace moche {

class ExplainWorkspace {
 public:
  ExplainWorkspace() = default;

  // Scratch is cheap to move (pointers swap) but a silent deep copy is
  // never what a caller wants. Every buffer is O(m) except
  // reference_sorted_, which only the raw-R entry points fill (O(n)).
  ExplainWorkspace(const ExplainWorkspace&) = delete;
  ExplainWorkspace& operator=(const ExplainWorkspace&) = delete;
  ExplainWorkspace(ExplainWorkspace&&) = default;
  ExplainWorkspace& operator=(ExplainWorkspace&&) = default;

  /// Heap bytes currently retained by the workspace's buffers (capacities,
  /// not sizes). Monotone non-decreasing across calls, so this doubles as
  /// the arena's high-water mark — DriftMonitor::stats() aggregates it as
  /// the workspace-pool footprint.
  size_t FootprintBytes() const {
    return (reference_sorted_.capacity() + test_sorted_.capacity() +
            cum_after_.capacity()) *
               sizeof(double) +
           frame_.FootprintBytes() + engine_.FootprintBytes() +
           build_.FootprintBytes();
  }

 private:
  friend class Moche;

  std::vector<double> reference_sorted_;  // sorted R of the raw-R entry points
  std::vector<double> test_sorted_;
  CumulativeFrame frame_;
  BoundsEngine engine_;
  BuildScratch build_;
  std::vector<double> cum_after_;  // C_T - C_I over the frame, for T \ I
};

}  // namespace moche

#endif  // MOCHE_CORE_WORKSPACE_H_
