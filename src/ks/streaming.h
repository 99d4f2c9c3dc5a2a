// Incremental Kolmogorov-Smirnov testing over a sliding window, after
// dos Reis, Flach, Matwin & Batista, "Fast unsupervised online drift
// detection using incremental Kolmogorov-Smirnov test" (KDD 2016) — the
// paper's reference [17] and the standard substrate for KS-based drift
// monitors.
//
// A fixed reference sample R (size n) is compared against a sliding test
// window W of fixed capacity m through the integer score
//     s(x) = m * C_R(x) - n * C_W(x),   D(R, W) = max_x |s(x)| / (n * m),
// where C counts observations <= x. Between two window values s only
// grows (C_R steps up, C_W is flat), so its extremes over all sample
// points sit at a window value v or just below one:
//     le(v) = m * rank_<=(v) - n * C_W(<= v)
//     lt(v) = m * rank_<(v)  - n * C_W(< v)
// with the reference ranks read by binary search from a sorted reference.
// Only the window lives in the order-statistic treap — one node per
// distinct window value, caching le and lt. Inserting or evicting a copy
// of v moves le(v) by -+n and both scores of every key > v by -+n (one
// lazy range-add), and the subtree max/min aggregates give the statistic
// in O(1). max |s| is the same int64 a treap over R and W together would
// hold, so the statistic is bit-identical to that design while each push
// costs O(log n + log w) and a detector holds O(w) nodes.
//
// The reference is held as a shared, immutable, sorted vector: nothing
// per detector copies it. CreateOverSorted binds a detector to one that
// already exists (DriftMonitor passes the interned PreparedReference's
// sorted sample, so a fleet of detectors shares one copy); Create
// validates a private copy and sorts it with SortDoubles (util/sort.h, an
// in-place radix sort: a few linear passes) for standalone use.
//
// Steady-state pushes are allocation-free: emptied treap nodes go on an
// internal free list that the next insertion reuses (so a detector ever
// allocates at most m nodes), and the arrival window is a ring that stops
// growing once it holds m observations — so a monitor draining
// observations through a full window performs no heap traffic at all
// (the DriftMonitor zero-allocation contract, docs/ARCHITECTURE.md).
//
// Ownership & thread-safety: a StreamingKs owns its treap and window ring
// outright (move-only; nodes freed in the destructor) and shares the
// read-only reference. Push mutates the owned state, so each detector
// belongs to one stream driver at a time — shared concurrent use requires
// external synchronization. DriftMonitor gives every stream its own
// detector instead of locking one; the shared reference is never written.

#ifndef MOCHE_KS_STREAMING_H_
#define MOCHE_KS_STREAMING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ks/ks_test.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace moche {

class StreamingKs {
 public:
  /// Largest accepted n * m. Every score lies in [-n*m, n*m] and every
  /// pending lazy tag in [-4*n*m, 4*n*m], so no intermediate sum exceeds
  /// 5 * 2^60 < 2^63: the int64 arithmetic cannot overflow. The factories
  /// and DeserializeState reject larger products with InvalidArgument.
  static constexpr uint64_t kMaxScoreProduct = uint64_t{1} << 60;

  /// `reference` is fixed for the lifetime of the detector; `window_size`
  /// is the test-window capacity m. Validates the sample and sorts a
  /// private copy. Fails on invalid samples/sizes.
  static Result<StreamingKs> Create(const std::vector<double>& reference,
                                    size_t window_size, double alpha);

  /// As Create, over a reference that is already sorted ascending, finite
  /// and non-empty (e.g. PreparedReference::sorted_reference(), validated
  /// when interned). The detector shares it instead of copying, so setup
  /// is O(1) beyond the window ring. Checks are O(1): null/empty, the
  /// finite endpoints, window size, alpha and kMaxScoreProduct; sortedness
  /// is the caller's contract (checked only in debug builds).
  static Result<StreamingKs> CreateOverSorted(
      std::shared_ptr<const std::vector<double>> sorted_reference,
      size_t window_size, double alpha);

  StreamingKs(StreamingKs&&) noexcept;
  StreamingKs& operator=(StreamingKs&&) noexcept;
  ~StreamingKs();

  /// Feeds one observation. Once the window is full, the oldest
  /// observation is evicted first. Fails on non-finite values.
  Status Push(double value);

  /// True when the window holds `window_size` observations.
  bool WindowFull() const { return window_.size() == window_size_; }

  /// Observations currently in the window (window_size once full).
  size_t window_count() const { return window_.size(); }

  /// Current KS outcome of R vs the window contents. Requires a full
  /// window (the fixed-size scores are only calibrated for m elements).
  Result<KsOutcome> CurrentOutcome() const;

  /// Convenience: true iff the window is full and the test rejects.
  bool Drifted() const;

  /// The window contents in arrival order (oldest first) — hand this to
  /// Moche::Explain when a drift fires.
  std::vector<double> WindowContents() const;

  /// As WindowContents, rebuilding `out` in place (capacity reused): the
  /// drift monitor's per-worker snapshot buffer allocates once and is then
  /// recycled for every explanation.
  void WindowContentsInto(std::vector<double>* out) const;

  size_t reference_size() const { return reference_->size(); }
  size_t window_size() const { return window_size_; }
  double alpha() const { return alpha_; }

  /// Appends the detector's restorable state in the canonical little-endian
  /// encoding (util/binary_io.h): reference size, window capacity, alpha
  /// (bit-exact), and the surviving window observations in arrival order —
  /// O(w) values. The treap is deliberately NOT serialized: its scores are
  /// a pure function of the reference and the window contents, so
  /// DeserializeState rebuilds it (src/persist's snapshot hook;
  /// docs/SNAPSHOT.md).
  void SerializeStateTo(std::string* out) const;

  /// Inverse of SerializeStateTo over an untrusted buffer, binding the
  /// restored detector to `sorted_reference` (CreateOverSorted's contract)
  /// — the same multiset the serialized detector was created over. Size
  /// and alpha are cross-checked against the snapshot, kMaxScoreProduct is
  /// enforced, and every window value must be finite, so a corrupted
  /// snapshot fails with InvalidArgument instead of poisoning the score
  /// arithmetic. The treap is built in one pass from a copy of the window
  /// sorted by SortDoubles — at most O(w log w + D log n) for D distinct
  /// window values, not a Push per value. Allocates only for the observations the snapshot
  /// holds (a ring that is not yet full grows as it fills), never for the
  /// declared capacity. The restored detector's CurrentOutcome, and every
  /// outcome after further pushes, is bit-identical to the serialized
  /// one's; only the treap's shape differs.
  static Result<StreamingKs> DeserializeState(
      std::shared_ptr<const std::vector<double>> sorted_reference,
      bin::Reader* reader);

 private:
  struct Node;
  class Treap;

  StreamingKs(std::shared_ptr<const std::vector<double>> sorted_reference,
              size_t window_size, double alpha);

  /// CreateOverSorted's O(1) argument checks.
  static Status ValidateShared(
      const std::shared_ptr<const std::vector<double>>& sorted_reference,
      uint64_t window_size, double alpha);

  std::shared_ptr<const std::vector<double>> reference_;  // sorted, shared
  size_t window_size_ = 0;
  double alpha_ = 0.05;
  // Ring over the arrival order: filled by push_back until it holds
  // window_size_ values, then overwritten in place with window_head_
  // marking the oldest slot (= the next overwrite target).
  std::vector<double> window_;
  size_t window_head_ = 0;
  std::unique_ptr<Treap> treap_;
};

}  // namespace moche

#endif  // MOCHE_KS_STREAMING_H_
