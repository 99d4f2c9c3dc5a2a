// A multi-stream drift-explanation monitor: the paper's Section 6
// deployment loop as a subsystem.
//
// The monitor owns N named streams. Each stream binds an incremental KS
// detector (StreamingKs, O(log n + log w) per observation) to an interned
// PreparedReference; observation batches fan out across a util/parallel
// ThreadPool, one task per stream. When a stream's window drifts, the
// monitor runs Moche::ExplainPreparedInto on the window snapshot and
// records a DriftEvent. A re-arm policy throttles explanation: one
// excursion above the threshold yields one event (kOncePerExcursion) or one
// every k pushes (kEveryKPushes) instead of thousands of duplicates.
//
// Reference modes (MonitorOptions::reference_mode): in the default kExact
// mode every stream owns a StreamingKs detector whose order-statistic
// treap holds only the window and reads reference ranks from the interned
// sorted sample, shared through an aliasing shared_ptr — O(w) memory per
// stream and O(log n + log w) per push. AddStream costs O(n + w) once the
// reference is interned: the cache hashes the n values (one four-lane
// pass) and compares them with the interned copy; only the
// first sight of a reference pays the sort (SortDoubles: an in-place radix
// sort, a few linear passes over the n values) and the serial FNV-1a wire
// hash. kSketched instead judges windows against one shared
// KLL summary of the reference (sketch::SketchedReference,
// O(sketch_k * log(n/sketch_k)) memory per *fleet*): each stream keeps
// only its window ring, and every full-window push is triaged through
// Moche::TriageSketchedInto. Certified verdicts settle the push on the
// summary alone; only the uncertain band (and windows that actually fire
// an explanation) fall back to the interned exact reference, which the
// fleet still shares once for fallback and for ExplainPreparedInto. The
// trade: a sketched push re-sorts its window (O(w log w) against the
// summary) instead of the detector's incremental O(log). Both modes keep
// per-stream state O(w) and intern the exact sample once per fleet, so
// kSketched is neither a latency nor a memory upgrade over kExact.
// Detection semantics are recompute semantics — each full window is
// judged like ks::RunSorted on its snapshot; the integer-score detector
// in kExact mode can disagree within ~1e-9 of the decision boundary
// (see fuzz/streaming_ks_fuzz.cc), so cross-mode event logs are equal on
// well-separated data but not bit-contractual.
// Both modes share one drain loop: only the step that judges a full
// window differs, and the excursion / re-arm / fire policy is written once.
//
// Determinism contract: stream i's events are produced by stream i's task
// alone and merged in stream order after every batch, so the event log is
// bit-identical to the sequential (num_threads = 1) run at any thread
// count. Everything per-stream is deterministic — the detector's treap
// priorities depend only on that stream's insertion sequence, and
// ExplainPreparedInto is a pure function of (reference, window,
// preference).
//
// Threading contract: the monitor is driven from one thread (AddStream /
// PushBatch / events must not race each other); internally PushBatch
// parallelizes across streams. The Moche engine and the interned
// PreparedReferences are immutable and shared by all workers. One
// exception is carved out for persistence: the mutating entry points take
// an internal state mutex, and persist::CheckpointMonitor takes the same
// mutex while it reads, so a checkpoint may run concurrently with the
// driver thread's PushBatch or ClearEvents (it serializes either the
// state before the call or the state after it, never a torn one).
//
// Ownership: the monitor owns its streams, the event log, the
// prepared-reference cache, a pool of per-worker ExplainWorkspaces, and
// (when num_threads resolves > 1) the thread pool; AddStream interns one
// copy of each distinct reference it is given, which every stream over
// that reference (and its detector) shares. Observations must be finite —
// PushBatch validates up front and rejects NaN/Inf with InvalidArgument
// before touching any stream, so a bad batch never half-applies (the
// NaN/empty-sample conventions are collected in docs/ARCHITECTURE.md).
//
// Allocation contract: each worker thread drains streams against its own
// lazily created workspace (created once, reused forever; stats() reports
// the pool's footprint), the detectors recycle their treap nodes, and the
// per-batch fan-out buffers are monitor members reused across batches. A
// warmed-up sequential (num_threads = 1) monitor in either reference mode
// therefore performs ZERO heap allocations on a PushBatch that fires no
// drift event (tests/stream/workspace_alloc_test.cc) — the steady
// state of a healthy fleet — and a firing batch allocates only the
// DriftEvent storage that outlives the call in the event log. The
// parallel path adds a small O(1) per-batch cost for the pool's job
// control block.

#ifndef MOCHE_STREAM_DRIFT_MONITOR_H_
#define MOCHE_STREAM_DRIFT_MONITOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/moche.h"
#include "ks/streaming.h"
#include "sketch/sketched_reference.h"
#include "stream/prepared_cache.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/status.h"

namespace moche {

namespace persist {
class MonitorCodec;  // snapshot serializer (src/persist/monitor_codec.h)
}  // namespace persist

namespace stream {

/// When to re-fire the explainer while a stream stays above threshold.
enum class RearmPolicy {
  /// One event per excursion: explain at the first rejecting push, then
  /// stay silent until the window passes again (which re-arms the stream).
  kOncePerExcursion,
  /// As kOncePerExcursion, plus a refreshed explanation every
  /// `explain_every_k` pushes while the excursion persists (long drifts
  /// keep reporting on current window contents).
  kEveryKPushes,
};

/// Ordering of the preference list handed to ExplainPreparedInto: which
/// window points the explanation should prefer to remove first. Position p
/// of the list names window position p (kOldestFirst) or w - 1 - p
/// (kNewestFirst), window positions counted oldest first.
enum class WindowPreference {
  kOldestFirst,  ///< identity order — prefer the oldest observations
  kNewestFirst,  ///< reversed — prefer the most recent observations
};

/// How streams hold their reference for detection (see the file header).
enum class ReferenceMode {
  /// Per-stream StreamingKs detector over the interned sorted reference:
  /// O(w) memory per stream, O(log n + log w) per push. The default.
  kExact,
  /// One shared KLL summary per distinct reference: O(sketch_k log(n/k))
  /// per fleet. Certified triage on the summary; exact fallback (via the
  /// still-interned PreparedReference) only for uncertain windows and for
  /// the windows that fire an explanation.
  kSketched,
};

struct MonitorOptions {
  double alpha = 0.05;
  RearmPolicy rearm = RearmPolicy::kOncePerExcursion;
  /// Pushes between refreshed explanations under kEveryKPushes (>= 1).
  size_t explain_every_k = 0;
  /// Worker threads for PushBatch: 1 = sequential (default), 0 = one per
  /// hardware core. The event log is identical for every value.
  size_t num_threads = 1;
  WindowPreference preference = WindowPreference::kOldestFirst;
  /// Per-stream reference memory knob (see ReferenceMode).
  ReferenceMode reference_mode = ReferenceMode::kExact;
  /// KLL compactor capacity under kSketched: the memory/uncertainty dial.
  /// Rank error eps ~ log2(n/k)/k, so larger k means fewer exact
  /// fallbacks and more bytes (sketch::KllOptions::capacity domain).
  size_t sketch_k = 1024;
  /// PreparedReferenceCache entry bound: 0 = unbounded (default); nonzero
  /// enables LRU eviction of unpinned entries (multi-tenant churn).
  size_t cache_capacity = 0;
  /// Engine knobs for the per-event explanations.
  MocheOptions moche;
};

/// One drift alarm plus its counterfactual explanation.
struct DriftEvent {
  size_t stream = 0;        ///< index of the firing stream
  uint64_t tick = 0;        ///< per-stream observation count at the alarm
  KsOutcome outcome;        ///< the failing test (from the detector)
  /// Prepare + ExplainPreparedInto on the window snapshot (oldest
  /// observation first) under MonitorOptions::preference: rebuilding that
  /// window at `tick` and explaining it reproduces status, k, k_hat and
  /// indices. Explanation indices are window positions in arrival order
  /// (0 = oldest surviving observation at tick). Only meaningful when
  /// explain_status.ok().
  MocheReport report;
  Status explain_status;
};

/// Bit-identity over the deterministic DriftEvent fields (stream, tick,
/// detector statistic, explanation size/indices, status code); wall times
/// inside the reports are ignored. The determinism tests (parallel vs
/// sequential, snapshot round trips) and monitor_bench's shadow check use
/// this.
bool SameEventLogs(const std::vector<DriftEvent>& a,
                   const std::vector<DriftEvent>& b);

class DriftMonitor {
 public:
  struct Stats {
    size_t streams = 0;
    uint64_t observations = 0;   ///< total pushes across streams
    uint64_t drift_ticks = 0;    ///< pushes whose window rejected
    uint64_t explanations = 0;   ///< DriftEvents emitted
    /// Explain workspaces created so far (at most one per worker thread;
    /// a kExact monitor that never fires an explanation creates none, a
    /// kSketched one creates its first at the first full-window triage).
    size_t workspaces_created = 0;
    /// Total heap bytes retained by the workspace pool. Workspace buffers
    /// never shrink, so this is also the pool's high-water mark.
    size_t workspace_bytes = 0;
    /// kSketched triage tallies (all zero in kExact mode): full-window
    /// pushes settled by a certified verdict on the summary alone, and
    /// pushes whose uncertain bracket forced an exact recompute.
    uint64_t triage_certified_pass = 0;
    uint64_t triage_certified_fail = 0;
    uint64_t triage_fallbacks = 0;
  };

  /// Validates options (alpha domain, explain_every_k under kEveryKPushes).
  static Result<DriftMonitor> Create(const MonitorOptions& options);

  DriftMonitor(DriftMonitor&&) noexcept = default;
  DriftMonitor& operator=(DriftMonitor&&) noexcept = default;

  /// Registers a stream with the given window capacity, bound to the
  /// interned PreparedReference for (reference, options.alpha). In kExact
  /// mode the stream also builds a StreamingKs over that entry's sorted
  /// sample (shared, not copied); in
  /// kSketched mode it instead shares the interned KLL summary (built once
  /// per distinct reference at capacity sketch_k) and holds only a window
  /// ring. Either way the window ring is reserved in full up front.
  /// Returns the stream index. Streams sharing a reference
  /// sort/validate/sketch it once (see PreparedReferenceCache); a call
  /// whose reference is already interned costs O(n + w) — one hash pass
  /// and one exact compare over the reference.
  /// InvalidArgument (cache untouched) when window_size is 0 or
  /// reference.size() * window_size exceeds StreamingKs::kMaxScoreProduct.
  Result<size_t> AddStream(std::string name,
                           const std::vector<double>& reference,
                           size_t window_size);

  /// Feeds one batch: observations[i] (possibly empty) goes to stream i,
  /// in order. Requires observations.size() == num_streams() and finite
  /// values. Streams are processed concurrently per MonitorOptions::
  /// num_threads; each batch's events land in the log in (tick, stream)
  /// order regardless of thread count (and hence regardless of batch
  /// granularity when streams are fed in lockstep).
  Status PushBatch(const std::vector<std::vector<double>>& observations);

  /// Convenience: one observation per stream.
  Status PushTick(const std::vector<double>& values);

  /// The drift-event log, oldest first.
  const std::vector<DriftEvent>& events() const { return events_; }
  /// Drops accumulated events (long-running monitors drain the log
  /// periodically); Stats::explanations keeps counting across clears.
  /// Takes the state mutex, so it may race a concurrent checkpoint.
  void ClearEvents();

  size_t num_streams() const { return streams_.size(); }
  const std::string& stream_name(size_t i) const { return streams_[i].name; }
  /// Observations pushed into stream i so far.
  uint64_t stream_ticks(size_t i) const { return streams_[i].ticks; }
  /// True while stream i's latest full window rejects.
  bool stream_in_excursion(size_t i) const {
    return streams_[i].in_excursion;
  }

  Stats stats() const;
  PreparedReferenceCache::Stats cache_stats() const {
    return cache_->stats();
  }
  const MonitorOptions& options() const { return options_; }

 private:
  // The snapshot codec reads (and, on restore, writes) the private stream
  // state; persistence lives in src/persist so the monitor itself stays
  // free of file-format knowledge (docs/SNAPSHOT.md).
  friend class persist::MonitorCodec;

  struct Stream {
    std::string name;
    /// Engaged exactly in kExact mode; sketched streams keep the ring
    /// below instead of a per-stream reference copy.
    std::optional<StreamingKs> detector;
    std::shared_ptr<const PreparedReference> prepared;
    /// Engaged exactly in kSketched mode (shared per distinct reference).
    std::shared_ptr<const sketch::SketchedReference> sketched;
    /// kSketched window ring: capacity `window` doubles, filled by
    /// push_back until full, then overwritten in place with `ring_head`
    /// marking the oldest slot (= the next overwrite target).
    std::vector<double> ring;
    size_t ring_head = 0;
    size_t window = 0;              // ring capacity (0 in kExact mode)
    uint64_t ticks = 0;             // observations pushed so far
    bool in_excursion = false;      // window currently above threshold
    uint64_t pushes_since_explained = 0;
    uint64_t drift_ticks = 0;
    // kSketched triage tallies; mutated only by the owning stream's task.
    uint64_t triage_certified_pass = 0;
    uint64_t triage_certified_fail = 0;
    uint64_t triage_fallbacks = 0;

    size_t window_size() const {
      return detector.has_value() ? detector->window_size() : window;
    }
    bool WindowFull() const {
      return detector.has_value() ? detector->WindowFull()
                                  : ring.size() == window;
    }
    /// Copies the current window, oldest observation first, into *out
    /// (allocation-free once out's capacity is warm). Both modes.
    void WindowContentsInto(std::vector<double>* out) const;
    /// Admits one observation into the window (detector or ring).
    Status Push(double v);
  };

  /// One worker thread's reusable explanation scratch: the MOCHE workspace
  /// plus the window-snapshot and preference-list buffers feeding it.
  /// Indexed by ParallelForWorker's worker id, so it is never shared
  /// between threads; created lazily on the worker's first explanation.
  struct WorkerScratch {
    ExplainWorkspace workspace;
    std::vector<double> window;
    PreferenceList pref;
    /// One-slot landing pad for the sketched path's exact fallback
    /// (EvaluateBatchPrepared writes its outcomes here).
    std::vector<KsOutcome> outcomes;

    size_t FootprintBytes() const {
      return workspace.FootprintBytes() +
             window.capacity() * sizeof(double) +
             pref.capacity() * sizeof(size_t) +
             outcomes.capacity() * sizeof(KsOutcome);
    }
  };

  explicit DriftMonitor(const MonitorOptions& options);

  /// Feeds `values` to stream i sequentially, appending events to `out`,
  /// explaining through `worker`'s scratch. Returns the first push failure
  /// (impossible after PushBatch's up-front validation short of an
  /// internal bug). The one drain loop of both modes.
  Status DrainStream(size_t worker, size_t i,
                     const std::vector<double>& values,
                     std::vector<DriftEvent>* out);

  /// kSketched's judging step: certified triage of stream s's full window,
  /// with the exact fallback (into *outcome) only for an uncertain verdict.
  /// Leaves the window in `worker`'s scratch for a lazy exact outcome.
  Status TriageWindow(size_t worker, Stream* s, bool* reject,
                      std::optional<KsOutcome>* outcome);

  /// Lazily creates (then returns) worker `worker`'s scratch slot.
  WorkerScratch& ScratchFor(size_t worker);

  /// Exact KS outcome for the window currently held in scratch.window,
  /// against stream `s`'s interned PreparedReference (one-window
  /// EvaluateBatchPrepared; allocation-free once warm).
  Status ExactWindowOutcome(const Stream& s, WorkerScratch* scratch,
                            std::optional<KsOutcome>* outcome);

  /// Runs ExplainPreparedInto on stream i's current window, inside
  /// `worker`'s scratch.
  DriftEvent Explain(size_t worker, size_t i, const KsOutcome& outcome);

  MonitorOptions options_;
  Moche engine_;
  // Serializes the mutating entry points against a concurrent
  // persist::CheckpointMonitor. Deliberately NOT annotated with
  // MOCHE_GUARDED_BY: the read accessors (events, stream_ticks, ...) are
  // single-driver by the threading contract and stay lock-free; only the
  // checkpoint path reads cross-thread, and it takes this mutex.
  // unique_ptr (like cache_) keeps the monitor movable.
  mutable std::unique_ptr<Mutex> state_mutex_;
  // unique_ptr: the cache owns a mutex, which would pin the monitor in
  // place; the monitor must stay movable for Result<DriftMonitor>.
  std::unique_ptr<PreparedReferenceCache> cache_;
  std::vector<Stream> streams_;
  std::vector<DriftEvent> events_;
  uint64_t explanations_total_ = 0;  // survives ClearEvents
  std::unique_ptr<ThreadPool> pool_;  // only when num_threads resolves > 1
  // One slot per worker thread (slot 0 = the PushBatch caller), filled on
  // first use. unique_ptr keeps the monitor movable and slot addresses
  // stable across the vector's lifetime.
  std::vector<std::unique_ptr<WorkerScratch>> worker_scratch_;
  // Per-batch fan-out state, hoisted into members so steady-state batches
  // reuse capacity instead of reallocating (see the allocation contract in
  // the file header).
  std::vector<std::vector<DriftEvent>> batch_buffers_;
  std::vector<Status> batch_statuses_;
  std::vector<DriftEvent> batch_merged_;
};

}  // namespace stream
}  // namespace moche

#endif  // MOCHE_STREAM_DRIFT_MONITOR_H_
