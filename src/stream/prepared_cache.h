// Interning cache for Moche reference representations (exact + sketched).
//
// A fleet of drift detectors typically shares a handful of reference
// samples (one per metric, per model version, ...). Moche::Prepare
// validates and sorts the reference — O(n log n) — so a monitor that owns
// thousands of streams over one reference should pay that cost once. The
// cache hands out shared_ptrs to one immutable PreparedReference per
// distinct (reference, alpha). The same entry can additionally intern the
// reference's KLL summary (sketch::SketchedReference) for the monitor's
// sketched mode — built lazily by GetOrSketch, one summary per entry.
//
// Keying is by the byte-identical value sequence: two permutations of the
// same sample intern separately (keying must not sort — that is the cost
// being amortized). Lookups hash the sequence with a private in-process
// key (four independent multiply–xorshift lanes, so a hit costs one
// memory-speed pass instead of a serial byte chain); the key is never
// persisted and a collision is resolved by an exact comparison against
// the stored sequence, never by trusting the hash. The persisted wire
// hash, ReferenceFingerprint, is computed once per distinct reference when
// its entry is inserted and stored beside it for FindOriginal.
//
// Capacity: by default the intern table grows without bound (monitors hold
// a few distinct references for their whole lifetime). Multi-tenant churn
// is different — references come and go with tenants — so Options::
// capacity bounds the entry count with LRU eviction of *unpinned* entries
// only: an entry whose prepared or sketched reference is still shared
// outside the cache is live state and is never evicted (the table may
// exceed capacity while everything is pinned). stats() reports evictions
// and the resident heap bytes.
//
// Ownership & thread-safety: the cache owns its entries and shares the
// references out via shared_ptr-to-const; all internal state is guarded by
// one Mutex, so every entry point is safe from any thread (see the class
// comment).

#ifndef MOCHE_STREAM_PREPARED_CACHE_H_
#define MOCHE_STREAM_PREPARED_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/moche.h"
#include "sketch/sketched_reference.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace moche {
namespace stream {

/// 64-bit wire hash of (values, alpha): FNV-1a over an explicit
/// canonical byte string — the element count as a little-endian u64, then
/// alpha, then every value as the little-endian bytes of its IEEE-754 bit
/// pattern (util/binary_io.h), each with -0.0 canonicalized to +0.0 first
/// so equal-by-operator== references (-0.0 == +0.0) hash alike. The byte
/// order is pinned, never host memory order: snapshot shard assignment
/// (src/persist) keys on this value, so an x86-64 and an aarch64 build
/// must agree bit-for-bit (a golden-sequence regression test locks the
/// hash down). FNV-1a is a serial byte chain (~1.5 ms per 100k values), so
/// the cache runs it once per distinct reference, on insert, and looks
/// entries up by a cheaper private key instead.
uint64_t ReferenceFingerprint(const std::vector<double>& values, double alpha);

/// Thread-safe intern table of reference representations.
///
/// GetOrPrepare/GetOrSketch may be called concurrently; the references
/// they return are immutable and safe to share across threads (see
/// Moche::ExplainPreparedInto / TriageSketchedInto).
class PreparedReferenceCache {
 public:
  struct Options {
    /// Maximum interned entries; 0 = unbounded (the historical behavior).
    /// When an insert pushes the table past the bound, least-recently-used
    /// entries that are unpinned (no shared_ptr alive outside the cache)
    /// are evicted until the bound holds or only pinned entries remain.
    size_t capacity = 0;
  };

  struct Stats {
    size_t entries = 0;
    size_t hits = 0;
    size_t misses = 0;
    /// Entries dropped by the LRU bound so far.
    size_t evictions = 0;
    /// Heap bytes retained by the interned entries (key sequences, sorted
    /// samples, sketch summaries).
    size_t resident_bytes = 0;
  };

  PreparedReferenceCache() = default;
  explicit PreparedReferenceCache(Options options) : options_(options) {}

  /// Returns the interned PreparedReference for (reference, alpha),
  /// preparing (validate + sort) only on the first sight of the sequence.
  /// InvalidArgument on an empty/non-finite sample or out-of-domain alpha.
  Result<std::shared_ptr<const PreparedReference>> GetOrPrepare(
      const Moche& engine, const std::vector<double>& reference, double alpha);

  /// Returns the interned KLL summary for (reference, alpha), building it
  /// (validate + sketch + flatten) only on the first sight. The summary
  /// shares the entry of GetOrPrepare's exact form, so a monitor holding
  /// both pays one key sequence. One summary is kept per entry: asking
  /// with a different sketch capacity than the interned one is an
  /// InvalidArgument (a monitor has one sketch_k; mixed-k fleets should
  /// use separate caches).
  Result<std::shared_ptr<const sketch::SketchedReference>> GetOrSketch(
      const std::vector<double>& reference, double alpha,
      const sketch::KllOptions& options);

  /// Interns an entry rebuilt from a snapshot (src/persist): `prepared`
  /// was deserialized (already validated and sorted), so no engine and no
  /// re-sort are involved. If (original, alpha) is already interned the
  /// existing shared entry is returned and `prepared` is dropped — streams
  /// restored from different shards still converge on one PreparedReference
  /// per distinct reference, exactly as live interning would. Restores
  /// count toward neither hits nor misses, and `original` is copied only
  /// when it opens a new entry. InvalidArgument when `prepared`
  /// is inconsistent with (original, alpha) — wrong alpha, or a sample that
  /// is not a permutation-by-size of `original` (a cross-section splice in
  /// an otherwise CRC-clean snapshot).
  Result<std::shared_ptr<const PreparedReference>> InternRestored(
      const std::vector<double>& original, double alpha,
      PreparedReference prepared);

  /// Sketched counterpart of InternRestored: interns a deserialized KLL
  /// summary under (original, alpha). InvalidArgument when the summary is
  /// inconsistent with its key — wrong alpha, a count that does not match
  /// the key sequence's size, or a capacity disagreeing with an already
  /// interned summary for the same key.
  Result<std::shared_ptr<const sketch::SketchedReference>>
  InternRestoredSketched(const std::vector<double>& original, double alpha,
                         sketch::SketchedReference sketched);

  /// Reverse lookup for checkpointing: finds the interned entry whose
  /// shared PreparedReference is exactly `prepared` (pointer identity) and
  /// copies out the original unsorted key sequence, alpha, and the
  /// ReferenceFingerprint stored with the entry (computed when the
  /// reference was first inserted, so no hash runs here). Returns false when
  /// `prepared` was not interned here. O(entries) plus one copy of the
  /// sequence; a checkpoint calls it once per distinct reference.
  bool FindOriginal(const PreparedReference* prepared,
                    std::vector<double>* original, double* alpha,
                    uint64_t* fingerprint) const;

  Stats stats() const;

 private:
  struct Entry {
    std::vector<double> original;  // the unsorted key sequence
    double alpha = 0.0;
    uint64_t fingerprint = 0;  // ReferenceFingerprint(original, alpha)
    std::shared_ptr<const PreparedReference> prepared;          // may be null
    std::shared_ptr<const sketch::SketchedReference> sketched;  // may be null
    uint64_t last_used = 0;  // LRU stamp (monotone use counter)
  };

  /// Finds the entry under lookup key `key` matching (alpha, reference)
  /// exactly, stamping it as used. Null when absent.
  Entry* FindEntryLocked(uint64_t key, const std::vector<double>& reference,
                         double alpha) MOCHE_REQUIRES(mutex_);

  /// Inserts a fresh entry for (reference, alpha) — copying the sequence —
  /// under lookup key `key` with its precomputed wire hash `fingerprint`,
  /// and applies the LRU bound. Returns the inserted entry (valid until the
  /// next mutation).
  Entry* InsertEntryLocked(uint64_t key, uint64_t fingerprint,
                           const std::vector<double>& reference, double alpha)
      MOCHE_REQUIRES(mutex_);

  void EvictIfOverCapacityLocked() MOCHE_REQUIRES(mutex_);
  size_t CountEntriesLocked() const MOCHE_REQUIRES(mutex_);

  Options options_;
  mutable Mutex mutex_;
  // Keyed by the private lookup key (never ReferenceFingerprint); each
  // bucket holds the exact-compare candidates.
  std::unordered_map<uint64_t, std::vector<Entry>> entries_
      MOCHE_GUARDED_BY(mutex_);
  size_t hits_ MOCHE_GUARDED_BY(mutex_) = 0;
  size_t misses_ MOCHE_GUARDED_BY(mutex_) = 0;
  size_t evictions_ MOCHE_GUARDED_BY(mutex_) = 0;
  uint64_t use_clock_ MOCHE_GUARDED_BY(mutex_) = 0;
};

}  // namespace stream
}  // namespace moche

#endif  // MOCHE_STREAM_PREPARED_CACHE_H_
