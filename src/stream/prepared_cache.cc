#include "stream/prepared_cache.h"

#include <utility>

#include "util/binary_io.h"
#include "util/string_util.h"

namespace moche {
namespace stream {

namespace {

// 64-bit FNV-1a over the eight little-endian bytes of `word`, LSB first.
// The bytes come from shift-and-mask on the integer VALUE, never from
// reinterpreting host memory, so the digest is identical on big- and
// little-endian machines: this is FNV-1a over exactly the byte string
// bin::AppendU64Le would emit for `word`.
inline uint64_t Fnv1aU64Le(uint64_t hash, uint64_t word) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xFFu;
    hash *= kPrime;
  }
  return hash;
}

// -0.0 == +0.0, and the cache's exact-match guard compares with
// operator==, so two references differing only in a zero's sign are the
// same cache key. Hash the canonical +0.0 for both: hashing raw bits would
// send them to different buckets and silently duplicate the entry (a miss
// and a second sort where the guard would have hit).
inline uint64_t CanonicalDoubleBits(double v) {
  return bin::DoubleBits(v == 0.0 ? 0.0 : v);
}

// One lane step of the lookup key: fold a word in, then multiply by an
// odd constant and xorshift so every input bit reaches the whole state.
inline uint64_t LaneStep(uint64_t lane, uint64_t word) {
  lane = (lane ^ word) * 0x9E3779B97F4A7C15ull;
  return lane ^ (lane >> 32);
}

// SplitMix64's output finalizer.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The cache's private lookup key of (values, alpha), over the same
// zero-canonicalized words as ReferenceFingerprint. Value i feeds lane
// i % 4, so four independent multiply chains overlap in the pipeline where
// FNV-1a waits on one multiply per byte: a hit costs one memory-speed pass.
// Never persisted, so it can change freely; equality is still decided by
// FindEntryLocked's exact compare.
uint64_t LookupKey(const std::vector<double>& values, double alpha) {
  uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                      0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  const size_t n = values.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] = LaneStep(lane[0], CanonicalDoubleBits(values[i]));
    lane[1] = LaneStep(lane[1], CanonicalDoubleBits(values[i + 1]));
    lane[2] = LaneStep(lane[2], CanonicalDoubleBits(values[i + 2]));
    lane[3] = LaneStep(lane[3], CanonicalDoubleBits(values[i + 3]));
  }
  for (; i < n; ++i) {
    lane[i % 4] = LaneStep(lane[i % 4], CanonicalDoubleBits(values[i]));
  }
  uint64_t key = Mix64(static_cast<uint64_t>(n));
  key = Mix64(key ^ CanonicalDoubleBits(alpha));
  for (uint64_t word : lane) key = Mix64(key ^ word);
  return key;
}

}  // namespace

uint64_t ReferenceFingerprint(const std::vector<double>& values,
                              double alpha) {
  // FNV-1a over the canonical byte string
  //   AppendU64Le(count) AppendDoubleLe(alpha') AppendDoubleLe(v'_0) ...
  // with ' marking zero-canonicalization — the same encoding the snapshot
  // layer writes, hashed without materializing the buffer. The
  // golden-sequence test in tests/stream/prepared_cache_test.cc pins the
  // digest; persisted shard assignment depends on it never drifting.
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  hash = Fnv1aU64Le(hash, static_cast<uint64_t>(values.size()));
  hash = Fnv1aU64Le(hash, CanonicalDoubleBits(alpha));
  for (double v : values) hash = Fnv1aU64Le(hash, CanonicalDoubleBits(v));
  return hash;
}

PreparedReferenceCache::Entry* PreparedReferenceCache::FindEntryLocked(
    uint64_t key, const std::vector<double>& reference, double alpha) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  for (Entry& entry : it->second) {
    if (entry.alpha == alpha && entry.original == reference) {
      entry.last_used = ++use_clock_;
      return &entry;
    }
  }
  return nullptr;
}

PreparedReferenceCache::Entry* PreparedReferenceCache::InsertEntryLocked(
    uint64_t key, uint64_t fingerprint, const std::vector<double>& reference,
    double alpha) {
  EvictIfOverCapacityLocked();
  std::vector<Entry>& bucket = entries_[key];
  bucket.push_back(Entry{});
  Entry& entry = bucket.back();
  entry.original = reference;
  entry.alpha = alpha;
  entry.fingerprint = fingerprint;
  entry.last_used = ++use_clock_;
  return &entry;
}

size_t PreparedReferenceCache::CountEntriesLocked() const {
  size_t count = 0;
  for (const auto& [key, bucket] : entries_) {
    (void)key;
    count += bucket.size();
  }
  return count;
}

void PreparedReferenceCache::EvictIfOverCapacityLocked() {
  if (options_.capacity == 0) return;
  // Called before an insert: evict until the newcomer fits. Unpinned means
  // the cache's shared_ptrs are the last owners — dropping the entry frees
  // the reference, it cannot strand a live stream. O(entries) per scan is
  // fine: eviction only runs on interning, never on the push hot path.
  while (CountEntriesLocked() >= options_.capacity) {
    std::unordered_map<uint64_t, std::vector<Entry>>::iterator victim_bucket =
        entries_.end();
    size_t victim_index = 0;
    uint64_t victim_stamp = 0;
    bool found = false;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        const Entry& entry = it->second[i];
        const bool pinned =
            (entry.prepared != nullptr && entry.prepared.use_count() > 1) ||
            (entry.sketched != nullptr && entry.sketched.use_count() > 1);
        if (pinned) continue;
        if (!found || entry.last_used < victim_stamp) {
          victim_bucket = it;
          victim_index = i;
          victim_stamp = entry.last_used;
          found = true;
        }
      }
    }
    if (!found) return;  // everything pinned: allow over-capacity
    victim_bucket->second.erase(victim_bucket->second.begin() +
                                static_cast<ptrdiff_t>(victim_index));
    if (victim_bucket->second.empty()) entries_.erase(victim_bucket);
    ++evictions_;
  }
}

Result<std::shared_ptr<const PreparedReference>>
PreparedReferenceCache::GetOrPrepare(const Moche& engine,
                                     const std::vector<double>& reference,
                                     double alpha) {
  const uint64_t key = LookupKey(reference, alpha);
  bool interned = false;  // an entry exists, holding only a sketch
  {
    MutexLock lock(&mutex_);
    Entry* entry = FindEntryLocked(key, reference, alpha);
    if (entry != nullptr && entry->prepared != nullptr) {
      ++hits_;
      return entry->prepared;
    }
    interned = entry != nullptr;
  }

  // Prepare outside the lock: sorting a large reference must not serialize
  // unrelated lookups. A racing same-key Prepare is benign — the second
  // insert sees the first entry and adopts it. A reference new to the
  // table also gets its wire hash here, once, beside the sort.
  auto prepared = engine.Prepare(reference, alpha);
  if (!prepared.ok()) return prepared.status();
  auto shared = std::make_shared<const PreparedReference>(
      std::move(prepared).value());
  uint64_t fingerprint =
      interned ? 0 : ReferenceFingerprint(reference, alpha);

  MutexLock lock(&mutex_);
  Entry* entry = FindEntryLocked(key, reference, alpha);
  if (entry != nullptr) {
    if (entry->prepared != nullptr) {
      ++hits_;
      return entry->prepared;
    }
    // The entry exists with only a sketch (GetOrSketch came first): attach
    // the exact form to the same entry.
    ++misses_;
    entry->prepared = shared;
    return shared;
  }
  ++misses_;
  // The sketch-only entry seen above was evicted in between (rare).
  if (interned) fingerprint = ReferenceFingerprint(reference, alpha);
  InsertEntryLocked(key, fingerprint, reference, alpha)->prepared = shared;
  return shared;
}

Result<std::shared_ptr<const sketch::SketchedReference>>
PreparedReferenceCache::GetOrSketch(const std::vector<double>& reference,
                                    double alpha,
                                    const sketch::KllOptions& options) {
  const uint64_t key = LookupKey(reference, alpha);
  bool interned = false;  // an entry exists, holding only the exact form
  {
    MutexLock lock(&mutex_);
    Entry* entry = FindEntryLocked(key, reference, alpha);
    if (entry != nullptr && entry->sketched != nullptr) {
      if (entry->sketched->sketch_capacity() != options.capacity) {
        return Status::InvalidArgument(StrFormat(
            "reference already interned with sketch capacity %zu, not %zu",
            entry->sketched->sketch_capacity(), options.capacity));
      }
      ++hits_;
      return entry->sketched;
    }
    interned = entry != nullptr;
  }

  // Build outside the lock (one O(n) pass over the sample), same rationale
  // and same benign race as GetOrPrepare.
  auto built = sketch::SketchedReference::FromSample(reference, alpha,
                                                     options);
  if (!built.ok()) return built.status();
  auto shared = std::make_shared<const sketch::SketchedReference>(
      std::move(built).value());
  uint64_t fingerprint =
      interned ? 0 : ReferenceFingerprint(reference, alpha);

  MutexLock lock(&mutex_);
  Entry* entry = FindEntryLocked(key, reference, alpha);
  if (entry != nullptr) {
    if (entry->sketched != nullptr) {
      if (entry->sketched->sketch_capacity() != options.capacity) {
        return Status::InvalidArgument(StrFormat(
            "reference already interned with sketch capacity %zu, not %zu",
            entry->sketched->sketch_capacity(), options.capacity));
      }
      ++hits_;
      return entry->sketched;
    }
    ++misses_;
    entry->sketched = shared;
    return shared;
  }
  ++misses_;
  if (interned) fingerprint = ReferenceFingerprint(reference, alpha);
  InsertEntryLocked(key, fingerprint, reference, alpha)->sketched = shared;
  return shared;
}

Result<std::shared_ptr<const PreparedReference>>
PreparedReferenceCache::InternRestored(const std::vector<double>& original,
                                       double alpha,
                                       PreparedReference prepared) {
  // A CRC-clean snapshot can still pair sections wrongly (a hand-spliced
  // file); cheap consistency checks keep such a splice from planting an
  // entry whose prepared reference disagrees with its key.
  if (prepared.alpha() != alpha) {
    return Status::InvalidArgument(
        "restored prepared reference alpha does not match its cache key");
  }
  if (prepared.sorted_reference().size() != original.size()) {
    return Status::InvalidArgument(
        "restored prepared reference size does not match its cache key");
  }
  const uint64_t key = LookupKey(original, alpha);
  MutexLock lock(&mutex_);
  Entry* entry = FindEntryLocked(key, original, alpha);
  if (entry == nullptr) {
    // The wire hash runs under the lock here: a restore rebuilds a fresh
    // monitor's table from one thread, so nothing waits on it.
    entry = InsertEntryLocked(key, ReferenceFingerprint(original, alpha),
                              original, alpha);
  }
  if (entry->prepared == nullptr) {
    entry->prepared =
        std::make_shared<const PreparedReference>(std::move(prepared));
  }
  return entry->prepared;
}

Result<std::shared_ptr<const sketch::SketchedReference>>
PreparedReferenceCache::InternRestoredSketched(
    const std::vector<double>& original, double alpha,
    sketch::SketchedReference sketched) {
  if (sketched.alpha() != alpha) {
    return Status::InvalidArgument(
        "restored sketched reference alpha does not match its cache key");
  }
  if (sketched.count() != original.size()) {
    return Status::InvalidArgument(
        "restored sketched reference count does not match its cache key");
  }
  const uint64_t key = LookupKey(original, alpha);
  MutexLock lock(&mutex_);
  Entry* entry = FindEntryLocked(key, original, alpha);
  if (entry == nullptr) {
    entry = InsertEntryLocked(key, ReferenceFingerprint(original, alpha),
                              original, alpha);
  } else if (entry->sketched != nullptr &&
             entry->sketched->sketch_capacity() !=
                 sketched.sketch_capacity()) {
    return Status::InvalidArgument(
        "restored sketched reference capacity disagrees with the "
        "interned summary for the same key");
  }
  if (entry->sketched == nullptr) {
    entry->sketched = std::make_shared<const sketch::SketchedReference>(
        std::move(sketched));
  }
  return entry->sketched;
}

bool PreparedReferenceCache::FindOriginal(const PreparedReference* prepared,
                                          std::vector<double>* original,
                                          double* alpha,
                                          uint64_t* fingerprint) const {
  MutexLock lock(&mutex_);
  for (const auto& [key, bucket] : entries_) {
    (void)key;
    for (const Entry& entry : bucket) {
      if (entry.prepared.get() == prepared) {
        *original = entry.original;
        *alpha = entry.alpha;
        *fingerprint = entry.fingerprint;
        return true;
      }
    }
  }
  return false;
}

PreparedReferenceCache::Stats PreparedReferenceCache::stats() const {
  MutexLock lock(&mutex_);
  Stats s;
  for (const auto& [key, bucket] : entries_) {
    (void)key;
    s.entries += bucket.size();
    for (const Entry& entry : bucket) {
      s.resident_bytes += entry.original.capacity() * sizeof(double);
      if (entry.prepared != nullptr) {
        s.resident_bytes += sizeof(PreparedReference) +
                            entry.prepared->sorted_reference().capacity() *
                                sizeof(double);
      }
      if (entry.sketched != nullptr) {
        s.resident_bytes += sizeof(sketch::SketchedReference) +
                            entry.sketched->FootprintBytes();
      }
    }
  }
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  return s;
}

}  // namespace stream
}  // namespace moche
