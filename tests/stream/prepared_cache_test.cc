#include "stream/prepared_cache.h"

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace moche {
namespace stream {
namespace {

TEST(ReferenceFingerprintTest, SensitiveToValuesOrderAndAlpha) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{3.0, 2.0, 1.0};
  EXPECT_EQ(ReferenceFingerprint(a, 0.05), ReferenceFingerprint(a, 0.05));
  EXPECT_NE(ReferenceFingerprint(a, 0.05), ReferenceFingerprint(b, 0.05));
  EXPECT_NE(ReferenceFingerprint(a, 0.05), ReferenceFingerprint(a, 0.01));
  EXPECT_NE(ReferenceFingerprint(a, 0.05),
            ReferenceFingerprint({1.0, 2.0}, 0.05));
}

// The signed-zero regression: the fingerprint used raw double bits, so a
// reference containing -0.0 hashed differently from its +0.0 twin even
// though the exact-compare guard treats them as equal (-0.0 == +0.0).
// The equal-by-operator== sequences then interned as two entries — a
// silent cache split that doubled Prepare work. The fingerprint must
// canonicalize -0.0 before hashing; the bucket's exact compare then makes
// the second lookup a hit.
TEST(ReferenceFingerprintTest, CanonicalizesSignedZero) {
  const std::vector<double> plus{0.0, 1.0, 2.0};
  const std::vector<double> minus{-0.0, 1.0, 2.0};
  EXPECT_EQ(ReferenceFingerprint(plus, 0.05),
            ReferenceFingerprint(minus, 0.05));
  // alpha is hashed through the same canonicalization; values that are
  // actually different must still split.
  EXPECT_NE(ReferenceFingerprint(plus, 0.05),
            ReferenceFingerprint({0.0, 1.0, 2.5}, 0.05));
}

// Golden-sequence regression: the fingerprint is a cross-platform wire
// contract — snapshot shard assignment (src/persist/monitor_codec.cc) keys
// on `fingerprint % num_shards`, so the hash of a fixed sequence must
// never drift across builds, hosts, or byte orders. The constants pin the
// documented derivation: FNV-1a (offset 14695981039346656037, prime
// 1099511628211) over count:u64le, canonical alpha:f64le, values:f64le
// with -0.0 canonicalized to +0.0. If this test fails, the change broke
// every existing checkpoint's shard layout — that needs a snapshot format
// version bump, not a test update.
TEST(ReferenceFingerprintTest, GoldenSequencesPinTheWireHash) {
  const std::vector<double> golden{1.0, 2.5, -3.0, -0.0, 1e300, 0.125};
  EXPECT_EQ(ReferenceFingerprint(golden, 0.05), 0x14114b19bbb53b30ull);
  EXPECT_EQ(ReferenceFingerprint({}, 0.05), 0xe72227bb1035cd54ull);
  EXPECT_EQ(ReferenceFingerprint({42.0}, 1.9999), 0xf546d57958226be7ull);
}

TEST(PreparedReferenceCacheTest, SignedZeroReferencesShareOneEntry) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> plus{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> minus{-0.0, 1.0, 2.0, 3.0};

  auto first = cache.GetOrPrepare(engine, plus, 0.05);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrPrepare(engine, minus, 0.05);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PreparedReferenceCacheTest, InternsIdenticalReferences) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};

  auto first = cache.GetOrPrepare(engine, ref, 0.05);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrPrepare(engine, ref, 0.05);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same interned object

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // The interned reference is prepared (sorted) once.
  EXPECT_EQ((*first)->sorted_reference(),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(PreparedReferenceCacheTest, DistinctAlphaOrValuesGetDistinctEntries) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{1.0, 2.0, 3.0};

  auto a = cache.GetOrPrepare(engine, ref, 0.05);
  auto b = cache.GetOrPrepare(engine, ref, 0.01);
  auto c = cache.GetOrPrepare(engine, {3.0, 2.0, 1.0}, 0.05);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_NE(a->get(), c->get());  // keyed by the raw sequence, not the set

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(PreparedReferenceCacheTest, PropagatesPrepareErrors) {
  Moche engine;
  PreparedReferenceCache cache;
  EXPECT_FALSE(cache.GetOrPrepare(engine, {}, 0.05).ok());
  EXPECT_FALSE(cache.GetOrPrepare(engine, {1.0, NAN}, 0.05).ok());
  EXPECT_FALSE(cache.GetOrPrepare(engine, {1.0, 2.0}, 0.0).ok());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PreparedReferenceCacheTest, InternRestoredConvergesOnOneEntry) {
  Moche engine;
  const std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};
  auto prepared = engine.Prepare(ref, 0.05);
  ASSERT_TRUE(prepared.ok());

  // Fresh cache (a restore into an empty monitor): the restored entry is
  // interned as-is, without touching the hit/miss counters.
  PreparedReferenceCache cache;
  auto restored = cache.InternRestored(ref, 0.05, *prepared);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->sorted_reference(),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);

  // A second shard restoring the same (original, alpha) converges on the
  // already-interned object.
  auto prepared2 = engine.Prepare(ref, 0.05);
  ASSERT_TRUE(prepared2.ok());
  auto again = cache.InternRestored(ref, 0.05, *prepared2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), restored->get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PreparedReferenceCacheTest, InternRestoredRejectsInconsistentSplices) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{1.0, 2.0, 3.0};
  auto prepared = engine.Prepare(ref, 0.05);
  ASSERT_TRUE(prepared.ok());

  // A CRC-clean snapshot could still pair a prepared sample with the wrong
  // original (a cross-section splice); the consistency checks catch it.
  auto wrong_alpha = cache.InternRestored(ref, 0.01, *prepared);
  EXPECT_FALSE(wrong_alpha.ok());
  auto wrong_size = cache.InternRestored({1.0, 2.0}, 0.05, *prepared);
  EXPECT_FALSE(wrong_size.ok());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PreparedReferenceCacheTest, FindOriginalRecoversTheUnsortedKey) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref_a{5.0, 1.0, 3.0};  // deliberately unsorted
  const std::vector<double> ref_b{9.0, 8.0, 7.0};
  auto a = cache.GetOrPrepare(engine, ref_a, 0.05);
  auto b = cache.GetOrPrepare(engine, ref_b, 0.01);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::vector<double> original;
  double alpha = 0.0;
  uint64_t fingerprint = 0;
  ASSERT_TRUE(cache.FindOriginal(a->get(), &original, &alpha, &fingerprint));
  EXPECT_EQ(original, ref_a);  // the raw sequence, not the sorted one
  EXPECT_EQ(alpha, 0.05);
  // The wire hash stored with the entry, i.e. the snapshot shard hash.
  EXPECT_EQ(fingerprint, ReferenceFingerprint(ref_a, 0.05));
  ASSERT_TRUE(cache.FindOriginal(b->get(), &original, &alpha, &fingerprint));
  EXPECT_EQ(original, ref_b);
  EXPECT_EQ(alpha, 0.01);
  EXPECT_EQ(fingerprint, ReferenceFingerprint(ref_b, 0.01));

  // Pointer identity, not value equality: an equal reference prepared
  // outside the cache is not interned here.
  auto foreign = engine.Prepare(ref_a, 0.05);
  ASSERT_TRUE(foreign.ok());
  EXPECT_FALSE(
      cache.FindOriginal(&*foreign, &original, &alpha, &fingerprint));
}

TEST(PreparedReferenceCacheTest, FindOriginalFingerprintOfARestoredEntry) {
  // Entries interned by a restore store the same wire hash as live ones, so
  // a re-checkpoint shards them exactly as the original checkpoint did.
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{-0.0, 4.0, 2.0};
  auto prepared = engine.Prepare(ref, 0.05);
  ASSERT_TRUE(prepared.ok());
  auto restored = cache.InternRestored(ref, 0.05, std::move(*prepared));
  ASSERT_TRUE(restored.ok());
  std::vector<double> original;
  double alpha = 0.0;
  uint64_t fingerprint = 0;
  ASSERT_TRUE(
      cache.FindOriginal(restored->get(), &original, &alpha, &fingerprint));
  EXPECT_EQ(fingerprint, ReferenceFingerprint(ref, 0.05));
  EXPECT_EQ(fingerprint, ReferenceFingerprint({0.0, 4.0, 2.0}, 0.05));
}

// The fingerprint of the entry behind `prepared`, as a checkpoint reads it.
uint64_t StoredFingerprint(const PreparedReferenceCache& cache,
                           const PreparedReference* prepared) {
  std::vector<double> original;
  double alpha = 0.0;
  uint64_t fingerprint = 0;
  EXPECT_TRUE(cache.FindOriginal(prepared, &original, &alpha, &fingerprint));
  return fingerprint;
}

TEST(PreparedReferenceCacheTest, StoredFingerprintIsTheWireHashOnEveryPath) {
  // Whichever call opens an entry computes the wire hash once and stores
  // it; a later call that only attaches the other form must not change it.
  Moche engine;
  sketch::KllOptions kll;
  kll.capacity = 32;
  const std::vector<double> ref{-0.0, 4.0, 2.0, 7.5, 1.0};
  const uint64_t expected = ReferenceFingerprint(ref, 0.05);

  {  // GetOrPrepare opens the entry.
    PreparedReferenceCache cache;
    auto prepared = cache.GetOrPrepare(engine, ref, 0.05);
    ASSERT_TRUE(prepared.ok());
    EXPECT_EQ(StoredFingerprint(cache, prepared->get()), expected);
  }
  {  // GetOrSketch opens it; GetOrPrepare attaches the exact form.
    PreparedReferenceCache cache;
    ASSERT_TRUE(cache.GetOrSketch(ref, 0.05, kll).ok());
    auto prepared = cache.GetOrPrepare(engine, ref, 0.05);
    ASSERT_TRUE(prepared.ok());
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(StoredFingerprint(cache, prepared->get()), expected);
  }
  {  // InternRestored opens it.
    PreparedReferenceCache cache;
    auto sorted = engine.Prepare(ref, 0.05);
    ASSERT_TRUE(sorted.ok());
    auto restored = cache.InternRestored(ref, 0.05, std::move(*sorted));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(StoredFingerprint(cache, restored->get()), expected);
  }
  {  // InternRestoredSketched opens it; InternRestored attaches.
    PreparedReferenceCache cache;
    auto built = sketch::SketchedReference::FromSample(ref, 0.05, kll);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(cache.InternRestoredSketched(ref, 0.05, *built).ok());
    auto sorted = engine.Prepare(ref, 0.05);
    ASSERT_TRUE(sorted.ok());
    auto restored = cache.InternRestored(ref, 0.05, std::move(*sorted));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(StoredFingerprint(cache, restored->get()), expected);
  }
}

TEST(PreparedReferenceCacheTest, SameSizeNearTwinsInternSeparately) {
  // Every twin has the base's size; each differs in one way the exact
  // compare must see, whatever the lookup key does with it.
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> base{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  std::vector<double> ulp = base;
  ulp.back() = std::nextafter(ulp.back(), 10.0);
  std::vector<double> permuted = base;
  std::swap(permuted[0], permuted[4]);

  auto a = cache.GetOrPrepare(engine, base, 0.05);
  auto b = cache.GetOrPrepare(engine, ulp, 0.05);
  auto c = cache.GetOrPrepare(engine, permuted, 0.05);
  auto d = cache.GetOrPrepare(engine, base, 0.01);  // alpha only
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  const std::vector<const PreparedReference*> seen{a->get(), b->get(),
                                                   c->get(), d->get()};
  for (size_t i = 0; i < seen.size(); ++i) {
    for (size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]) << i << " vs " << j;
    }
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);

  // Each twin still resolves to its own entry.
  auto again = cache.GetOrPrepare(engine, ulp, 0.05);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), b->get());
  EXPECT_EQ(StoredFingerprint(cache, b->get()),
            ReferenceFingerprint(ulp, 0.05));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PreparedReferenceCacheTest, SignedZeroTwinsConvergeOnEveryPath) {
  // SignedZeroReferencesShareOneEntry covers GetOrPrepare; the lookup key
  // must canonicalize -0.0 on the sketch and restore paths too.
  Moche engine;
  sketch::KllOptions kll;
  kll.capacity = 32;
  const std::vector<double> plus{0.0, 1.0, 2.0, 0.0};
  const std::vector<double> minus{-0.0, 1.0, 2.0, -0.0};

  {
    PreparedReferenceCache cache;
    auto first = cache.GetOrSketch(plus, 0.05, kll);
    auto second = cache.GetOrSketch(minus, 0.05, kll);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->get(), second->get());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
  }
  {
    PreparedReferenceCache cache;
    auto p = engine.Prepare(plus, 0.05);
    auto m = engine.Prepare(minus, 0.05);
    ASSERT_TRUE(p.ok() && m.ok());
    auto first = cache.InternRestored(plus, 0.05, std::move(*p));
    auto second = cache.InternRestored(minus, 0.05, std::move(*m));
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->get(), second->get());
    EXPECT_EQ(cache.stats().entries, 1u);
  }
  {
    PreparedReferenceCache cache;
    auto p = sketch::SketchedReference::FromSample(plus, 0.05, kll);
    auto m = sketch::SketchedReference::FromSample(minus, 0.05, kll);
    ASSERT_TRUE(p.ok() && m.ok());
    auto first = cache.InternRestoredSketched(plus, 0.05, std::move(*p));
    auto second = cache.InternRestoredSketched(minus, 0.05, std::move(*m));
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->get(), second->get());
    EXPECT_EQ(cache.stats().entries, 1u);
  }
}

TEST(PreparedReferenceCacheTest, BoundedCacheEvictsLeastRecentlyUsed) {
  Moche engine;
  PreparedReferenceCache cache{PreparedReferenceCache::Options{2}};
  const std::vector<double> ref_a{1.0, 2.0, 3.0};
  const std::vector<double> ref_b{4.0, 5.0, 6.0};
  const std::vector<double> ref_c{7.0, 8.0, 9.0};

  // Intern A and B, dropping the returned shared_ptrs so both entries are
  // unpinned (the cache holds the last reference).
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_a, 0.05).ok());
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_b, 0.05).ok());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch A so B becomes the least recently used entry...
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_a, 0.05).ok());
  // ...then a third intern must evict B, not A.
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_c, 0.05).ok());
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // A survived (hit); B was dropped (miss + re-prepare).
  const size_t hits_before = stats.hits;
  const size_t misses_before = stats.misses;
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_a, 0.05).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_b, 0.05).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(PreparedReferenceCacheTest, PinnedEntriesAreNeverEvicted) {
  Moche engine;
  PreparedReferenceCache cache{PreparedReferenceCache::Options{1}};
  const std::vector<double> ref_a{1.0, 2.0, 3.0};
  const std::vector<double> ref_b{4.0, 5.0, 6.0};

  // Hold the shared_ptr: the entry is live state outside the cache.
  auto pinned = cache.GetOrPrepare(engine, ref_a, 0.05);
  ASSERT_TRUE(pinned.ok());
  // Interning B cannot evict the pinned A: the table goes over capacity
  // instead of stranding a live reference.
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_b, 0.05).ok());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // The pinned entry still resolves to the same object.
  auto again = cache.GetOrPrepare(engine, ref_a, 0.05);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), pinned->get());

  // Once released, the LRU bound applies again on the next intern.
  *pinned = nullptr;
  *again = nullptr;
  ASSERT_TRUE(cache.GetOrPrepare(engine, {7.0, 8.0, 9.0}, 0.05).ok());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(PreparedReferenceCacheTest, SketchSharesTheEntryOfTheExactForm) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};
  sketch::KllOptions kll;
  kll.capacity = 64;

  auto prepared = cache.GetOrPrepare(engine, ref, 0.05);
  ASSERT_TRUE(prepared.ok());
  auto sketched = cache.GetOrSketch(ref, 0.05, kll);
  ASSERT_TRUE(sketched.ok()) << sketched.status().message();
  // One entry carries both representations.
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ((*sketched)->count(), ref.size());

  // The summary is interned: a second ask is a hit on the same object.
  auto again = cache.GetOrSketch(ref, 0.05, kll);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), sketched->get());

  // One summary per entry: a different capacity for the same key is a
  // configuration error, not a second summary.
  kll.capacity = 128;
  EXPECT_FALSE(cache.GetOrSketch(ref, 0.05, kll).ok());

  // resident_bytes accounts for the key sequence, the sorted sample, and
  // the sketch summary.
  EXPECT_GT(cache.stats().resident_bytes,
            2 * ref.size() * sizeof(double));
}

TEST(PreparedReferenceCacheTest, InternRestoredSketchedChecksConsistency) {
  PreparedReferenceCache cache;
  std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};
  sketch::KllOptions kll;
  kll.capacity = 32;
  auto built = sketch::SketchedReference::FromSample(ref, 0.05, kll);
  ASSERT_TRUE(built.ok());

  // Splice guards: a summary whose alpha or count disagrees with its cache
  // key is rejected before it can shadow the real reference.
  auto wrong_alpha = cache.InternRestoredSketched(ref, 0.01, *built);
  EXPECT_FALSE(wrong_alpha.ok());
  auto wrong_size =
      cache.InternRestoredSketched({1.0, 2.0}, 0.05, *built);
  EXPECT_FALSE(wrong_size.ok());
  EXPECT_EQ(cache.stats().entries, 0u);

  auto interned = cache.InternRestoredSketched(ref, 0.05, *built);
  ASSERT_TRUE(interned.ok()) << interned.status().message();
  EXPECT_EQ(cache.stats().entries, 1u);

  // A second shard restoring the same key converges on the interned object.
  auto converged = cache.InternRestoredSketched(ref, 0.05, *built);
  ASSERT_TRUE(converged.ok());
  EXPECT_EQ(converged->get(), interned->get());
  EXPECT_EQ(cache.stats().entries, 1u);

  // ...unless its capacity disagrees with what is already interned.
  kll.capacity = 64;
  auto other = sketch::SketchedReference::FromSample(ref, 0.05, kll);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(cache.InternRestoredSketched(ref, 0.05, *other).ok());
}

TEST(PreparedReferenceCacheTest, ConcurrentGetOrPrepareIsSafe) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref_a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ref_b{9.0, 8.0, 7.0};

  constexpr int kThreads = 8;
  std::vector<const PreparedReference*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<double>& ref = (t % 2 == 0) ? ref_a : ref_b;
      for (int iter = 0; iter < 50; ++iter) {
        auto prepared = cache.GetOrPrepare(engine, ref, 0.05);
        ASSERT_TRUE(prepared.ok());
        seen[t] = prepared->get();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Every thread of a key group saw the same interned object.
  for (int t = 2; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[t % 2]) << "thread " << t;
  }
  EXPECT_EQ(cache.stats().entries, 2u);
}

}  // namespace
}  // namespace stream
}  // namespace moche
