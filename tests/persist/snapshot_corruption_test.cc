// The corruption matrix: every way a checkpoint's bytes can be wrong must
// fail with a distinct, descriptive Status — never UB, never a crash,
// never a partially restored monitor. The CI asan-ubsan leg runs this file
// under -fsanitize=address,undefined, so any out-of-bounds read or
// overflow a corrupted length could provoke fails the build even when the
// Status paths happen to look correct.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/crc32c.h"
#include "persist/monitor_codec.h"
#include "persist/snapshot.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"

namespace moche {
namespace persist {
namespace {

stream::DriftMonitor BuildLoadedMonitor(
    stream::MonitorOptions options = stream::MonitorOptions{}) {
  auto monitor = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok());
  const std::vector<ts::DriftScenario> scenarios = ts::MakeDriftScenarioSuite(
      4, /*seed=*/20210817, /*reference_size=*/60, /*length=*/200);
  for (const ts::DriftScenario& scenario : scenarios) {
    EXPECT_TRUE(
        monitor->AddStream(scenario.name, scenario.reference, 40).ok());
  }
  std::vector<std::vector<double>> batch(scenarios.size());
  size_t max_len = 0;
  for (const ts::DriftScenario& s : scenarios) {
    max_len = std::max(max_len, s.observations.size());
  }
  for (size_t t0 = 0; t0 < max_len; t0 += 32) {
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const std::vector<double>& obs = scenarios[i].observations;
      const size_t begin = std::min(obs.size(), t0);
      const size_t end = std::min(obs.size(), begin + 32);
      batch[i].assign(obs.begin() + static_cast<long>(begin),
                      obs.begin() + static_cast<long>(end));
    }
    EXPECT_TRUE(monitor->PushBatch(batch).ok());
  }
  return std::move(*monitor);
}

CheckpointBlobs MakeBlobs(
    uint32_t num_shards,
    stream::MonitorOptions monitor_options = stream::MonitorOptions{}) {
  stream::DriftMonitor monitor = BuildLoadedMonitor(monitor_options);
  CheckpointOptions options;
  options.num_shards = num_shards;
  auto blobs = MonitorCodec::Serialize(monitor, options);
  EXPECT_TRUE(blobs.ok()) << blobs.status().ToString();
  return *blobs;
}

stream::MonitorOptions SketchedOptions(size_t sketch_k) {
  stream::MonitorOptions options;
  options.reference_mode = stream::ReferenceMode::kSketched;
  options.sketch_k = sketch_k;
  return options;
}

/// Walks a snapshot's section frames ([id u32][len u64][payload][crc u32]
/// after the 12-byte header) and returns the byte offset of each section's
/// payload (or its frame start when the payload is empty) — the spots a
/// bit flip is guaranteed to be CRC-protected.
std::vector<size_t> SectionPayloadOffsets(const std::string& bytes) {
  std::vector<size_t> offsets;
  size_t pos = kSnapshotMagicSize + 4;
  while (pos + 12 <= bytes.size()) {
    uint64_t length = 0;
    for (int i = 0; i < 8; ++i) {
      length |= static_cast<uint64_t>(
                    static_cast<uint8_t>(bytes[pos + 4 + static_cast<size_t>(i)]))
                << (8 * i);
    }
    offsets.push_back(length > 0 ? pos + 12 : pos);
    pos += 12 + static_cast<size_t>(length) + 4;
  }
  return offsets;
}

uint64_t ReadU64At(const std::string& bytes, size_t pos) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(
                 static_cast<uint8_t>(bytes[pos + static_cast<size_t>(i)]))
             << (8 * i);
  }
  return value;
}

void WriteU64At(uint64_t value, size_t pos, std::string* bytes) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[pos + static_cast<size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

/// Rewrites the window capacity of the first stream in `shard`'s stream
/// table (section 4) to `capacity`, then recomputes that section's CRC32C
/// so only the codec's own checks stand between the patch and a restore.
void PatchFirstStreamCapacity(bool exact_mode, uint64_t capacity,
                              std::string* shard) {
  size_t pos = kSnapshotMagicSize + 4;
  while (pos + 12 <= shard->size()) {
    const uint32_t id = static_cast<uint32_t>(ReadU64At(*shard, pos));
    const uint64_t length = ReadU64At(*shard, pos + 4);
    const size_t payload = pos + 12;
    if (id == 4) {
      // count, index, name (u64 length + bytes), ref index, ticks,
      // in_excursion u8, pushes, drift ticks, three triage counters; then
      // the detector state (n, capacity, ...) or the ring (capacity, ...).
      size_t field = payload + 16;
      field += 8 + static_cast<size_t>(ReadU64At(*shard, field));
      field += 8 + 8 + 1 + 8 + 8 + 24;
      if (exact_mode) field += 8;
      WriteU64At(capacity, field, shard);
      const std::string framed =
          shard->substr(pos, 12 + static_cast<size_t>(length));
      const uint32_t crc = Crc32c(framed);
      for (int i = 0; i < 4; ++i) {
        (*shard)[payload + static_cast<size_t>(length) +
                 static_cast<size_t>(i)] =
            static_cast<char>((crc >> (8 * i)) & 0xFF);
      }
      return;
    }
    pos = payload + static_cast<size_t>(length) + 4;
  }
  ADD_FAILURE() << "no stream table section";
}

TEST(SnapshotCorruptionTest, EmptyAndHeaderlessInputsAreInvalidArgument) {
  auto empty = SnapshotReader::Open("", "empty.snap");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.status().message().find("0 bytes"), std::string::npos);

  // Shorter than magic + version: truncation, not a format mismatch.
  auto stub = SnapshotReader::Open("MOCHSNA", "stub.snap");
  ASSERT_FALSE(stub.ok());
  EXPECT_EQ(stub.status().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotCorruptionTest, WrongMagicIsInvalidArgument) {
  CheckpointBlobs blobs = MakeBlobs(1);
  blobs.manifest[0] = 'X';
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotCorruptionTest, FutureFormatVersionIsUnimplemented) {
  CheckpointBlobs blobs = MakeBlobs(1);
  // The version u32 sits right after the 8-byte magic; declare version+1.
  blobs.manifest[kSnapshotMagicSize] =
      static_cast<char>(kSnapshotFormatVersion + 1);
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(restored.status().message().find("newer"), std::string::npos);

  // Same rejection when the future version is in a shard, not the
  // manifest.
  CheckpointBlobs shard_blobs = MakeBlobs(2);
  shard_blobs.shards[1][kSnapshotMagicSize] =
      static_cast<char>(kSnapshotFormatVersion + 1);
  restored = MonitorCodec::Deserialize(shard_blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnimplemented);
}

TEST(SnapshotCorruptionTest, EveryTruncationPointFailsCleanly) {
  const CheckpointBlobs blobs = MakeBlobs(2);
  // Every proper prefix of the manifest must be rejected; sampling every
  // prefix length keeps the loop O(n) states on a small blob.
  for (size_t len = 0; len < blobs.manifest.size();
       len += std::max<size_t>(1, blobs.manifest.size() / 97)) {
    CheckpointBlobs truncated = blobs;
    truncated.manifest.resize(len);
    auto restored = MonitorCodec::Deserialize(truncated, RestoreOptions{});
    EXPECT_FALSE(restored.ok()) << "manifest truncated to " << len;
  }
  for (size_t len = 0; len < blobs.shards[0].size();
       len += std::max<size_t>(1, blobs.shards[0].size() / 97)) {
    CheckpointBlobs truncated = blobs;
    truncated.shards[0].resize(len);
    auto restored = MonitorCodec::Deserialize(truncated, RestoreOptions{});
    EXPECT_FALSE(restored.ok()) << "shard 0 truncated to " << len;
  }
}

TEST(SnapshotCorruptionTest, ZeroLengthShardIsRejected) {
  CheckpointBlobs blobs = MakeBlobs(3);
  blobs.shards[2].clear();
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("0 bytes"), std::string::npos);
}

TEST(SnapshotCorruptionTest, MissingOrExtraShardsAreRejected) {
  const CheckpointBlobs blobs = MakeBlobs(2);
  CheckpointBlobs missing = blobs;
  missing.shards.pop_back();
  EXPECT_FALSE(MonitorCodec::Deserialize(missing, RestoreOptions{}).ok());
  CheckpointBlobs extra = blobs;
  extra.shards.push_back(blobs.shards[0]);
  EXPECT_FALSE(MonitorCodec::Deserialize(extra, RestoreOptions{}).ok());
  // Swapped shard files: each shard carries its own index, so shard 1's
  // bytes under shard 0's slot must be caught.
  CheckpointBlobs swapped = blobs;
  std::swap(swapped.shards[0], swapped.shards[1]);
  EXPECT_FALSE(MonitorCodec::Deserialize(swapped, RestoreOptions{}).ok());
}

TEST(SnapshotCorruptionTest, BitFlipInEverySectionIsCaughtByItsCrc) {
  const CheckpointBlobs blobs = MakeBlobs(2);
  const std::vector<const std::string*> files = {
      &blobs.manifest, &blobs.shards[0], &blobs.shards[1]};
  for (size_t f = 0; f < files.size(); ++f) {
    const std::vector<size_t> offsets = SectionPayloadOffsets(*files[f]);
    ASSERT_FALSE(offsets.empty()) << "file " << f << " has no sections";
    for (size_t offset : offsets) {
      CheckpointBlobs flipped = blobs;
      std::string& victim =
          f == 0 ? flipped.manifest : flipped.shards[f - 1];
      victim[offset] = static_cast<char>(victim[offset] ^ 0x01);
      auto restored = MonitorCodec::Deserialize(flipped, RestoreOptions{});
      ASSERT_FALSE(restored.ok())
          << "file " << f << ", flip at byte " << offset;
      EXPECT_NE(restored.status().message().find("CRC32C"),
                std::string::npos)
          << "file " << f << ", flip at byte " << offset << ": "
          << restored.status().ToString();
    }
  }
}

TEST(SnapshotCorruptionTest, HostileLengthFieldsCannotAllocate) {
  // A CRC-clean snapshot whose manifest declares absurd counts: the codec
  // must bound every allocation by the actual bytes available, so this
  // returns a Status instead of attempting a 2^60-element reserve. The
  // container is built by hand with a valid CRC per section.
  std::string manifest;
  SnapshotWriter writer(&manifest);
  std::string* payload = writer.BeginSection(1);  // manifest section id
  bin::AppendU32Le(1, payload);                   // num_shards
  bin::AppendU64Le(1ull << 60, payload);          // num_streams: hostile
  bin::AppendU64Le(1ull << 60, payload);          // num_events: hostile
  bin::AppendU64Le(0, payload);                   // explanations_total
  bin::AppendDoubleLe(0.05, payload);             // alpha
  bin::AppendU8(0, payload);                      // rearm
  bin::AppendU64Le(0, payload);                   // explain_every_k
  bin::AppendU8(0, payload);                      // preference
  bin::AppendU8(0, payload);                      // moche bools
  bin::AppendU8(0, payload);
  bin::AppendU8(0, payload);
  bin::AppendU8(0, payload);                      // v2: reference_mode
  bin::AppendU64Le(1024, payload);                // v2: sketch_k
  bin::AppendU64Le(0, payload);                   // v2: cache_capacity
  writer.EndSection();

  CheckpointBlobs hostile;
  hostile.manifest = manifest;
  std::string shard;
  SnapshotWriter shard_writer(&shard);
  shard_writer.BeginSection(2);  // truncated shard: header section only
  shard_writer.EndSection();
  hostile.shards.push_back(shard);
  auto restored = MonitorCodec::Deserialize(hostile, RestoreOptions{});
  EXPECT_FALSE(restored.ok());
}

TEST(SnapshotCorruptionTest, HugeWindowCapacityIsRejectedWithoutAllocating) {
  // A CRC-clean stream table declaring a 2^40- or 2^61-slot window for a
  // stream that holds 40 observations: restore must return a Status rather
  // than size a ring by the declared capacity (bad_alloc / length_error).
  for (bool exact_mode : {true, false}) {
    const CheckpointBlobs blobs =
        exact_mode ? MakeBlobs(1) : MakeBlobs(1, SketchedOptions(64));
    // The unpatched blobs restore, so the patch alone causes the failure.
    ASSERT_TRUE(MonitorCodec::Deserialize(blobs, RestoreOptions{}).ok());
    for (uint64_t capacity : {uint64_t{1} << 40, uint64_t{1} << 61}) {
      SCOPED_TRACE(::testing::Message()
                   << (exact_mode ? "kExact" : "kSketched") << " capacity "
                   << capacity);
      CheckpointBlobs patched = blobs;
      PatchFirstStreamCapacity(exact_mode, capacity, &patched.shards[0]);
      auto restored = MonitorCodec::Deserialize(patched, RestoreOptions{});
      ASSERT_FALSE(restored.ok());
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(SnapshotCorruptionTest, BadReferenceModeByteIsRejected) {
  // A CRC-clean manifest declaring reference mode 7: the enum range check
  // must fire before any shard is touched.
  std::string manifest;
  SnapshotWriter writer(&manifest);
  std::string* payload = writer.BeginSection(1);
  bin::AppendU32Le(1, payload);           // num_shards
  bin::AppendU64Le(0, payload);           // num_streams
  bin::AppendU64Le(0, payload);           // num_events
  bin::AppendU64Le(0, payload);           // explanations_total
  bin::AppendDoubleLe(0.05, payload);     // alpha
  bin::AppendU8(0, payload);              // rearm
  bin::AppendU64Le(0, payload);           // explain_every_k
  bin::AppendU8(0, payload);              // preference
  bin::AppendU8(0, payload);              // moche bools
  bin::AppendU8(0, payload);
  bin::AppendU8(0, payload);
  bin::AppendU8(7, payload);              // v2: not a reference mode
  bin::AppendU64Le(1024, payload);        // v2: sketch_k
  bin::AppendU64Le(0, payload);           // v2: cache_capacity
  writer.EndSection();

  CheckpointBlobs blobs = MakeBlobs(1);
  blobs.manifest = manifest;
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("not a reference mode"),
            std::string::npos);
}

TEST(SnapshotCorruptionTest, SketchCapacityDisagreeingWithManifestIsCaught) {
  // Two CRC-clean checkpoints of the same workload at different sketch
  // capacities; splicing one's manifest onto the other's shards pairs a
  // manifest sketch_k with KLL summaries of the wrong capacity.
  const CheckpointBlobs k64 = MakeBlobs(2, SketchedOptions(64));
  const CheckpointBlobs k128 = MakeBlobs(2, SketchedOptions(128));
  CheckpointBlobs spliced;
  spliced.manifest = k128.manifest;
  spliced.shards = k64.shards;
  auto restored = MonitorCodec::Deserialize(spliced, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruptionTest, SketchedManifestOverExactShardsIsRejected) {
  // A sketched manifest spliced onto exact-mode shards: the shard's
  // reference table carries no KLL summaries, so the restore must fail
  // cleanly instead of building streams with neither detector nor sketch.
  const CheckpointBlobs exact = MakeBlobs(1);
  const CheckpointBlobs sketched = MakeBlobs(1, SketchedOptions(128));
  CheckpointBlobs spliced;
  spliced.manifest = sketched.manifest;
  spliced.shards = exact.shards;
  EXPECT_FALSE(MonitorCodec::Deserialize(spliced, RestoreOptions{}).ok());
  // The reverse splice (exact manifest, sketched shards) must also fail:
  // the shard carries sketch summaries the manifest says cannot exist.
  CheckpointBlobs reverse;
  reverse.manifest = exact.manifest;
  reverse.shards = sketched.shards;
  EXPECT_FALSE(MonitorCodec::Deserialize(reverse, RestoreOptions{}).ok());
}

TEST(SnapshotCorruptionTest, EveryTruncationPointOnSketchedShardsFails) {
  // Same sweep as the exact-mode truncation test, over the v2 sketched
  // payloads (KLL summaries, ring windows, triage counters).
  const CheckpointBlobs blobs = MakeBlobs(2, SketchedOptions(64));
  for (size_t len = 0; len < blobs.shards[0].size();
       len += std::max<size_t>(1, blobs.shards[0].size() / 97)) {
    CheckpointBlobs truncated = blobs;
    truncated.shards[0].resize(len);
    auto restored = MonitorCodec::Deserialize(truncated, RestoreOptions{});
    EXPECT_FALSE(restored.ok()) << "sketched shard 0 truncated to " << len;
  }
}

TEST(SnapshotCorruptionTest, Version1ManifestRestoresWithExactDefaults) {
  // Forward compatibility with pre-v2 checkpoints: a version-1 manifest
  // ends right after the moche bools, and the reference-mode fields
  // default to kExact. Rebuild the real manifest as v1 — same payload
  // minus the 17-byte v2 tail, version stamp 1, CRC recomputed — and the
  // restore must succeed against the unmodified (exact-mode) shards.
  const CheckpointBlobs blobs = MakeBlobs(1);

  // Parse the one manifest section out of the v2 container.
  const std::string& v2 = blobs.manifest;
  ASSERT_GE(v2.size(), kSnapshotMagicSize + 4 + 12);
  size_t pos = kSnapshotMagicSize + 4;
  uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    length |= static_cast<uint64_t>(
                  static_cast<uint8_t>(v2[pos + 4 + static_cast<size_t>(i)]))
              << (8 * i);
  }
  ASSERT_GE(length, 17u);
  const std::string v2_payload = v2.substr(pos + 12, length);

  std::string v1;
  v1.append(kSnapshotMagic, kSnapshotMagicSize);
  bin::AppendU32Le(1, &v1);  // format version 1
  std::string framed;
  bin::AppendU32Le(1, &framed);  // manifest section id
  bin::AppendU64Le(length - 17, &framed);
  framed.append(v2_payload.substr(0, v2_payload.size() - 17));
  v1.append(framed);
  bin::AppendU32Le(Crc32c(framed), &v1);

  CheckpointBlobs aged = blobs;
  aged.manifest = v1;
  auto restored = MonitorCodec::Deserialize(aged, RestoreOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->options().reference_mode,
            stream::ReferenceMode::kExact);
  stream::DriftMonitor monitor = BuildLoadedMonitor();
  EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()));
}

}  // namespace
}  // namespace persist
}  // namespace moche
