// Round-trip identity of the snapshot stack, bottom-up: the sectioned
// container, the atomic file commit, and the full monitor codec —
// serialize -> deserialize -> serialize must be a byte fixed point, the
// checkpoint bytes of a fixed fleet are pinned, and a restored monitor
// must be observably identical to the one that was checkpointed (events,
// stream state, interned references) and continue identically when fed
// the remaining observations.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/monitor_codec.h"
#include "persist/snapshot.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"

namespace moche {
namespace persist {
namespace {

// A monitor mid-deployment: drift-scenario streams fully replayed in
// lockstep batches, so the checkpoint carries filled windows, excursion
// state, and a non-empty event log.
stream::DriftMonitor BuildLoadedMonitor(
    size_t streams, size_t batch_ticks,
    stream::MonitorOptions options = stream::MonitorOptions{}) {
  options.rearm = stream::RearmPolicy::kOncePerExcursion;
  auto monitor = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  const std::vector<ts::DriftScenario> scenarios = ts::MakeDriftScenarioSuite(
      streams, /*seed=*/20210817, /*reference_size=*/60, /*length=*/200);
  for (const ts::DriftScenario& scenario : scenarios) {
    auto index = monitor->AddStream(scenario.name, scenario.reference,
                                    /*window_size=*/40);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
  }
  size_t max_len = 0;
  for (const ts::DriftScenario& s : scenarios) {
    max_len = std::max(max_len, s.observations.size());
  }
  std::vector<std::vector<double>> batch(scenarios.size());
  for (size_t t0 = 0; t0 < max_len; t0 += batch_ticks) {
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const std::vector<double>& obs = scenarios[i].observations;
      const size_t begin = std::min(obs.size(), t0);
      const size_t end = std::min(obs.size(), begin + batch_ticks);
      batch[i].assign(obs.begin() + static_cast<long>(begin),
                      obs.begin() + static_cast<long>(end));
    }
    EXPECT_TRUE(monitor->PushBatch(batch).ok());
  }
  return std::move(*monitor);
}

TEST(SnapshotContainerTest, SectionsRoundTripInOrder) {
  std::string bytes;
  SnapshotWriter writer(&bytes);
  std::string* payload = writer.BeginSection(7);
  bin::AppendU64Le(0xDEADBEEFull, payload);
  writer.EndSection();
  payload = writer.BeginSection(9);  // empty payload is legal
  writer.EndSection();

  // Header: magic + version, little-endian.
  ASSERT_GE(bytes.size(), kSnapshotMagicSize + 4);
  EXPECT_EQ(bytes.substr(0, kSnapshotMagicSize), "MOCHSNAP");
  EXPECT_EQ(static_cast<uint8_t>(bytes[kSnapshotMagicSize]),
            kSnapshotFormatVersion);

  auto reader = SnapshotReader::Open(bytes, "test.snap");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  SnapshotSection section;
  bool done = false;
  ASSERT_TRUE(reader->Next(&section, &done).ok());
  ASSERT_FALSE(done);
  EXPECT_EQ(section.id, 7u);
  ASSERT_EQ(section.payload.size(), 8u);
  bin::Reader payload_reader(section.payload);
  uint64_t value = 0;
  ASSERT_TRUE(payload_reader.ReadU64Le(&value));
  EXPECT_EQ(value, 0xDEADBEEFull);
  ASSERT_TRUE(reader->Next(&section, &done).ok());
  ASSERT_FALSE(done);
  EXPECT_EQ(section.id, 9u);
  EXPECT_TRUE(section.payload.empty());
  ASSERT_TRUE(reader->Next(&section, &done).ok());
  EXPECT_TRUE(done);
}

TEST(SnapshotContainerTest, AtomicWriteFileCommitsAndLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "atomic_write_test.snap";
  ASSERT_TRUE(AtomicWriteFile(path, "first contents").ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "first contents");
  // Overwrite goes through the same tmp+rename commit.
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "second");
  // The staging file never survives a successful commit.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(MonitorCodecTest, SerializeDeserializeSerializeIsAByteFixedPoint) {
  stream::DriftMonitor monitor = BuildLoadedMonitor(/*streams=*/6,
                                                    /*batch_ticks=*/32);
  ASSERT_FALSE(monitor.events().empty())
      << "workload produced no drift events; the round-trip would be "
         "vacuous";

  CheckpointOptions options;
  options.num_shards = 3;
  auto blobs = MonitorCodec::Serialize(monitor, options);
  ASSERT_TRUE(blobs.ok()) << blobs.status().ToString();
  ASSERT_EQ(blobs->shards.size(), 3u);

  auto restored = MonitorCodec::Deserialize(*blobs, RestoreOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  auto again = MonitorCodec::Serialize(*restored, options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->manifest, blobs->manifest);
  for (size_t i = 0; i < blobs->shards.size(); ++i) {
    EXPECT_EQ(again->shards[i], blobs->shards[i]) << "shard " << i;
  }

  // Observable identity: events (and their FormatEventLog rendering),
  // stream metadata, interned reference count.
  EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()));
  EXPECT_EQ(FormatEventLog(restored->events()),
            FormatEventLog(monitor.events()));
  ASSERT_EQ(restored->num_streams(), monitor.num_streams());
  for (size_t i = 0; i < monitor.num_streams(); ++i) {
    EXPECT_EQ(restored->stream_name(i), monitor.stream_name(i));
    EXPECT_EQ(restored->stream_ticks(i), monitor.stream_ticks(i));
    EXPECT_EQ(restored->stream_in_excursion(i),
              monitor.stream_in_excursion(i));
  }
  EXPECT_EQ(restored->cache_stats().entries, monitor.cache_stats().entries);
  const stream::DriftMonitor::Stats original_stats = monitor.stats();
  const stream::DriftMonitor::Stats restored_stats = restored->stats();
  EXPECT_EQ(restored_stats.observations, original_stats.observations);
  EXPECT_EQ(restored_stats.drift_ticks, original_stats.drift_ticks);
  EXPECT_EQ(restored_stats.explanations, original_stats.explanations);
}

TEST(MonitorCodecTest, ShardCountChangesBytesButNotTheRestoredState) {
  stream::DriftMonitor monitor = BuildLoadedMonitor(/*streams=*/4,
                                                    /*batch_ticks=*/32);
  for (uint32_t shards : {1u, 2u, 5u}) {
    CheckpointOptions options;
    options.num_shards = shards;
    auto blobs = MonitorCodec::Serialize(monitor, options);
    ASSERT_TRUE(blobs.ok()) << "shards=" << shards;
    ASSERT_EQ(blobs->shards.size(), shards);
    auto restored = MonitorCodec::Deserialize(*blobs, RestoreOptions{});
    ASSERT_TRUE(restored.ok())
        << "shards=" << shards << ": " << restored.status().ToString();
    EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()))
        << "shards=" << shards;
  }
  CheckpointOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(MonitorCodec::Serialize(monitor, zero).ok());
}

TEST(MonitorCodecTest, RestoredMonitorContinuesIdentically) {
  stream::DriftMonitor monitor = BuildLoadedMonitor(/*streams=*/4,
                                                    /*batch_ticks=*/32);
  auto blobs = MonitorCodec::Serialize(monitor, CheckpointOptions{});
  ASSERT_TRUE(blobs.ok());
  auto restored = MonitorCodec::Deserialize(*blobs, RestoreOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Feed both the SAME fresh batches: a shifted regime that forces new
  // excursions. The logs must stay bit-identical push for push — the
  // restored detector treaps, re-arm state, and tick counters all have to
  // agree, not just the recorded history.
  std::vector<std::vector<double>> batch(monitor.num_streams());
  for (int round = 0; round < 6; ++round) {
    for (size_t s = 0; s < monitor.num_streams(); ++s) {
      batch[s].clear();
      for (int t = 0; t < 10; ++t) {
        batch[s].push_back(round < 3 ? 1000.0 + t : 0.5 * t);
      }
    }
    ASSERT_TRUE(monitor.PushBatch(batch).ok());
    ASSERT_TRUE(restored->PushBatch(batch).ok());
    ASSERT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()))
        << "diverged at round " << round;
  }
}

TEST(MonitorCodecTest, CheckpointDirectoryRoundTripsThroughDisk) {
  stream::DriftMonitor monitor = BuildLoadedMonitor(/*streams=*/4,
                                                    /*batch_ticks=*/32);
  const std::string dir = ::testing::TempDir() + "roundtrip_ckpt";
  CheckpointOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(CheckpointMonitor(monitor, dir, options).ok());

  // The committed layout: manifest + one file per shard, no temp files.
  EXPECT_TRUE(ReadFileToString(dir + "/" + kManifestFileName).ok());
  EXPECT_TRUE(ReadFileToString(dir + "/" + ShardFileName(0)).ok());
  EXPECT_TRUE(ReadFileToString(dir + "/" + ShardFileName(1)).ok());
  EXPECT_FALSE(ReadFileToString(dir + "/" + ShardFileName(2)).ok());

  auto restored = RestoreMonitor(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()));

  // A second checkpoint overwrites in place (the steady-state cadence).
  ASSERT_TRUE(CheckpointMonitor(monitor, dir, options).ok());
  restored = RestoreMonitor(dir);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()));

  EXPECT_EQ(RestoreMonitor(::testing::TempDir() + "no_such_ckpt")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(MonitorCodecTest, SketchedFleetRoundTripIsAByteFixedPoint) {
  // The v2 payload paths: manifest reference-mode fields, per-reference KLL
  // summaries, ring-buffer stream records, and triage counters must all
  // survive serialize -> deserialize -> serialize bit for bit.
  stream::MonitorOptions options;
  options.reference_mode = stream::ReferenceMode::kSketched;
  options.sketch_k = 128;
  options.cache_capacity = 16;
  stream::DriftMonitor monitor =
      BuildLoadedMonitor(/*streams=*/6, /*batch_ticks=*/32, options);
  ASSERT_FALSE(monitor.events().empty());
  const stream::DriftMonitor::Stats before = monitor.stats();
  ASSERT_GT(before.triage_certified_pass + before.triage_certified_fail +
                before.triage_fallbacks,
            0u);

  CheckpointOptions checkpoint;
  checkpoint.num_shards = 3;
  auto blobs = MonitorCodec::Serialize(monitor, checkpoint);
  ASSERT_TRUE(blobs.ok()) << blobs.status().ToString();
  auto restored = MonitorCodec::Deserialize(*blobs, RestoreOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto again = MonitorCodec::Serialize(*restored, checkpoint);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->manifest, blobs->manifest);
  for (size_t i = 0; i < blobs->shards.size(); ++i) {
    EXPECT_EQ(again->shards[i], blobs->shards[i]) << "shard " << i;
  }

  // The restored fleet is still sketched (mode is snapshot state) and its
  // triage history survived.
  EXPECT_EQ(restored->options().reference_mode,
            stream::ReferenceMode::kSketched);
  EXPECT_EQ(restored->options().sketch_k, options.sketch_k);
  const stream::DriftMonitor::Stats after = restored->stats();
  EXPECT_EQ(after.triage_certified_pass, before.triage_certified_pass);
  EXPECT_EQ(after.triage_certified_fail, before.triage_certified_fail);
  EXPECT_EQ(after.triage_fallbacks, before.triage_fallbacks);
  EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()));

  // And it continues identically: same fresh batches, bit-identical logs.
  std::vector<std::vector<double>> batch(monitor.num_streams());
  for (int round = 0; round < 6; ++round) {
    for (size_t s = 0; s < monitor.num_streams(); ++s) {
      batch[s].clear();
      for (int t = 0; t < 10; ++t) {
        batch[s].push_back(round < 3 ? 1000.0 + t : 0.5 * t);
      }
    }
    ASSERT_TRUE(monitor.PushBatch(batch).ok());
    ASSERT_TRUE(restored->PushBatch(batch).ok());
    ASSERT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()))
        << "diverged at round " << round;
  }
}

TEST(MonitorCodecTest, RestoreThreadCountIsAFreeChoice) {
  stream::DriftMonitor monitor = BuildLoadedMonitor(/*streams=*/4,
                                                    /*batch_ticks=*/32);
  auto blobs = MonitorCodec::Serialize(monitor, CheckpointOptions{});
  ASSERT_TRUE(blobs.ok());
  RestoreOptions parallel;
  parallel.num_threads = 4;
  auto restored = MonitorCodec::Deserialize(*blobs, parallel);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()));
  // num_threads is restore-time state, not snapshot state: re-serializing
  // the parallel restore still reproduces the original bytes.
  auto again = MonitorCodec::Serialize(*restored, CheckpointOptions{});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->manifest, blobs->manifest);
  EXPECT_EQ(again->shards, blobs->shards);
}

// FNV-1a 64 over a byte string. Test-local on purpose: the pins below
// must not move when the library's own hashing changes.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Nine streams over three distinct references (stream j binds reference
// j % 3), each fed its own drift scenario, so several shards hold
// references and the shard assignment itself is part of the pinned bytes.
stream::DriftMonitor BuildSharedReferenceFleet(stream::MonitorOptions options) {
  options.rearm = stream::RearmPolicy::kOncePerExcursion;
  auto monitor = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  const std::vector<ts::DriftScenario> scenarios = ts::MakeDriftScenarioSuite(
      9, /*seed=*/20261019, /*reference_size=*/60, /*length=*/200);
  for (size_t j = 0; j < scenarios.size(); ++j) {
    auto index = monitor->AddStream(scenarios[j].name,
                                    scenarios[j % 3].reference,
                                    /*window_size=*/40);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
  }
  std::vector<std::vector<double>> batch(scenarios.size());
  for (size_t t0 = 0; t0 < 200; t0 += 32) {
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

TEST(MonitorCodecTest, CheckpointBytesArePinned) {
  // The encoder's output is a wire format: a faster Serialize must write
  // exactly these bytes. Each blob is pinned by size and digest, in both
  // reference modes; an empty shard is pinned too (the file set matters).
  struct Pin {
    size_t size;
    uint64_t digest;
  };
  struct Case {
    stream::ReferenceMode mode;
    Pin manifest;
    Pin shards[4];
  };
  const Case cases[] = {
      {stream::ReferenceMode::kExact,
       {94, 0x98d87fde252b1ea6ull},
       {{108, 0x7f1296648c64e597ull},
        {3228, 0x5923a5be795e9e60ull},
        {9163, 0x0d08f1bdb1765769ull},
        {108, 0xd3fe57d5f5655b0dull}}},
      {stream::ReferenceMode::kSketched,
       {94, 0x893a6a117ebaa2c3ull},
       {{108, 0x7f1296648c64e597ull},
        {3724, 0xfcb4388d544a6ba0ull},
        {10155, 0xb410b9117af1ff9full},
        {108, 0xd3fe57d5f5655b0dull}}},
  };
  for (const Case& c : cases) {
    stream::MonitorOptions options;
    options.reference_mode = c.mode;
    options.sketch_k = 64;
    const stream::DriftMonitor monitor = BuildSharedReferenceFleet(options);
    ASSERT_FALSE(monitor.events().empty());
    ASSERT_EQ(monitor.cache_stats().entries, 3u);

    CheckpointOptions checkpoint;
    checkpoint.num_shards = 4;
    auto blobs = MonitorCodec::Serialize(monitor, checkpoint);
    ASSERT_TRUE(blobs.ok()) << blobs.status().ToString();
    ASSERT_EQ(blobs->shards.size(), 4u);
    const int mode = static_cast<int>(c.mode);
    EXPECT_EQ(blobs->manifest.size(), c.manifest.size) << "mode " << mode;
    EXPECT_EQ(Fnv1a64(blobs->manifest), c.manifest.digest)
        << "mode " << mode << std::hex << " digest 0x"
        << Fnv1a64(blobs->manifest);
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(blobs->shards[s].size(), c.shards[s].size)
          << "mode " << mode << " shard " << s;
      EXPECT_EQ(Fnv1a64(blobs->shards[s]), c.shards[s].digest)
          << "mode " << mode << " shard " << s << std::hex << " digest 0x"
          << Fnv1a64(blobs->shards[s]);
    }
  }
}

}  // namespace
}  // namespace persist
}  // namespace moche
