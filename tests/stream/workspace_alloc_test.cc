// The allocation contracts of the explain pipeline and the monitor:
//  * a warmed-up Moche::ExplainPreparedInto call performs no heap
//    allocation when the caller recycles its workspace and report;
//  * a warmed-up sequential DriftMonitor::PushBatch that fires no drift
//    event performs no heap allocation at all;
//  * a kExact stream costs O(w), not O(n): a cache-hit AddStream and a
//    checkpoint restore make as many allocation calls over a 50k-value
//    reference as over a 1k-value one;
//  * an explanation's scratch is O(w), not O(n): a workspace that explained
//    a window against a 50k-value reference retains under twice the bytes
//    of one that explained it against a 1k-value reference, and a warm
//    workspace's footprint depends only on the window size.
//
// testing_alloc.h defines the counting global operator new, so this file
// must be this binary's only TU including it.

#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "persist/monitor_codec.h"
#include "stream/drift_monitor.h"
#include "testing_alloc.h"
#include "util/rng.h"

namespace moche {
namespace {

using testing_alloc::AllocationProbe;

std::vector<double> NormalSample(Rng* rng, size_t count, double mean,
                                 double sd) {
  std::vector<double> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(rng->Normal(mean, sd));
  return out;
}

TEST(WorkspaceAllocTest, WarmExplainPreparedIntoAllocatesNothing) {
  Rng rng(20260729);
  const std::vector<double> reference = NormalSample(&rng, 400, 0.0, 1.0);
  const Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  // Failing windows (shifted distribution), all materialized before the
  // probed region so only the explain pipeline itself is measured.
  constexpr size_t kWindows = 6;
  constexpr size_t kWindowSize = 150;
  std::vector<std::vector<double>> windows;
  std::vector<PreferenceList> prefs;
  for (size_t w = 0; w < kWindows; ++w) {
    windows.push_back(NormalSample(&rng, kWindowSize, 1.2, 1.1));
    prefs.push_back(RandomPreference(kWindowSize, &rng));
  }

  ExplainWorkspace workspace;
  MocheReport report;
  size_t warm_failures = 0;
  for (size_t w = 0; w < kWindows; ++w) {
    const Status status = engine.ExplainPreparedInto(
        *prepared, windows[w], prefs[w], &workspace, &report);
    warm_failures += !status.ok();
  }
  ASSERT_EQ(warm_failures, 0u) << "warm-up pass must explain every window";

  // The workspace, report, and all internal buffers are warm: re-running
  // the same windows must not touch the heap.
  size_t failures = 0;
  AllocationProbe probe;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t w = 0; w < kWindows; ++w) {
      const Status status = engine.ExplainPreparedInto(
          *prepared, windows[w], prefs[w], &workspace, &report);
      failures += !status.ok();
    }
  }
  const size_t allocations = probe.Delta();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u)
      << "warmed-up ExplainPreparedInto must be allocation-free";
}

TEST(WorkspaceAllocTest, WarmFindExplanationSizeIntoAllocatesNothing) {
  Rng rng(987);
  const std::vector<double> reference = NormalSample(&rng, 300, 0.0, 1.0);
  const std::vector<double> test = NormalSample(&rng, 120, 1.5, 1.0);
  const Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  ExplainWorkspace workspace;
  auto warm = engine.FindExplanationSizeInto(*prepared, test, &workspace);
  ASSERT_TRUE(warm.ok());

  size_t failures = 0;
  AllocationProbe probe;
  for (int i = 0; i < 5; ++i) {
    auto result = engine.FindExplanationSizeInto(*prepared, test, &workspace);
    failures += !result.ok() || result->k != warm->k;
  }
  const size_t allocations = probe.Delta();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u)
      << "warmed-up FindExplanationSizeInto must be allocation-free";
}

TEST(WorkspaceAllocTest, SteadyStatePushBatchAllocatesNothing) {
  // Both reference modes share the drain loop; kSketched's coarse summary
  // (sketch_k = 64 over n = 256) makes some windows uncertain, so the exact
  // fallback runs in the probed region too.
  for (stream::ReferenceMode mode :
       {stream::ReferenceMode::kExact, stream::ReferenceMode::kSketched}) {
    SCOPED_TRACE(mode == stream::ReferenceMode::kExact ? "kExact"
                                                       : "kSketched");
    Rng rng(4242);
    const size_t kStreams = 4;
    const size_t kWindow = 64;
    const std::vector<double> reference = NormalSample(&rng, 256, 0.0, 1.0);

    stream::MonitorOptions options;
    options.alpha = 0.01;  // quiet: in-distribution windows never reject
    options.num_threads = 1;
    options.reference_mode = mode;
    options.sketch_k = 64;
    auto monitor = stream::DriftMonitor::Create(options);
    ASSERT_TRUE(monitor.ok());
    for (size_t i = 0; i < kStreams; ++i) {
      ASSERT_TRUE(monitor->AddStream("s" + std::to_string(i), reference,
                                     kWindow)
                      .ok());
    }

    // In-distribution observation batches, all materialized up front.
    const size_t kWarmBatches = 24;   // fills every window, then some
    const size_t kSteadyBatches = 16;
    const size_t kBatchTicks = 8;
    std::vector<std::vector<std::vector<double>>> batches;
    for (size_t b = 0; b < kWarmBatches + kSteadyBatches; ++b) {
      std::vector<std::vector<double>> batch(kStreams);
      for (size_t s = 0; s < kStreams; ++s) {
        batch[s] = NormalSample(&rng, kBatchTicks, 0.0, 1.0);
      }
      batches.push_back(std::move(batch));
    }

    size_t warm_failures = 0;
    for (size_t b = 0; b < kWarmBatches; ++b) {
      warm_failures += !monitor->PushBatch(batches[b]).ok();
    }
    ASSERT_EQ(warm_failures, 0u);
    ASSERT_TRUE(monitor->events().empty())
        << "config must stay quiet for the steady-state claim to make sense";

    const uint64_t fallbacks_before = monitor->stats().triage_fallbacks;
    size_t failures = 0;
    AllocationProbe probe;
    for (size_t b = kWarmBatches; b < kWarmBatches + kSteadyBatches; ++b) {
      failures += !monitor->PushBatch(batches[b]).ok();
    }
    const size_t allocations = probe.Delta();
    EXPECT_EQ(failures, 0u);
    EXPECT_EQ(allocations, 0u)
        << "warmed-up no-event PushBatch must be allocation-free";
    EXPECT_TRUE(monitor->events().empty());
    if (mode == stream::ReferenceMode::kSketched) {
      EXPECT_GT(monitor->stats().triage_fallbacks, fallbacks_before)
          << "the probed region must exercise the exact fallback";
    }
  }
}

TEST(WorkspaceAllocTest, WorkspacePoolStatsReportCreationAndFootprint) {
  Rng rng(77);
  const size_t kWindow = 48;
  const std::vector<double> reference = NormalSample(&rng, 200, 0.0, 1.0);

  stream::MonitorOptions options;
  options.num_threads = 1;
  auto monitor = stream::DriftMonitor::Create(options);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE(monitor->AddStream("drifter", reference, kWindow).ok());

  // No explanation fired yet: the pool is empty.
  EXPECT_EQ(monitor->stats().workspaces_created, 0u);
  EXPECT_EQ(monitor->stats().workspace_bytes, 0u);

  // Drive the stream into obvious drift so an explanation fires.
  std::vector<std::vector<double>> batch(1);
  batch[0] = NormalSample(&rng, 4 * kWindow, 4.0, 0.5);
  ASSERT_TRUE(monitor->PushBatch(batch).ok());
  ASSERT_FALSE(monitor->events().empty());

  const stream::DriftMonitor::Stats stats = monitor->stats();
  EXPECT_EQ(stats.workspaces_created, 1u);  // one sequential worker
  EXPECT_GT(stats.workspace_bytes, 0u);
}

// A quiet kExact workload over an evenly spaced reference of n values:
// the windows are evenly spaced too, so no push ever drifts.
std::vector<double> GridReference(size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back((static_cast<double>(i) + 0.5) / static_cast<double>(n));
  }
  return out;
}

stream::DriftMonitor QuietExactMonitor(const std::vector<double>& reference,
                                       size_t streams, size_t window) {
  stream::MonitorOptions options;
  options.num_threads = 1;
  auto monitor = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok());
  for (size_t i = 0; i < streams; ++i) {
    EXPECT_TRUE(
        monitor->AddStream("s" + std::to_string(i), reference, window).ok());
  }
  // Two laps of the ring, so restore replays full, wrapped windows.
  std::vector<std::vector<double>> batch(streams);
  for (size_t t = 0; t < 2 * window; ++t) {
    const double v = (static_cast<double>((t * 37) % window) + 0.5) /
                     static_cast<double>(window);
    for (std::vector<double>& slot : batch) slot.push_back(v);
  }
  EXPECT_TRUE(monitor->PushBatch(batch).ok());
  EXPECT_TRUE(monitor->events().empty());
  return std::move(*monitor);
}

// Allocation calls of a kExact AddStream whose reference is already
// interned (an earlier stream added it).
size_t CacheHitAddStreamAllocations(size_t n, size_t window) {
  const std::vector<double> reference = GridReference(n);
  stream::DriftMonitor monitor = QuietExactMonitor(reference, 1, window);
  std::string name = "second";
  AllocationProbe probe;
  const bool ok = monitor.AddStream(std::move(name), reference, window).ok();
  const size_t allocations = probe.Delta();
  EXPECT_TRUE(ok);
  EXPECT_EQ(monitor.cache_stats().hits, 1u);
  return allocations;
}

// Allocation calls of restoring a checkpoint of a three-stream kExact
// monitor. The reference table read costs the same number of calls at
// every n (one buffer per array); anything per reference value would not.
size_t RestoreAllocations(size_t n, size_t window) {
  const stream::DriftMonitor monitor =
      QuietExactMonitor(GridReference(n), 3, window);
  auto blobs = persist::MonitorCodec::Serialize(monitor,
                                                persist::CheckpointOptions{});
  EXPECT_TRUE(blobs.ok());
  AllocationProbe probe;
  auto restored =
      persist::MonitorCodec::Deserialize(*blobs, persist::RestoreOptions{});
  const size_t allocations = probe.Delta();
  EXPECT_TRUE(restored.ok());
  return allocations;
}

TEST(WorkspaceAllocTest, ExactStreamSetupAllocationsDoNotScaleWithReference) {
  const size_t kWindow = 64;
  const size_t small = CacheHitAddStreamAllocations(1000, kWindow);
  const size_t large = CacheHitAddStreamAllocations(50000, kWindow);
  EXPECT_EQ(small, large)
      << "a cache-hit kExact AddStream must not allocate per reference value";
  EXPECT_LT(small, 16u);
}

TEST(WorkspaceAllocTest, ExactRestoreAllocationsDoNotScaleWithReference) {
  const size_t kWindow = 64;
  const size_t small = RestoreAllocations(1000, kWindow);
  const size_t large = RestoreAllocations(50000, kWindow);
  EXPECT_EQ(small, large)
      << "a kExact restore must rebuild detectors from the window alone";
}

// Heap bytes an ExplainWorkspace retains after one prepared explanation of
// a failing `window`-point window (every value in the reference's upper
// half) against an n-point reference.
size_t ExplainFootprintBytes(size_t n, size_t window) {
  const Moche engine;
  auto prepared = engine.Prepare(GridReference(n), 0.05);
  EXPECT_TRUE(prepared.ok());
  std::vector<double> test;
  for (size_t i = 0; i < window; ++i) {
    test.push_back(0.5 + (static_cast<double>(i) + 0.5) /
                             (2.0 * static_cast<double>(window)));
  }
  ExplainWorkspace workspace;
  MocheReport report;
  EXPECT_TRUE(engine
                  .ExplainPreparedInto(*prepared, test,
                                       IdentityPreference(window), &workspace,
                                       &report)
                  .ok());
  return workspace.FootprintBytes();
}

TEST(WorkspaceAllocTest, ExplainWorkspaceFootprintDoesNotScaleWithReference) {
  const size_t kWindow = 64;
  const size_t small = ExplainFootprintBytes(1000, kWindow);
  const size_t large = ExplainFootprintBytes(50000, kWindow);
  EXPECT_LT(large, 2 * small)
      << "an explanation's scratch must be sized by the window, not by the "
         "reference (1k: "
      << small << " bytes, 50k: " << large << " bytes)";
}

// A frame's size depends on the window's values (q <= 2m + 1), so a
// workspace warmed on a window with few distinct values must already hold
// room for any other window of that size.
TEST(WorkspaceAllocTest, WarmWorkspaceFootprintDependsOnlyOnWindowSize) {
  const size_t kWindow = 200;
  const Moche engine;
  auto prepared = engine.Prepare(GridReference(20000), 0.05);
  ASSERT_TRUE(prepared.ok());
  const PreferenceList pref = IdentityPreference(kWindow);
  std::vector<double> clumped;
  for (size_t i = 0; i < kWindow; ++i) {
    clumped.push_back(0.6 + 0.1 * static_cast<double>(i % 4));
  }
  ExplainWorkspace workspace;
  MocheReport report;
  ASSERT_TRUE(engine
                  .ExplainPreparedInto(*prepared, clumped, pref, &workspace,
                                       &report)
                  .ok());
  const size_t warm = workspace.FootprintBytes();
  Rng rng(77);
  for (int w = 0; w < 8; ++w) {
    const std::vector<double> spread = NormalSample(&rng, kWindow, 0.8, 0.1);
    ASSERT_TRUE(engine
                    .ExplainPreparedInto(*prepared, spread, pref, &workspace,
                                         &report)
                    .ok());
    EXPECT_EQ(workspace.FootprintBytes(), warm) << "window " << w;
  }
}

}  // namespace
}  // namespace moche
