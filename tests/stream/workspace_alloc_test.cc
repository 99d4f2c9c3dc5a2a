// The zero-allocation contract of the explain pipeline (ISSUE 5):
//  * a warmed-up Moche::ExplainPreparedInto call performs no heap
//    allocation when the caller recycles its workspace and report;
//  * a warmed-up sequential DriftMonitor::PushBatch that fires no drift
//    event performs no heap allocation at all.
//
// testing_alloc.h defines the counting global operator new, so this file
// must be this binary's only TU including it.

#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
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

}  // namespace
}  // namespace moche
