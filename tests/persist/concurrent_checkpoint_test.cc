// Checkpointing concurrent with a live PushBatch driver: the race the
// monitor's state mutex exists to make safe, and the test the CI TSan leg
// runs to prove it. A checkpoint thread serializes continuously while the
// driver thread pushes batches (with the monitor's own worker pool adding
// more threads underneath); every blob captured must deserialize to a
// consistent batch-boundary state — a prefix of the final event log —
// because Serialize holds the state mutex for its whole read and PushBatch
// holds it for the whole batch, so a checkpoint observes pre- or
// post-batch state, never a torn one.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/monitor_codec.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"

namespace moche {
namespace persist {
namespace {

// Serializes `monitor` in a loop on a second thread while `drive` runs on
// this one, then once more after it returns, so the captures provably
// reach the final state. `drive` starts only after the first capture; the
// wait is relaxed, so it adds no happens-before edge that could hide an
// unsynchronized access from TSan.
template <typename Drive>
std::vector<CheckpointBlobs> CaptureWhile(const stream::DriftMonitor& monitor,
                                          Drive drive) {
  std::atomic<bool> done{false};
  std::atomic<size_t> count{0};
  std::vector<CheckpointBlobs> captured;
  std::thread checkpointer([&] {
    bool final_round = false;
    while (!final_round) {
      final_round = done.load(std::memory_order_acquire);
      auto blobs = MonitorCodec::Serialize(monitor, CheckpointOptions{});
      count.fetch_add(1, std::memory_order_relaxed);
      ASSERT_TRUE(blobs.ok()) << blobs.status().ToString();
      captured.push_back(std::move(*blobs));
    }
  });
  while (count.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  drive();
  done.store(true, std::memory_order_release);
  checkpointer.join();
  return captured;
}

TEST(ConcurrentCheckpointTest, SerializeRacesPushBatchSafely) {
  const std::vector<ts::DriftScenario> suite = ts::MakeDriftScenarioSuite(
      4, /*seed=*/20210817, /*reference_size=*/60, /*length=*/380);
  stream::MonitorOptions options;
  options.num_threads = 2;  // the monitor's own pool races too
  auto created = stream::DriftMonitor::Create(options);
  ASSERT_TRUE(created.ok());
  stream::DriftMonitor monitor = std::move(*created);
  for (const ts::DriftScenario& scenario : suite) {
    ASSERT_TRUE(
        monitor.AddStream(scenario.name, scenario.reference, 40).ok());
  }

  constexpr size_t kBatchTicks = 16;
  size_t max_tail = 0;
  for (const ts::DriftScenario& s : suite) {
    max_tail = std::max(max_tail, s.observations.size());
  }

  const std::vector<CheckpointBlobs> captured = CaptureWhile(monitor, [&] {
    std::vector<std::vector<double>> batch(suite.size());
    for (size_t t0 = 0; t0 < max_tail; t0 += kBatchTicks) {
      for (size_t i = 0; i < suite.size(); ++i) {
        const std::vector<double>& obs = suite[i].observations;
        const size_t begin = std::min(obs.size(), t0);
        const size_t end = std::min(obs.size(), begin + kBatchTicks);
        batch[i].assign(obs.begin() + static_cast<long>(begin),
                        obs.begin() + static_cast<long>(end));
      }
      ASSERT_TRUE(monitor.PushBatch(batch).ok());
    }
  });
  ASSERT_FALSE(captured.empty());

  // Every concurrent capture restores to a batch-boundary state whose
  // event log is a prefix of the final log.
  const std::vector<stream::DriftEvent>& final_events = monitor.events();
  for (size_t c = 0; c < captured.size(); ++c) {
    auto restored = MonitorCodec::Deserialize(captured[c], RestoreOptions{});
    ASSERT_TRUE(restored.ok())
        << "capture " << c << ": " << restored.status().ToString();
    const std::vector<stream::DriftEvent>& events = restored->events();
    ASSERT_LE(events.size(), final_events.size()) << "capture " << c;
    const std::vector<stream::DriftEvent> prefix(
        final_events.begin(),
        final_events.begin() + static_cast<long>(events.size()));
    EXPECT_TRUE(stream::SameEventLogs(prefix, events)) << "capture " << c;
    // Batch-boundary states only: a multiple of the batch size, or the
    // exhausted tail (the last batch is partial when the observation
    // length is not a multiple of kBatchTicks).
    EXPECT_TRUE(restored->stream_ticks(0) % kBatchTicks == 0 ||
                restored->stream_ticks(0) == monitor.stream_ticks(0))
        << "capture " << c << " is mid-batch at tick "
        << restored->stream_ticks(0);
  }
  // The captures must include the final state (the checkpointer kept
  // running after the last batch), closing the loop on progress.
  auto last =
      MonitorCodec::Deserialize(captured.back(), RestoreOptions{});
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(stream::SameEventLogs(final_events, last->events()));
}

// ClearEvents is a mutating entry point like PushBatch: it takes the state
// mutex, so a checkpoint racing it reads either the full log or the empty
// one, never a vector mid-clear.
TEST(ConcurrentCheckpointTest, SerializeRacesClearEventsSafely) {
  const std::vector<ts::DriftScenario> suite = ts::MakeDriftScenarioSuite(
      2, /*seed=*/20210817, /*reference_size=*/60, /*length=*/200);
  stream::MonitorOptions options;
  options.rearm = stream::RearmPolicy::kEveryKPushes;
  options.explain_every_k = 1;  // every rejecting push logs an event
  auto created = stream::DriftMonitor::Create(options);
  ASSERT_TRUE(created.ok());
  stream::DriftMonitor monitor = std::move(*created);
  for (const ts::DriftScenario& scenario : suite) {
    ASSERT_TRUE(
        monitor.AddStream(scenario.name, scenario.reference, 40).ok());
  }
  std::vector<std::vector<double>> batch(suite.size());
  for (size_t i = 0; i < suite.size(); ++i) batch[i] = suite[i].observations;
  ASSERT_TRUE(monitor.PushBatch(batch).ok());
  const std::vector<stream::DriftEvent> full_log = monitor.events();
  ASSERT_FALSE(full_log.empty());

  const std::vector<CheckpointBlobs> captured =
      CaptureWhile(monitor, [&] { monitor.ClearEvents(); });
  for (size_t c = 0; c < captured.size(); ++c) {
    auto restored = MonitorCodec::Deserialize(captured[c], RestoreOptions{});
    ASSERT_TRUE(restored.ok())
        << "capture " << c << ": " << restored.status().ToString();
    const std::vector<stream::DriftEvent>& events = restored->events();
    EXPECT_TRUE(events.empty() || stream::SameEventLogs(full_log, events))
        << "capture " << c << " holds a torn log of " << events.size()
        << " events";
  }
  auto last = MonitorCodec::Deserialize(captured.back(), RestoreOptions{});
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last->events().empty());
}

}  // namespace
}  // namespace persist
}  // namespace moche
