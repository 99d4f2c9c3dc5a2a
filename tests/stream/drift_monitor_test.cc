#include "stream/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ks/ks_test.h"
#include "timeseries/generators.h"
#include "util/rng.h"

namespace moche {
namespace stream {
namespace {

constexpr uint64_t kSeed = 20210416;

// A monitor with `count` scenario streams already registered and the
// scenarios to replay through it.
struct Fixture {
  DriftMonitor monitor;
  std::vector<ts::DriftScenario> scenarios;
};

Fixture MakeFixture(const MonitorOptions& options, size_t count,
                    size_t window = 60, size_t reference = 300,
                    size_t length = 400) {
  auto monitor = DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok());
  Fixture f{std::move(monitor).value(),
            ts::MakeDriftScenarioSuite(count, kSeed, reference, length)};
  for (const ts::DriftScenario& sc : f.scenarios) {
    auto index = f.monitor.AddStream(sc.name, sc.reference, window);
    EXPECT_TRUE(index.ok());
  }
  return f;
}

// Replays all scenario observations in lockstep batches of `chunk` ticks.
void Replay(Fixture* f, size_t chunk) {
  size_t longest = 0;
  for (const auto& sc : f->scenarios) {
    longest = std::max(longest, sc.observations.size());
  }
  for (size_t t0 = 0; t0 < longest; t0 += chunk) {
    std::vector<std::vector<double>> batch(f->scenarios.size());
    for (size_t i = 0; i < f->scenarios.size(); ++i) {
      const auto& obs = f->scenarios[i].observations;
      const size_t begin = std::min(obs.size(), t0);
      const size_t end = std::min(obs.size(), t0 + chunk);
      batch[i].assign(obs.begin() + static_cast<long>(begin),
                      obs.begin() + static_cast<long>(end));
    }
    ASSERT_TRUE(f->monitor.PushBatch(batch).ok());
  }
}

// The drain-loop tests run under both reference modes. kSketched uses a
// coarse summary so certified passes, certified fails and exact fallbacks
// all occur, exercising both the eager and the lazy exact outcome.
constexpr ReferenceMode kModes[] = {ReferenceMode::kExact,
                                    ReferenceMode::kSketched};

MonitorOptions WithMode(MonitorOptions options, ReferenceMode mode) {
  options.reference_mode = mode;
  options.sketch_k = 64;
  return options;
}

const char* ModeName(ReferenceMode mode) {
  return mode == ReferenceMode::kExact ? "kExact" : "kSketched";
}

TEST(DriftMonitorTest, CreateValidatesOptions) {
  MonitorOptions bad_alpha;
  bad_alpha.alpha = 0.0;
  EXPECT_FALSE(DriftMonitor::Create(bad_alpha).ok());

  MonitorOptions missing_k;
  missing_k.rearm = RearmPolicy::kEveryKPushes;
  EXPECT_FALSE(DriftMonitor::Create(missing_k).ok());

  missing_k.explain_every_k = 10;
  EXPECT_TRUE(DriftMonitor::Create(missing_k).ok());
}

TEST(DriftMonitorTest, AddStreamValidatesInputs) {
  for (ReferenceMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    auto monitor = DriftMonitor::Create(WithMode(MonitorOptions{}, mode));
    ASSERT_TRUE(monitor.ok());
    const std::vector<double> interned{1.0, 2.0, 3.0};
    auto index = monitor->AddStream("ok", interned, 2);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(*index, 0u);
    const auto before = monitor->cache_stats();

    EXPECT_FALSE(monitor->AddStream("empty", {}, 10).ok());
    EXPECT_FALSE(monitor->AddStream("nan", {1.0, NAN}, 10).ok());
    // A rejected window must neither count a hit on an interned reference
    // nor intern (and count a miss for) a new one.
    EXPECT_FALSE(monitor->AddStream("zero-window", interned, 0).ok());
    EXPECT_FALSE(monitor->AddStream("zero-window", {4.0, 5.0}, 0).ok());
    // 3 * 2^59 breaks the detector's 2^60 integer-score bound.
    EXPECT_FALSE(
        monitor->AddStream("huge-window", interned, size_t{1} << 59).ok());
    EXPECT_EQ(monitor->num_streams(), 1u);
    EXPECT_EQ(monitor->stream_name(0), "ok");
    const auto after = monitor->cache_stats();
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.evictions, before.evictions);
    EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  }
}

TEST(DriftMonitorTest, PushBatchValidatesShapeAndValues) {
  auto monitor = DriftMonitor::Create(MonitorOptions{});
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE(monitor->AddStream("s0", {1.0, 2.0, 3.0}, 2).ok());

  EXPECT_FALSE(monitor->PushBatch({}).ok());          // 0 slots, 1 stream
  EXPECT_FALSE(monitor->PushBatch({{1.0}, {2.0}}).ok());
  EXPECT_FALSE(monitor->PushBatch({{1.0, NAN}}).ok());
  // The rejected batch advanced nothing.
  EXPECT_EQ(monitor->stream_ticks(0), 0u);
  EXPECT_TRUE(monitor->PushBatch({{1.0, 2.0}}).ok());
  EXPECT_EQ(monitor->stream_ticks(0), 2u);
}

TEST(DriftMonitorTest, DetectsAndExplainsInjectedDrift) {
  const size_t window = 60;
  // alpha = 0.01 keeps the deterministic pre-drift stretch free of false
  // alarms, so the first event is the injected drift itself.
  MonitorOptions options;
  options.alpha = 0.01;
  Fixture f = MakeFixture(options, 1, window);
  const ts::DriftScenario& sc = f.scenarios.front();
  ASSERT_EQ(sc.kind, ts::DriftKind::kMeanShift);
  Replay(&f, 32);

  ASSERT_FALSE(f.monitor.events().empty());
  const DriftEvent& event = f.monitor.events().front();
  EXPECT_EQ(event.stream, 0u);
  // The alarm needs drifted observations in the window, and must fire
  // before the window is entirely post-drift for a shift this large.
  EXPECT_GT(event.tick, sc.drift_begin);
  EXPECT_LE(event.tick, sc.drift_begin + window);
  EXPECT_TRUE(event.outcome.reject);

  ASSERT_TRUE(event.explain_status.ok());
  EXPECT_GT(event.report.k, 0u);
  EXPECT_EQ(event.report.explanation.indices.size(), event.report.k);
  for (size_t idx : event.report.explanation.indices) {
    EXPECT_LT(idx, window);
  }
  // The counterfactual holds: removing the explanation passes the test.
  EXPECT_FALSE(event.report.after.reject);
}

TEST(DriftMonitorTest, OncePerExcursionEmitsOneEventForPersistentDrift) {
  // Mean shift never reverts: one excursion, hence exactly one event even
  // though hundreds of pushes reject (alpha = 0.01 keeps the deterministic
  // pre-drift stretch alarm-free).
  for (ReferenceMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    MonitorOptions options;
    options.alpha = 0.01;
    Fixture f = MakeFixture(WithMode(options, mode), 1);
    Replay(&f, 50);

    EXPECT_EQ(f.monitor.events().size(), 1u);
    const auto stats = f.monitor.stats();
    EXPECT_GT(stats.drift_ticks, f.monitor.events().size());
    EXPECT_EQ(stats.explanations, 1u);
    EXPECT_TRUE(f.monitor.stream_in_excursion(0));
  }
}

TEST(DriftMonitorTest, TransientDriftReArmsAfterRecovery) {
  // The spike reverts; once the window flushes the detector passes again
  // and the stream re-arms.
  const size_t window = 60;
  for (ReferenceMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    Fixture f = MakeFixture(WithMode(MonitorOptions{}, mode), 3, window);
    ASSERT_EQ(f.scenarios[2].kind, ts::DriftKind::kTransientSpike);
    Replay(&f, 32);

    bool spike_fired = false;
    for (const DriftEvent& event : f.monitor.events()) {
      if (event.stream == 2) spike_fired = true;
    }
    EXPECT_TRUE(spike_fired);
    EXPECT_FALSE(f.monitor.stream_in_excursion(2));  // recovered, re-armed
    EXPECT_TRUE(f.monitor.stream_in_excursion(0));   // mean shift persists
  }
}

TEST(DriftMonitorTest, EveryKPushesRefreshesDuringExcursion) {
  for (ReferenceMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    MonitorOptions every_k;
    every_k.rearm = RearmPolicy::kEveryKPushes;
    every_k.explain_every_k = 20;
    Fixture f = MakeFixture(WithMode(every_k, mode), 1);
    Replay(&f, 50);

    const auto& events = f.monitor.events();
    ASSERT_GT(events.size(), 1u);  // refreshed at least once
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].tick - events[i - 1].tick,
                every_k.explain_every_k);
    }
  }
}

TEST(DriftMonitorTest, StreamsSharingAReferencePrepareOnce) {
  auto monitor = DriftMonitor::Create(MonitorOptions{});
  ASSERT_TRUE(monitor.ok());
  const ts::DriftScenario sc = ts::MakeDriftScenario(
      ts::DriftKind::kMeanShift, kSeed, /*reference_size=*/300,
      /*length=*/10);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(monitor->AddStream("s", sc.reference, 30).ok());
  }
  const auto cache = monitor->cache_stats();
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 63u);
}

TEST(DriftMonitorTest, ParallelEventLogBitIdenticalToSequential) {
  MonitorOptions sequential;
  sequential.rearm = RearmPolicy::kEveryKPushes;
  sequential.explain_every_k = 15;
  sequential.num_threads = 1;
  MonitorOptions parallel = sequential;
  parallel.num_threads = 4;

  Fixture a = MakeFixture(sequential, 9);
  Fixture b = MakeFixture(parallel, 9);
  Replay(&a, 40);
  Replay(&b, 40);

  ASSERT_FALSE(a.monitor.events().empty());
  EXPECT_TRUE(SameEventLogs(a.monitor.events(), b.monitor.events()));

  // Batch granularity must not matter either.
  Fixture c = MakeFixture(parallel, 9);
  Replay(&c, 7);
  EXPECT_TRUE(SameEventLogs(a.monitor.events(), c.monitor.events()));
}

TEST(DriftMonitorTest, PushTickFeedsOneObservationPerStream) {
  auto monitor = DriftMonitor::Create(MonitorOptions{});
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE(monitor->AddStream("a", {1.0, 2.0, 3.0}, 2).ok());
  ASSERT_TRUE(monitor->AddStream("b", {4.0, 5.0, 6.0}, 2).ok());
  ASSERT_TRUE(monitor->PushTick({1.5, 4.5}).ok());
  EXPECT_EQ(monitor->stream_ticks(0), 1u);
  EXPECT_EQ(monitor->stream_ticks(1), 1u);
  EXPECT_EQ(monitor->stats().observations, 2u);
}

TEST(SketchedMonitorTest, CreateValidatesSketchK) {
  MonitorOptions options;
  options.reference_mode = ReferenceMode::kSketched;
  options.sketch_k = 4;  // below sketch::KllSketch::kMinCapacity
  EXPECT_FALSE(DriftMonitor::Create(options).ok());
  options.sketch_k = (size_t{1} << 21);  // above kMaxCapacity
  EXPECT_FALSE(DriftMonitor::Create(options).ok());
  options.sketch_k = 128;
  EXPECT_TRUE(DriftMonitor::Create(options).ok());
  // An exact-mode monitor never reads sketch_k; a nonsense value is inert.
  options.reference_mode = ReferenceMode::kExact;
  options.sketch_k = 4;
  EXPECT_TRUE(DriftMonitor::Create(options).ok());
}

TEST(SketchedMonitorTest, DetectsAndExplainsInjectedDrift) {
  const size_t window = 60;
  MonitorOptions options;
  options.alpha = 0.01;
  options.reference_mode = ReferenceMode::kSketched;
  options.sketch_k = 128;
  Fixture f = MakeFixture(options, 1, window);
  const ts::DriftScenario& sc = f.scenarios.front();
  ASSERT_EQ(sc.kind, ts::DriftKind::kMeanShift);
  Replay(&f, 32);

  // Same scenario-level contract as the exact-mode monitor: the injected
  // mean shift fires one event inside the transition window, and the
  // counterfactual explanation holds.
  ASSERT_FALSE(f.monitor.events().empty());
  const DriftEvent& event = f.monitor.events().front();
  EXPECT_EQ(event.stream, 0u);
  EXPECT_GT(event.tick, sc.drift_begin);
  EXPECT_LE(event.tick, sc.drift_begin + window);
  EXPECT_TRUE(event.outcome.reject);
  ASSERT_TRUE(event.explain_status.ok());
  EXPECT_GT(event.report.k, 0u);
  EXPECT_FALSE(event.report.after.reject);

  // Recompute semantics: whichever verdict led to it, every event carries
  // exactly ks::RunSorted's outcome on the window it fired on.
  std::vector<double> sorted_ref = sc.reference;
  std::sort(sorted_ref.begin(), sorted_ref.end());
  for (const DriftEvent& e : f.monitor.events()) {
    const auto end = sc.observations.begin() + static_cast<long>(e.tick);
    std::vector<double> snapshot(end - static_cast<long>(window), end);
    std::sort(snapshot.begin(), snapshot.end());
    auto solo = ks::RunSorted(sorted_ref, snapshot, options.alpha);
    ASSERT_TRUE(solo.ok()) << "tick " << e.tick;
    EXPECT_EQ(e.outcome.statistic, solo->statistic) << "tick " << e.tick;
    EXPECT_EQ(e.outcome.threshold, solo->threshold) << "tick " << e.tick;
    EXPECT_EQ(e.outcome.location, solo->location) << "tick " << e.tick;
    EXPECT_EQ(e.outcome.reject, solo->reject) << "tick " << e.tick;
  }

  // Every full window went through the triage exactly once, and the
  // healthy pre-drift stretch produced certified passes (the cheap path).
  const auto stats = f.monitor.stats();
  const uint64_t full_windows =
      f.monitor.stream_ticks(0) - window + 1;
  EXPECT_EQ(stats.triage_certified_pass + stats.triage_certified_fail +
                stats.triage_fallbacks,
            full_windows);
  EXPECT_GT(stats.triage_certified_pass, 0u);
  EXPECT_GT(stats.triage_certified_fail, 0u);
}

TEST(SketchedMonitorTest, PinnedReferencesIgnoreTheCacheBound) {
  // Live streams pin their cache entries, so a bound tighter than the
  // number of distinct references must not strand a stream: the table goes
  // over capacity instead of evicting.
  MonitorOptions options;
  options.reference_mode = ReferenceMode::kSketched;
  options.sketch_k = 64;
  options.cache_capacity = 1;
  auto monitor = DriftMonitor::Create(options);
  ASSERT_TRUE(monitor.ok());
  Rng rng(kSeed);
  for (int s = 0; s < 3; ++s) {
    std::vector<double> ref;
    for (int i = 0; i < 100; ++i) {
      ref.push_back(rng.Normal(static_cast<double>(s), 1.0));
    }
    ASSERT_TRUE(
        monitor->AddStream("s" + std::to_string(s), ref, 20).ok());
  }
  const auto cache = monitor->cache_stats();
  EXPECT_EQ(cache.entries, 3u);
  EXPECT_EQ(cache.evictions, 0u);
  EXPECT_GT(cache.resident_bytes, 0u);
}

TEST(SameEventLogsTest, DiscriminatesFields) {
  DriftEvent a;
  a.stream = 1;
  a.tick = 5;
  a.outcome.statistic = 0.5;
  DriftEvent b = a;
  EXPECT_TRUE(SameEventLogs({a}, {b}));
  EXPECT_FALSE(SameEventLogs({a}, {}));
  b.tick = 6;
  EXPECT_FALSE(SameEventLogs({a}, {b}));
  b = a;
  b.report.explanation.indices.push_back(3);
  EXPECT_FALSE(SameEventLogs({a}, {b}));
  b = a;
  b.explain_status = Status::NotFound("no explanation");
  EXPECT_FALSE(SameEventLogs({a}, {b}));
}

}  // namespace
}  // namespace stream
}  // namespace moche
