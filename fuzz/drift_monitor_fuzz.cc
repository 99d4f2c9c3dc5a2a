// Differential oracle: DriftMonitor's determinism contract under
// randomized batch granularities and thread counts.
//
// The monitor promises a bit-identical event log regardless of (a) worker
// thread count and (b) how a lockstep observation sequence is chopped into
// PushBatch calls (events merge in (tick, stream) order after every
// batch). This target derives per-stream observation sequences with
// drift-inducing regime shifts, feeds the SAME sequences to three monitors
// — sequential coarse batches, parallel fine batches, and one-tick
// PushTick calls — and fails if SameEventLogs distinguishes any pair. The
// reference mode is drawn too: kExact, or kSketched over a small KLL
// summary (sketch_k in [8, 64]) so certified verdicts and exact fallbacks
// both occur. Every event is re-derived from scratch: the mirrored window
// at the event's tick, in the monitor's preference order, through
// Prepare + ExplainPreparedInto, must give the event's status code, k,
// k_hat and indices; in kSketched mode the event's outcome must also be
// ks::Run's on that window bit for bit (recompute semantics). The target
// also checks batch-rejection atomicity (a NaN batch must not advance any
// tick) and the stats counters. Streams may reuse an earlier stream's
// reference; every monitor's intern table must then hold exactly one
// entry per distinct (reference, alpha) — the small tied alphabets make
// same-size near-twin references common, so the lookup key's exact
// compare decides many of these.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/moche.h"
#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"
#include "stream/drift_monitor.h"

namespace {

using moche::stream::DriftMonitor;
using moche::stream::MonitorOptions;
using moche::stream::RearmPolicy;
using moche::stream::ReferenceMode;
using moche::stream::WindowPreference;

DriftMonitor MakeMonitor(const MonitorOptions& options) {
  auto monitor = DriftMonitor::Create(options);
  MOCHE_FUZZ_CHECK(monitor.ok(), "Create rejected valid options: %s",
                   monitor.status().message().c_str());
  return std::move(*monitor);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  const size_t streams = in.SizeInRange(1, 3);
  const int alphabet = static_cast<int>(in.SizeInRange(2, 8));

  MonitorOptions options;
  options.alpha = in.Alpha();
  options.rearm =
      in.Bool() ? RearmPolicy::kOncePerExcursion : RearmPolicy::kEveryKPushes;
  options.explain_every_k =
      options.rearm == RearmPolicy::kEveryKPushes ? in.SizeInRange(1, 5) : 0;
  options.preference = in.Bool() ? WindowPreference::kOldestFirst
                                 : WindowPreference::kNewestFirst;
  if (in.Bool()) {
    options.reference_mode = ReferenceMode::kSketched;
    options.sketch_k = in.SizeInRange(8, 64);
  }
  const bool sketched = options.reference_mode == ReferenceMode::kSketched;

  MonitorOptions sequential = options;
  sequential.num_threads = 1;
  MonitorOptions parallel = options;
  parallel.num_threads = in.Bool() ? 2 : 0;  // 0 = one per core

  DriftMonitor coarse = MakeMonitor(sequential);
  DriftMonitor fine = MakeMonitor(parallel);
  DriftMonitor ticked = MakeMonitor(sequential);

  std::vector<std::vector<double>> references(streams);
  std::vector<size_t> window_sizes(streams);
  for (size_t s = 0; s < streams; ++s) {
    if (s > 0 && in.Byte() % 4 == 0) {
      references[s] = references[in.SizeInRange(0, s - 1)];
    } else {
      const size_t n = in.SizeInRange(4, 24);
      in.TiedArray(n, alphabet, &references[s]);
    }
    window_sizes[s] = in.SizeInRange(2, 10);
    for (DriftMonitor* monitor : {&coarse, &fine, &ticked}) {
      auto index = monitor->AddStream("s" + std::to_string(s), references[s],
                                      window_sizes[s]);
      MOCHE_FUZZ_CHECK(index.ok() && *index == s,
                       "AddStream failed for stream %zu", s);
    }
  }

  // One observation sequence per stream; a byte-driven regime bit shifts
  // values outside the reference alphabet so excursions start and end.
  const size_t ticks = in.SizeInRange(0, 48);
  std::vector<std::vector<double>> sequence(streams);
  for (size_t s = 0; s < streams; ++s) {
    bool drifted_regime = false;
    for (size_t t = 0; t < ticks; ++t) {
      if (in.Byte() % 8 == 0) drifted_regime = !drifted_regime;
      double v = static_cast<double>(in.IntInRange(0, alphabet));
      if (drifted_regime) v += static_cast<double>(alphabet) + 1.0;
      sequence[s].push_back(v);
    }
  }

  // One intern entry per distinct reference (alpha is the monitor's), and
  // every repeat is a hit. A kSketched stream looks its reference up twice
  // (exact form, then summary); the first sight misses both.
  size_t distinct = 0;
  for (size_t s = 0; s < streams; ++s) {
    distinct += std::find(references.begin(),
                          references.begin() + static_cast<ptrdiff_t>(s),
                          references[s]) ==
                references.begin() + static_cast<ptrdiff_t>(s);
  }
  const size_t lookups = sketched ? 2 : 1;
  for (const DriftMonitor* monitor : {&coarse, &fine, &ticked}) {
    const auto cache = monitor->cache_stats();
    MOCHE_FUZZ_CHECK(cache.entries == distinct &&
                         cache.misses == lookups * distinct &&
                         cache.hits == lookups * (streams - distinct),
                     "intern table holds %zu entries (%zu hits) for %zu "
                     "distinct of %zu references",
                     cache.entries, cache.hits, distinct, streams);
  }

  // A malformed batch (wrong stream count, then a NaN) must reject without
  // advancing any stream.
  if (streams > 1) {
    std::vector<std::vector<double>> wrong(streams - 1);
    MOCHE_FUZZ_CHECK(!coarse.PushBatch(wrong).ok(),
                     "PushBatch accepted a wrong-length batch");
  }
  {
    std::vector<std::vector<double>> poisoned(streams);
    poisoned[in.SizeInRange(0, streams - 1)].push_back(std::nan(""));
    MOCHE_FUZZ_CHECK(!coarse.PushBatch(poisoned).ok(),
                     "PushBatch accepted a NaN observation");
    for (size_t s = 0; s < streams; ++s) {
      MOCHE_FUZZ_CHECK(coarse.stream_ticks(s) == 0,
                       "rejected batch advanced stream %zu", s);
    }
    MOCHE_FUZZ_CHECK(coarse.events().empty(),
                     "rejected batch emitted events");
  }

  // Feed the same lockstep sequences three ways: coarse chunks, fine
  // chunks, single ticks.
  size_t done_coarse = 0;
  while (done_coarse < ticks) {
    const size_t chunk =
        std::min(in.SizeInRange(1, 16), ticks - done_coarse);
    std::vector<std::vector<double>> batch(streams);
    for (size_t s = 0; s < streams; ++s) {
      batch[s].assign(sequence[s].begin() + done_coarse,
                      sequence[s].begin() + done_coarse + chunk);
    }
    MOCHE_FUZZ_CHECK(coarse.PushBatch(batch).ok(), "coarse PushBatch failed");
    done_coarse += chunk;
  }
  size_t done_fine = 0;
  while (done_fine < ticks) {
    const size_t chunk = std::min(in.SizeInRange(1, 3), ticks - done_fine);
    std::vector<std::vector<double>> batch(streams);
    for (size_t s = 0; s < streams; ++s) {
      batch[s].assign(sequence[s].begin() + done_fine,
                      sequence[s].begin() + done_fine + chunk);
    }
    MOCHE_FUZZ_CHECK(fine.PushBatch(batch).ok(), "fine PushBatch failed");
    done_fine += chunk;
  }
  std::vector<double> tick_values(streams);
  for (size_t t = 0; t < ticks; ++t) {
    for (size_t s = 0; s < streams; ++s) tick_values[s] = sequence[s][t];
    MOCHE_FUZZ_CHECK(ticked.PushTick(tick_values).ok(), "PushTick failed");
  }

  // The determinism contract: one event log, however the batches were cut
  // and scheduled.
  MOCHE_FUZZ_CHECK(
      moche::stream::SameEventLogs(coarse.events(), fine.events()),
      "event log differs between sequential-coarse and parallel-fine "
      "(%zu vs %zu events)",
      coarse.events().size(), fine.events().size());
  MOCHE_FUZZ_CHECK(
      moche::stream::SameEventLogs(coarse.events(), ticked.events()),
      "event log differs between batch and tick-at-a-time feeding "
      "(%zu vs %zu events)",
      coarse.events().size(), ticked.events().size());

  // Stats must account for every observation; each emitted event is one
  // explanation.
  const DriftMonitor::Stats stats = coarse.stats();
  MOCHE_FUZZ_CHECK(stats.streams == streams &&
                       stats.observations == streams * ticks,
                   "stats lost observations (%llu of %zu)",
                   static_cast<unsigned long long>(stats.observations),
                   streams * ticks);
  MOCHE_FUZZ_CHECK(stats.explanations == coarse.events().size(),
                   "stats.explanations %llu != %zu events",
                   static_cast<unsigned long long>(stats.explanations),
                   coarse.events().size());

  // Every event re-derived from scratch: the mirrored window at the event's
  // tick (oldest first) and the monitor's preference order, through
  // Prepare + ExplainPreparedInto with one recycled workspace.
  const moche::Moche engine(options.moche);
  moche::ExplainWorkspace workspace;
  moche::MocheReport report;
  for (const moche::stream::DriftEvent& event : coarse.events()) {
    const size_t s = event.stream;
    MOCHE_FUZZ_CHECK(s < streams && event.tick >= window_sizes[s] &&
                         event.tick <= ticks,
                     "event at stream %zu tick %llu is out of range", s,
                     static_cast<unsigned long long>(event.tick));
    const size_t w = window_sizes[s];
    const auto end = sequence[s].begin() + static_cast<ptrdiff_t>(event.tick);
    const std::vector<double> window(end - static_cast<ptrdiff_t>(w), end);
    moche::PreferenceList pref = moche::IdentityPreference(w);
    if (options.preference == WindowPreference::kNewestFirst) {
      std::reverse(pref.begin(), pref.end());
    }
    auto prepared = engine.Prepare(references[s], options.alpha);
    MOCHE_FUZZ_CHECK(prepared.ok(), "Prepare failed: %s",
                     prepared.status().message().c_str());
    const moche::Status status = engine.ExplainPreparedInto(
        *prepared, window, pref, &workspace, &report);
    MOCHE_FUZZ_CHECK(
        status.code() == event.explain_status.code(),
        "stream %zu tick %llu: event status %s, re-derived %s", s,
        static_cast<unsigned long long>(event.tick),
        moche::StatusCodeToString(event.explain_status.code()),
        moche::StatusCodeToString(status.code()));
    if (status.ok()) {
      MOCHE_FUZZ_CHECK(report.k == event.report.k &&
                           report.k_hat == event.report.k_hat &&
                           report.explanation.indices ==
                               event.report.explanation.indices,
                       "stream %zu tick %llu: re-derived explanation "
                       "differs (k %zu/%zu k_hat %zu/%zu)",
                       s, static_cast<unsigned long long>(event.tick),
                       report.k, event.report.k, report.k_hat,
                       event.report.k_hat);
    }
    if (sketched) {
      auto direct = moche::ks::Run(references[s], window, options.alpha);
      MOCHE_FUZZ_CHECK(direct.ok(), "mirror recompute failed: %s",
                       direct.status().message().c_str());
      const moche::KsOutcome& got = event.outcome;
      MOCHE_FUZZ_CHECK(got.statistic == direct->statistic &&
                           got.threshold == direct->threshold &&
                           got.reject == direct->reject &&
                           got.n == direct->n && got.m == direct->m,
                       "stream %zu tick %llu: sketched event outcome "
                       "diverges from ks::Run (D=%.17g vs %.17g)",
                       s, static_cast<unsigned long long>(event.tick),
                       got.statistic, direct->statistic);
    }
  }
  return 0;
}
