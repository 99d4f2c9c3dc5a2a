// The sketch-backed reference headline numbers (docs/SKETCH.md): memory
// footprint of a KLL-sketched reference vs the exact sorted sample,
// prepare cost at reference sizes up to 10M+, certified-triage throughput
// vs the exact O(n) batch path, and the triage quality ledger (certified
// rate, fallback rate, exact-vs-sketch agreement).
//
// Usage: bench_sketch [--reference 10000000] [--window 200]
//                     [--windows 256] [--sketch-k 1024]
//                     [--baseline] [--quick]
//
// --baseline runs the exact path only (no sketch) and emits the shared
// metric names — the committed docs/bench/BENCH_sketch.before.json is a
// full-size --baseline run, the .after.json the same run with the sketch,
// so the pair shows the memory/throughput delta on identical workloads.
//
// Exit status gates the certified contract, not performance: every
// kCertainPass / kCertainFail verdict is cross-checked against the exact
// ks outcome of the same window and ANY disagreement (or a certified
// bracket that misses the exact statistic) exits non-zero —
// `triage.certified_correct` in the JSON carries the same bit for the CI
// baseline diff. `expl.steady_allocs` counts heap allocation calls of one
// warmed-up triage pass over every window (alloc_probe.h) and must stay 0.
//
// Size-dependent metrics embed the reference size in their names
// (prepare.n10000000.exact.median, ...) so the quick-mode CI run and the
// committed full-size baselines never compare across workload scales;
// only the scale-invariant contract metrics (triage.certified_correct,
// triage.agreement, expl.steady_allocs, sketch.k) share names everywhere.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_probe.h"
#include "bench_common.h"
#include "core/moche.h"
#include "core/workspace.h"
#include "runner.h"
#include "sketch/kll_sketch.h"
#include "sketch/sketched_reference.h"
#include "timeseries/generators.h"
#include "util/string_util.h"

using namespace moche;

namespace {

constexpr double kAlpha = 0.05;

struct TriageTally {
  size_t certified_pass = 0;
  size_t certified_fail = 0;
  size_t fallbacks = 0;
  size_t disagreements = 0;
  size_t bracket_misses = 0;
};

// Cross-checks every certified verdict (and bracket) against the exact
// outcome of the same window. A disagreement is a correctness bug in the
// certified bound, never noise — the ±1e-12 slack on the bracket only
// absorbs the printf-roundtrip-free float compare, the verdict check has
// no tolerance at all.
TriageTally CrossCheck(const std::vector<sketch::SketchTriage>& triages,
                       const std::vector<KsOutcome>& outcomes) {
  TriageTally tally;
  for (size_t w = 0; w < triages.size(); ++w) {
    const sketch::SketchTriage& t = triages[w];
    const KsOutcome& exact = outcomes[w];
    switch (t.verdict) {
      case sketch::TriageVerdict::kCertainPass:
        ++tally.certified_pass;
        if (exact.reject) ++tally.disagreements;
        break;
      case sketch::TriageVerdict::kCertainFail:
        ++tally.certified_fail;
        if (!exact.reject) ++tally.disagreements;
        break;
      case sketch::TriageVerdict::kUncertain:
        ++tally.fallbacks;
        break;
    }
    if (t.lower > exact.statistic + 1e-12 ||
        t.upper < exact.statistic - 1e-12) {
      ++tally.bracket_misses;
    }
  }
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  size_t reference_size = 10000000;
  size_t window = 200;
  size_t windows = 256;
  size_t sketch_k = 1024;
  bool baseline = false;
  if (quick) {
    reference_size = 100000;
    window = 100;
    windows = 128;
  }
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](size_t* out) {
      if (i + 1 >= argc) return false;
      *out = static_cast<size_t>(std::atoll(argv[++i]));
      return true;
    };
    bool ok = true;
    if (std::strcmp(argv[i], "--reference") == 0) {
      ok = next(&reference_size);
    } else if (std::strcmp(argv[i], "--window") == 0) {
      ok = next(&window);
    } else if (std::strcmp(argv[i], "--windows") == 0) {
      ok = next(&windows);
    } else if (std::strcmp(argv[i], "--sketch-k") == 0) {
      ok = next(&sketch_k);
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      // already handled by bench::QuickMode
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: %s [--reference N] [--window M] [--windows W] "
                   "[--sketch-k K] [--baseline] [--quick]\n",
                   argv[0]);
      return 1;
    }
  }

  std::printf("=== Sketch-backed references: memory and certified triage "
              "(%s path) ===\n\n",
              baseline ? "exact baseline" : "sketched");
  std::printf("reference: %zu  window: %zu  windows: %zu  sketch k: %zu\n\n",
              reference_size, window, windows, sketch_k);

  // One mean-shift stream: windows before length/2 are in-distribution
  // (certified passes at a sane epsilon), windows after are drifted
  // (certified fails), the boundary windows straddle — all three verdicts
  // get exercised with known proportions.
  const ts::DriftScenario scenario =
      ts::MakeDriftScenario(ts::DriftKind::kMeanShift, bench::kExperimentSeed,
                            reference_size, windows * window);
  const std::vector<double>& reference = scenario.reference;
  if (scenario.observations.size() < windows * window) {
    std::fprintf(stderr, "scenario produced %zu < %zu observations\n",
                 scenario.observations.size(), windows * window);
    return 1;
  }
  const WindowBatch batch{scenario.observations.data(), windows, window};

  const std::string kBench = "sketch";
  const std::string scale = StrFormat("n%zu.", reference_size);
  std::vector<bench::BenchResult> records;
  const auto add_record = [&](const std::string& metric, double value,
                              const char* unit) {
    bench::AppendRecord(&records, kBench, metric, value, unit, 1);
  };

  const Moche engine;
  const bench::RunnerOptions timing{/*warmup=*/1,
                                    /*repetitions=*/quick ? 3u : 3u};

  // Exact prepare: the O(n log n) validate-copy-sort every fresh exact
  // reference pays (the per-repetition copy is part of the real cost).
  const bench::TimingStats prepare_exact = bench::Measure(
      [&] {
        auto prepared = engine.Prepare(reference, kAlpha);
        if (!prepared.ok()) std::exit(1);
      },
      timing);
  bench::AppendTiming(&records, kBench, "prepare." + scale + "exact",
                      prepare_exact, 1);
  auto prepared = engine.Prepare(reference, kAlpha);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const double exact_bytes =
      static_cast<double>(reference.size() * sizeof(double));
  add_record("ref." + scale + "bytes.exact", exact_bytes, "bytes");

  // Exact batch triage: the per-window O(n + m log m) sweep the sketch
  // replaces on certified verdicts.
  ExplainWorkspace workspace;
  std::vector<KsOutcome> outcomes;
  const bench::RunnerOptions batch_timing{/*warmup=*/1,
                                          /*repetitions=*/quick ? 3u : 2u};
  const bench::TimingStats exact_batch = bench::Measure(
      [&] {
        const Status status =
            engine.EvaluateBatchPrepared(*prepared, batch, &workspace,
                                         &outcomes);
        if (!status.ok()) std::exit(1);
      },
      batch_timing);
  const double exact_rate =
      static_cast<double>(windows) / exact_batch.median;
  add_record("exact." + scale + "throughput", exact_rate, "win/s");

  std::printf("exact: prepare %.4fs, %.0f windows/s, %.1f MB resident\n",
              prepare_exact.median, exact_rate, exact_bytes / 1e6);

  if (baseline) {
    // Before-mode: the exact path carries the shared metric names so the
    // committed before/after pair diffs memory and throughput directly.
    add_record("ref." + scale + "bytes", exact_bytes, "bytes");
    add_record("triage." + scale + "throughput", exact_rate, "win/s");

    bench::AllocationProbe probe;
    const Status status =
        engine.EvaluateBatchPrepared(*prepared, batch, &workspace, &outcomes);
    if (!status.ok()) return 1;
    add_record("expl.steady_allocs", static_cast<double>(probe.Delta()),
               "count");

    const Status written = bench::WriteBenchJson(kBench, std::move(records));
    if (!written.ok()) {
      std::fprintf(stderr, "BENCH_%s.json: %s\n", kBench.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote BENCH_%s.json (baseline mode)\n", kBench.c_str());
    return 0;
  }

  // Sketch prepare: one streaming pass, no copy of the sample retained.
  sketch::KllOptions kll_options;
  kll_options.capacity = sketch_k;
  const bench::TimingStats prepare_sketch = bench::Measure(
      [&] {
        auto built =
            sketch::SketchedReference::FromSample(reference, kAlpha,
                                                  kll_options);
        if (!built.ok()) std::exit(1);
      },
      timing);
  bench::AppendTiming(&records, kBench, "prepare." + scale + "sketch",
                      prepare_sketch, 1);
  auto sketched =
      sketch::SketchedReference::FromSample(reference, kAlpha, kll_options);
  if (!sketched.ok()) {
    std::fprintf(stderr, "sketch: %s\n", sketched.status().ToString().c_str());
    return 1;
  }
  const double sketch_bytes = static_cast<double>(sketched->FootprintBytes());
  add_record("ref." + scale + "bytes", sketch_bytes, "bytes");
  add_record("ref." + scale + "compression", exact_bytes / sketch_bytes, "x");
  add_record("sketch." + scale + "epsilon", sketched->epsilon(), "ratio");
  add_record("sketch.k", static_cast<double>(sketch_k), "count");

  // Sketched triage, one TriageSketchedInto call per window as the
  // monitor makes it: the window is copied into a reused buffer (the
  // monitor's ring snapshot), then sorted and swept against the summary —
  // O(m log m + summary) per window, independent of n.
  std::vector<double> window_values;
  std::vector<sketch::SketchTriage> triages(windows);
  const auto triage_all = [&] {
    for (size_t w = 0; w < windows; ++w) {
      const double* begin = batch.data + w * window;
      window_values.assign(begin, begin + window);
      const Status status = engine.TriageSketchedInto(
          *sketched, window_values, &workspace, &triages[w]);
      if (!status.ok()) return false;
    }
    return true;
  };
  const bench::TimingStats sketch_batch = bench::Measure(
      [&] {
        if (!triage_all()) std::exit(1);
      },
      batch_timing);
  const double sketch_rate =
      static_cast<double>(windows) / sketch_batch.median;
  add_record("triage." + scale + "throughput", sketch_rate, "win/s");
  add_record("triage." + scale + "speedup", exact_batch.median / sketch_batch.median,
             "x");

  // Steady-state allocations of one warmed-up triage pass over every
  // window: the Measure warmup above already sized every buffer, so any
  // allocation here is a hot-path regression.
  bench::AllocationProbe probe;
  if (!triage_all()) return 1;
  add_record("expl.steady_allocs", static_cast<double>(probe.Delta()),
             "count");

  // The certified contract, cross-checked window by window.
  const TriageTally tally = CrossCheck(triages, outcomes);
  const size_t certified = tally.certified_pass + tally.certified_fail;
  const bool certified_correct =
      tally.disagreements == 0 && tally.bracket_misses == 0;
  add_record("triage." + scale + "certified_rate",
             static_cast<double>(certified) / static_cast<double>(windows),
             "ratio");
  add_record("triage." + scale + "fallback_rate",
             static_cast<double>(tally.fallbacks) /
                 static_cast<double>(windows),
             "ratio");
  add_record("triage.agreement",
             certified == 0
                 ? 1.0
                 : static_cast<double>(certified - tally.disagreements) /
                       static_cast<double>(certified),
             "ratio");
  add_record("triage.certified_correct", certified_correct ? 1.0 : 0.0,
             "bool");

  std::printf(
      "sketch: prepare %.4fs, %.0f windows/s (%.0fx), %.1f KB resident "
      "(%.0fx smaller), epsilon %.4f\n",
      prepare_sketch.median, sketch_rate,
      exact_batch.median / sketch_batch.median, sketch_bytes / 1e3,
      exact_bytes / sketch_bytes, sketched->epsilon());
  std::printf(
      "triage: %zu certified pass, %zu certified fail, %zu fallbacks "
      "(%.1f%% certified)\n\n",
      tally.certified_pass, tally.certified_fail, tally.fallbacks,
      100.0 * static_cast<double>(certified) / static_cast<double>(windows));

  const Status written = bench::WriteBenchJson(kBench, std::move(records));
  if (!written.ok()) {
    std::fprintf(stderr, "BENCH_%s.json: %s\n", kBench.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_%s.json\n", kBench.c_str());

  if (!certified_correct) {
    std::fprintf(stderr,
                 "\nFAIL: %zu certified verdict(s) disagree with the exact "
                 "ks outcome, %zu bracket(s) miss the exact statistic\n",
                 tally.disagreements, tally.bracket_misses);
    return 1;
  }
  if (certified == 0) {
    std::fprintf(stderr,
                 "\nFAIL: no window certified at all — the triage path "
                 "measured nothing (epsilon %.4f too coarse?)\n",
                 sketched->epsilon());
    return 1;
  }
  return 0;
}
