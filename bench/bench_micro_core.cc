// Micro suite for the core primitives and the two ablations, on the shared
// bench runner (bench/runner.h):
//  * KS statistic (sorted-merge) and RemovalKs re-evaluation, the latter
//    also with a w = 1000 window against n = 5000 and 100000 references,
//  * SortDoubles on a 100k reference (plain and tie-heavy) and on w = 1000
//    windows,
//  * Theorem 1 existence check and Theorem 2 condition,
//  * phase 1 with/without the binary-searched lower bound (MOCHE vs
//    MOCHE_ns), which also covers the SizeScan incremental size walk,
//  * phase 2 with incremental vs paper-faithful full Theorem 3 checks,
//  * end-to-end Explain,
//  * the prepared-explain hot path (one prepared reference, one recycled
//    ExplainWorkspace + report) and its steady-state allocation count —
//    `expl.steady_allocs` counts heap allocation calls per warmed-up
//    ExplainPreparedInto call via the alloc_probe.h operator-new hooks;
//    the zero-allocation pipeline keeps it at exactly 0,
//  * a prepared explain shaped like one exact_fleet event in monitor_bench
//    (w = 1000 window, alpha = 0.001) against references of n = 5000,
//    100000 (the exact_fleet shape) and 1000000 values, which shows how
//    an explanation's cost grows with n when n >> m.
//
// Usage: bench_micro_core [--quick]
//
// Emits BENCH_micro_core.json (see docs/BENCHMARKS.md for the schema and
// how to read a before/after pair). Per-operation metrics report seconds
// per operation ("s/op"); each repetition runs the same deterministic
// operation batch, so medians are comparable across runs and commits.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "alloc_probe.h"
#include "core/bounds.h"
#include "core/builder.h"
#include "core/moche.h"
#include "core/size_search.h"
#include "datasets/synthetic.h"
#include "ks/ks_test.h"
#include "runner.h"
#include "util/rng.h"
#include "util/sort.h"

namespace {

using namespace moche;

// One failing instance per size, shared across workloads.
const KsInstance& InstanceForSize(size_t w) {
  static std::map<size_t, KsInstance> cache;
  auto it = cache.find(w);
  if (it == cache.end()) {
    datasets::DriftOptions opt;
    opt.size = w;
    opt.contamination = 0.05;
    opt.seed = 42 + w;
    auto inst = datasets::MakeKiferDriftInstance(opt);
    it = cache.emplace(w, inst.ok() ? *inst : KsInstance{}).first;
  }
  return it->second;
}

const PreferenceList& PreferenceForSize(size_t w) {
  static std::map<size_t, PreferenceList> cache;
  auto it = cache.find(w);
  if (it == cache.end()) {
    Rng rng(7 + w);
    it = cache.emplace(w, RandomPreference(w, &rng)).first;
  }
  return it->second;
}

struct Workloads {
  std::vector<size_t> primitive_sizes;  // KS / RemovalKs / Theorem checks
  std::vector<size_t> phase1_sizes;
  std::vector<size_t> phase2_sizes;
  std::vector<size_t> e2e_sizes;
  bench::RunnerOptions reps;
};

Workloads FullWorkloads() {
  Workloads w;
  w.primitive_sizes = {1000, 10000, 100000};
  w.phase1_sizes = {1000, 10000, 50000};
  w.phase2_sizes = {1000, 10000};
  w.e2e_sizes = {1000, 10000, 100000};
  w.reps.warmup = 1;
  w.reps.repetitions = 7;
  return w;
}

Workloads QuickWorkloads() {
  Workloads w;
  w.primitive_sizes = {1000, 5000};
  w.phase1_sizes = {1000, 5000};
  w.phase2_sizes = {1000};
  w.e2e_sizes = {1000, 5000};
  w.reps.warmup = 1;
  w.reps.repetitions = 3;
  return w;
}

// One exact_fleet event's shape: an N(0,1) reference of `ref_size` values
// and a w = 1000 window whose last 15% is a transient N(3, 0.5) spike,
// tested at alpha = 0.001.
constexpr size_t kFleetWindow = 1000;
constexpr double kFleetAlpha = 0.001;

void DrawFleetShape(size_t ref_size, Rng* rng, std::vector<double>* reference,
                    std::vector<double>* window) {
  reference->resize(ref_size);
  for (double& v : *reference) v = rng->Normal();
  window->resize(kFleetWindow);
  for (size_t i = 0; i < kFleetWindow; ++i) {
    (*window)[i] = i < kFleetWindow * 85 / 100 ? rng->Normal()
                                               : rng->Normal(3.0, 0.5);
  }
}

// Batch size for O(n + m) primitives: keeps one repetition around a few
// milliseconds so the median is stable without dragging the suite out.
size_t OpsFor(size_t w) { return std::max<size_t>(4, 400000 / w); }

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 1;
    }
  }
  const bool quick = bench::QuickMode(argc, argv);
  const Workloads wl = quick ? QuickWorkloads() : FullWorkloads();
  std::vector<bench::BenchResult> results;
  const std::string kBench = "micro_core";

  std::printf("=== Core micro benchmarks (%s mode) ===\n",
              quick ? "quick" : "full");

  for (size_t w : wl.primitive_sizes) {
    const KsInstance& inst = InstanceForSize(w);
    std::vector<double> r = inst.reference;
    std::vector<double> t = inst.test;
    std::sort(r.begin(), r.end());
    std::sort(t.begin(), t.end());
    const size_t ops = OpsFor(w);

    volatile double sink = 0.0;
    auto stats = bench::Measure(
        [&] {
          for (size_t i = 0; i < ops; ++i) sink = ks::StatisticSorted(r, t);
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "ks_statistic.w" + std::to_string(w), stats, 1,
                        static_cast<double>(ops), "s/op");

    RemovalKs removal(inst.reference, inst.test, inst.alpha);
    stats = bench::Measure(
        [&] {
          for (size_t i = 0; i < ops; ++i) {
            sink = removal.CurrentOutcome().statistic;
          }
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "removal_ks.reevaluate.w" + std::to_string(w), stats,
                        1, static_cast<double>(ops), "s/op");

    auto frame = CumulativeFrame::Build(inst.reference, inst.test);
    BoundsEngine engine(*frame, inst.alpha);
    volatile bool bsink = false;
    stats = bench::Measure(
        [&] {
          // The same deterministic h cycle every repetition.
          size_t h = 1;
          for (size_t i = 0; i < ops; ++i) {
            bsink = engine.ExistsQualified(h);
            h = h % (w / 2) + 1;
          }
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "theorem1_check.w" + std::to_string(w), stats, 1,
                        static_cast<double>(ops), "s/op");

    stats = bench::Measure(
        [&] {
          size_t h = 1;
          for (size_t i = 0; i < ops; ++i) {
            bsink = engine.NecessaryCondition(h);
            h = h % (w / 2) + 1;
          }
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "theorem2_condition.w" + std::to_string(w), stats, 1,
                        static_cast<double>(ops), "s/op");
    std::printf("  primitives w=%zu done\n", w);
  }

  // RemovalKs re-tests with n >> m: the baselines' and the brute-force
  // oracle's inner loop against a large reference, in the fleet shape;
  // ks_statistic is the control row.
  for (size_t ref_size : {size_t{5000}, size_t{100000}}) {
    Rng rng(2024);
    std::vector<double> reference;
    std::vector<double> window;
    DrawFleetShape(ref_size, &rng, &reference, &window);
    RemovalKs removal(reference, window, kFleetAlpha);
    const size_t ops = OpsFor(kFleetWindow);
    volatile double sink = 0.0;
    auto stats = bench::Measure(
        [&] {
          for (size_t i = 0; i < ops; ++i) {
            sink = removal.CurrentOutcome().statistic;
          }
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "removal_ks.reevaluate.n" + std::to_string(ref_size) +
                            ".w" + std::to_string(kFleetWindow),
                        stats, 1, static_cast<double>(ops), "s/op");
    std::printf("  removal_ks n=%zu w=%zu done\n", ref_size, kFleetWindow);
  }

  // The one double sort (util/sort.h) on the shapes the library sorts: an
  // N(0,1) reference of 100000 values (exact_fleet's, sorted once per
  // Prepare), the same values rounded to 0.1 (heavy ties), and w = 1000
  // N(0,1) windows (a sketched push sorts one). The windows are 64
  // distinct draws, so no run replays one input's branch history. Each
  // op copies its input into a warm buffer and sorts it there;
  // ks_statistic is the control row.
  {
    constexpr size_t kRefSize = 100000;
    constexpr size_t kWindows = 64;
    Rng rng(31);
    std::vector<double> normal(kRefSize);
    std::vector<double> ties(kRefSize);
    for (size_t i = 0; i < kRefSize; ++i) {
      normal[i] = rng.Normal();
      ties[i] = std::round(normal[i] * 10.0) / 10.0;
    }
    std::vector<double> windows(kWindows * kFleetWindow);
    for (double& v : windows) v = rng.Normal();
    std::vector<double> buffer;
    const std::pair<const char*, const std::vector<double>*> references[] = {
        {"sort.n100000", &normal}, {"sort.ties.n100000", &ties}};
    for (const auto& [metric, input] : references) {
      auto stats = bench::Measure(
          [&] {
            buffer.assign(input->begin(), input->end());
            SortDoubles(buffer.data(), buffer.size());
          },
          wl.reps);
      bench::AppendTiming(&results, kBench, metric, stats, 1, 1.0, "s/op");
    }
    auto stats = bench::Measure(
        [&] {
          for (size_t w = 0; w < kWindows; ++w) {
            const double* window = windows.data() + w * kFleetWindow;
            buffer.assign(window, window + kFleetWindow);
            SortDoubles(buffer.data(), buffer.size());
          }
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "sort.w" + std::to_string(kFleetWindow), stats, 1,
                        static_cast<double>(kWindows), "s/op");
    std::printf("  sort done\n");
  }

  // Ablation: phase 1 with the Theorem 2 lower bound, and the MOCHE_ns
  // scan from h = 1 (both through SizeSearcher, i.e. the production path).
  for (size_t w : wl.phase1_sizes) {
    const KsInstance& inst = InstanceForSize(w);
    auto frame = CumulativeFrame::Build(inst.reference, inst.test);
    BoundsEngine engine(*frame, inst.alpha);
    SizeSearcher searcher(engine);
    volatile bool bsink = false;

    auto stats = bench::Measure(
        [&] { bsink = searcher.FindSize(true).ok(); }, wl.reps);
    bench::AppendTiming(&results, kBench,
                        "phase1.lower_bound.w" + std::to_string(w), stats, 1,
                        1.0, "s/op");

    stats = bench::Measure(
        [&] { bsink = searcher.FindSize(false).ok(); }, wl.reps);
    bench::AppendTiming(&results, kBench, "phase1.ns.w" + std::to_string(w),
                        stats, 1, 1.0, "s/op");
    std::printf("  phase1 w=%zu done\n", w);
  }

  // Ablation: phase 2 with incremental vs paper-faithful Theorem 3 checks.
  for (size_t w : wl.phase2_sizes) {
    const KsInstance& inst = InstanceForSize(w);
    auto frame = CumulativeFrame::Build(inst.reference, inst.test);
    BoundsEngine engine(*frame, inst.alpha);
    auto size = SizeSearcher(engine).FindSize();
    if (!size.ok()) {
      std::fprintf(stderr, "phase1 failed at w=%zu: %s\n", w,
                   size.status().ToString().c_str());
      return 1;
    }
    const PreferenceList& pref = PreferenceForSize(w);
    volatile bool bsink = false;

    auto stats = bench::Measure(
        [&] {
          bsink = BuildMostComprehensible(engine, size->k, inst.test, pref,
                                          /*incremental_check=*/true)
                      .ok();
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "phase2.incremental.w" + std::to_string(w), stats, 1,
                        1.0, "s/op");

    stats = bench::Measure(
        [&] {
          bsink = BuildMostComprehensible(engine, size->k, inst.test, pref,
                                          /*incremental_check=*/false)
                      .ok();
        },
        wl.reps);
    bench::AppendTiming(&results, kBench, "phase2.full.w" + std::to_string(w),
                        stats, 1, 1.0, "s/op");
    std::printf("  phase2 w=%zu done\n", w);
  }

  for (size_t w : wl.e2e_sizes) {
    const KsInstance& inst = InstanceForSize(w);
    const PreferenceList& pref = PreferenceForSize(w);
    Moche engine;
    volatile bool bsink = false;
    auto stats = bench::Measure(
        [&] { bsink = engine.Explain(inst, pref).ok(); }, wl.reps);
    bench::AppendTiming(&results, kBench, "explain.e2e.w" + std::to_string(w),
                        stats, 1, 1.0, "s/op");
    std::printf("  explain w=%zu done\n", w);
  }

  // The prepared-explain hot path: the reference is validated and sorted
  // once, and one workspace + report pair is recycled across calls — the
  // steady state of the Section 6 sweeps and the stream monitor.
  // expl.steady_allocs counts heap allocation calls per warmed-up call
  // (exactly 0 under the zero-allocation pipeline), aggregated across the
  // measured sizes.
  size_t steady_allocs_total = 0;
  size_t steady_allocs_ops = 0;
  for (size_t w : wl.e2e_sizes) {
    const KsInstance& inst = InstanceForSize(w);
    const PreferenceList& pref = PreferenceForSize(w);
    Moche engine;
    auto prepared = engine.Prepare(inst.reference, inst.alpha);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed at w=%zu: %s\n", w,
                   prepared.status().ToString().c_str());
      return 1;
    }
    ExplainWorkspace workspace;
    MocheReport report;
    volatile bool bsink = false;
    auto stats = bench::Measure(
        [&] {
          bsink = engine
                      .ExplainPreparedInto(*prepared, inst.test, pref,
                                           &workspace, &report)
                      .ok();
        },
        wl.reps);
    bench::AppendTiming(&results, kBench,
                        "explain.prepared.w" + std::to_string(w), stats, 1,
                        1.0, "s/op");

    // Allocation steady state: everything is warm after Measure's runs.
    const size_t kAllocOps = 10;
    bench::AllocationProbe probe;
    for (size_t i = 0; i < kAllocOps; ++i) {
      bsink = engine
                  .ExplainPreparedInto(*prepared, inst.test, pref, &workspace,
                                       &report)
                  .ok();
    }
    const size_t allocs = probe.Delta();
    steady_allocs_total += allocs;
    steady_allocs_ops += kAllocOps;
    bench::AppendRecord(&results, kBench,
                        "expl.steady_allocs.w" + std::to_string(w),
                        static_cast<double>(allocs) /
                            static_cast<double>(kAllocOps),
                        "count", 1);
    std::printf("  explain.prepared w=%zu done (%zu allocs / %zu ops)\n", w,
                allocs, kAllocOps);
  }
  bench::AppendRecord(&results, kBench, "expl.steady_allocs",
                      static_cast<double>(steady_allocs_total) /
                          static_cast<double>(steady_allocs_ops),
                      "count", 1);

  // Exact_fleet-shaped explanations: an N(0,1) reference and a window
  // whose last 15% is a transient spike. Unlike explain.prepared.wN
  // (n = m), n >> m here: the n5000 / n100000 / n1000000 rows track how the
  // per-explanation cost grows with the reference at a fixed w = 1000.
  for (size_t ref_size : {size_t{5000}, size_t{100000}, size_t{1000000}}) {
    Rng rng(2024);
    std::vector<double> reference;
    std::vector<double> window;
    DrawFleetShape(ref_size, &rng, &reference, &window);
    const PreferenceList pref = RandomPreference(kFleetWindow, &rng);
    Moche engine;
    auto prepared = engine.Prepare(reference, kFleetAlpha);
    ExplainWorkspace workspace;
    MocheReport report;
    if (!prepared.ok() || !engine
                               .ExplainPreparedInto(*prepared, window, pref,
                                                    &workspace, &report)
                               .ok()) {
      std::fprintf(stderr, "explain.prepared.fleet: setup failed\n");
      return 1;
    }
    // One call takes at most milliseconds, so many repetitions stay cheap
    // and steady the median.
    bench::RunnerOptions reps;
    reps.warmup = 3;
    reps.repetitions = quick ? 11 : 41;
    volatile bool bsink = false;
    auto stats = bench::Measure(
        [&] {
          bsink = engine
                      .ExplainPreparedInto(*prepared, window, pref,
                                           &workspace, &report)
                      .ok();
        },
        reps);
    bench::AppendTiming(&results, kBench,
                        "explain.prepared.fleet.n" + std::to_string(ref_size) +
                            ".w" + std::to_string(kFleetWindow),
                        stats, 1, 1.0, "s/op");
    std::printf("  explain.prepared.fleet n=%zu w=%zu done (k=%zu)\n",
                ref_size, kFleetWindow, report.k);
  }

  // The batched evaluation entry point: many same-width windows against
  // one prepared reference in one SoA call (DriftMonitor's kSketched exact
  // fallback calls it with one window).
  // Reported per window; unlike ks_statistic (pre-sorted inputs) each
  // window here pays validation + sort + sweep, so compare this metric
  // against its own history, not against ks_statistic.
  for (size_t w : wl.primitive_sizes) {
    const KsInstance& inst = InstanceForSize(w);
    Moche engine;
    auto prepared = engine.Prepare(inst.reference, inst.alpha);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed at w=%zu: %s\n", w,
                   prepared.status().ToString().c_str());
      return 1;
    }
    const size_t count = std::max<size_t>(4, 65536 / w);
    std::vector<double> soa(count * w);
    Rng rng(13 + w);
    for (double& v : soa) v = rng.Normal(0.2, 1.1);
    WindowBatch batch{soa.data(), count, w};
    ExplainWorkspace workspace;
    std::vector<KsOutcome> outcomes;
    volatile bool bsink = false;
    auto stats = bench::Measure(
        [&] {
          bsink = engine
                      .EvaluateBatchPrepared(*prepared, batch, &workspace,
                                             &outcomes)
                      .ok();
        },
        wl.reps);
    bench::AppendTiming(&results, kBench, "batch_eval.w" + std::to_string(w),
                        stats, 1, static_cast<double>(count), "s/op");
    std::printf("  batch_eval w=%zu done (%zu windows)\n", w, count);
  }

  const Status written = bench::WriteBenchJson("micro_core", results);
  if (!written.ok()) {
    std::fprintf(stderr, "BENCH_micro_core.json: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_micro_core.json (%zu records)\n", results.size());
  return 0;
}
