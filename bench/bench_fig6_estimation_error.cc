// Reproduces Figure 6: box plots of the estimation error EE = k - k_hat
// (how far Theorem 2's binary-searched lower bound sits below the true
// explanation size) as a function of the test-set size.
//
// Paper shape: for >25% of failed tests EE = 0; for >75% EE <= 1; the
// worst observed EE is 6 (at test size 2000); mean EE < 1 for large sizes.

#include <cstdio>

#include "bench_common.h"
#include "core/moche.h"
#include "harness/runner.h"
#include "util/stats.h"
#include "util/string_util.h"

int main() {
  using namespace moche;
  std::printf("=== Figure 6: estimation error EE = k - k_hat ===\n\n");

  const std::vector<ts::Dataset> datasets =
      ts::MakeAllNabLikeDatasets(bench::kExperimentSeed, 0.5);
  Moche engine;
  ExplainWorkspace workspace;  // phase-1 scratch, recycled across instances

  harness::AsciiTable table(
      {"Test size", "#tests", "min [q1 | med | q3 ] max (mean)"});
  const std::vector<size_t> window_sizes{100, 200, 300, 500, 1000, 1500,
                                         2000};
  for (size_t w : window_sizes) {
    std::vector<double> errors;
    for (const ts::Dataset& ds : datasets) {
      harness::CollectOptions collect;
      collect.window_sizes = {w};
      collect.sample_per_combination = 3;
      collect.seed = bench::kExperimentSeed + w;
      auto instances = harness::CollectFailedInstances(ds, collect);
      if (!instances.ok()) continue;
      for (const auto& inst : *instances) {
        auto prepared =
            engine.Prepare(inst.instance.reference, inst.instance.alpha);
        if (!prepared.ok()) continue;
        auto size = engine.FindExplanationSizeInto(
            *prepared, inst.instance.test, &workspace);
        if (!size.ok()) continue;
        errors.push_back(static_cast<double>(size->k - size->k_hat));
      }
    }
    if (errors.empty()) continue;
    table.AddRow({StrFormat("%zu", w), StrFormat("%zu", errors.size()),
                  harness::RenderBoxPlot(Summarize(errors))});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper shape: q1 = 0 (lower bound exact for >25%% of tests), "
              "q3 <= 1,\n"
              "max EE 6, mean < 1 for large test sets.\n");
  return 0;
}
