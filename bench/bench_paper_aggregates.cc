// Reproduces the paper's three aggregate results from one run of the
// standard experiment (bench::RunStandardExperiment):
//   * Figure 2: average Is-Smallest-Explanation (ISE) per method and
//     dataset family, over the failed tests where every method produced an
//     explanation (the paper's 847-of-2690 rule). Larger is better.
//   * Figure 3: average RMSE between the ECDFs of R and T \ I per method and
//     dataset family, over the instances each method explained. Smaller is
//     better.
//   * Table 2: the reverse factor (RF), the fraction of failed KS tests a
//     method reverses. Only the budgeted methods CS and GRC can fall below 1.
//
// Paper shape: MOCHE has ISE = 1.0 everywhere, the smallest RMSE, and
// RF = 1; GRC is the best baseline; S2G/STMP/D3 are poor. The paper's CS
// and GRC RFs (0.80-0.93 and 0.59-0.82) come from a 24 h budget with top-100
// candidate pools; our iteration budgets are smaller (see
// docs/BENCHMARKS.md), so CS > GRC and both < 1 is the shape to check.
//
// ISE(M) = 1.00 and RF(M) = 1.00 hold by construction: MOCHE returns the
// most comprehensible explanation, and at the experiment's alpha = 0.05
// (below 2/e^2, Proposition 1) one always exists. The binary exits 1 when
// either breaks on any dataset; that is a bug, not noise.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/string_util.h"

namespace moche {
namespace {

// The table's column header: dataset, instance count, then one column per
// method in roster order.
std::vector<std::string> PerMethodHeader(
    const std::vector<bench::DatasetAggregates>& per_dataset) {
  std::vector<std::string> header{"Dataset", "#tests"};
  if (!per_dataset.empty()) {
    for (const auto& m : per_dataset.front().aggregates) {
      header.push_back(m.method);
    }
  }
  return header;
}

void PrintFigure2(const std::vector<bench::DatasetAggregates>& per_dataset) {
  std::printf("=== Figure 2: average ISE per dataset (larger = better) ===\n\n");
  harness::AsciiTable table(PerMethodHeader(per_dataset));
  for (const auto& ds : per_dataset) {
    std::vector<std::string> row{ds.dataset, StrFormat("%zu", ds.instances)};
    for (const auto& m : ds.aggregates) {
      row.push_back(m.ise_counted > 0 ? bench::Fmt(m.avg_ise) : "n/a");
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("ISE averaged over the failed tests where ALL methods "
              "produced an explanation.\n");
  std::printf("Paper shape: M = 1.00 on every dataset; GRC best baseline; "
              "S2G/STMP/D3 lowest.\n\n");
}

void PrintFigure3(const std::vector<bench::DatasetAggregates>& per_dataset) {
  std::printf(
      "=== Figure 3: average ECDF RMSE per dataset (smaller = better) "
      "===\n\n");
  std::vector<std::string> header = PerMethodHeader(per_dataset);
  header.push_back("Smallest");
  harness::AsciiTable table(header);
  size_t m_smallest = 0;
  for (const auto& ds : per_dataset) {
    std::vector<std::string> row{ds.dataset, StrFormat("%zu", ds.instances)};
    // The smallest RMSE as printed, so methods tied at the table's
    // precision are listed together.
    double best = 0.0;
    std::vector<std::string> best_methods;
    for (const auto& m : ds.aggregates) {
      if (m.produced == 0) {
        row.push_back("n/a");
        continue;
      }
      row.push_back(bench::Fmt(m.avg_rmse, 3));
      double shown = 0.0;
      ParseDouble(row.back(), &shown);
      if (best_methods.empty() || shown < best) {
        best = shown;
        best_methods.clear();
      }
      if (shown == best) best_methods.push_back(m.method);
    }
    if (std::find(best_methods.begin(), best_methods.end(), "M") !=
        best_methods.end()) {
      ++m_smallest;
    }
    row.push_back(best_methods.empty() ? "n/a" : Join(best_methods, "/"));
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("RMSE averaged over the instances each method explained, so a "
              "method with RF < 1\n(Table 2) is averaged over a smaller "
              "subset than M.\n");
  std::printf("Paper shape: M smallest on every dataset; GRC best "
              "baseline.\n");
  std::printf("Here: M smallest on %zu of %zu datasets.\n\n", m_smallest,
              per_dataset.size());
}

void PrintTable2(const std::vector<bench::DatasetAggregates>& per_dataset) {
  std::printf("=== Table 2: reverse factor (larger = better) ===\n\n");
  std::vector<std::string> header{"Method"};
  for (const auto& ds : per_dataset) header.push_back(ds.dataset);
  harness::AsciiTable table(header);
  if (!per_dataset.empty()) {
    const size_t num_methods = per_dataset.front().aggregates.size();
    for (size_t j = 0; j < num_methods; ++j) {
      std::vector<std::string> row{per_dataset.front().aggregates[j].method};
      for (const auto& ds : per_dataset) {
        row.push_back(bench::Fmt(ds.aggregates[j].reverse_factor));
      }
      table.AddRow(std::move(row));
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper: RF = 1.00 for M/GRD/S2G/STMP/D3 on all datasets;\n");
  std::printf("       CS 0.80-0.93 and GRC 0.59-0.82 under the paper's "
              "larger budgets.\n\n");
}

// Counts the datasets on which ISE(M) or RF(M) is not exactly 1, printing
// each to stderr. Both are averages of 0/1 outcomes, so 1.0 is exact.
int CountByConstructionFailures(
    const std::vector<bench::DatasetAggregates>& per_dataset) {
  int failures = 0;
  for (const auto& ds : per_dataset) {
    for (const auto& m : ds.aggregates) {
      if (m.method != "M") continue;
      if (m.ise_counted > 0 && m.avg_ise != 1.0) {
        std::fprintf(stderr, "FAIL: ISE(M) = %s on %s; it is 1 by "
                     "construction\n", bench::Fmt(m.avg_ise, 4).c_str(),
                     ds.dataset.c_str());
        ++failures;
      }
      if (m.attempted > 0 && m.reverse_factor != 1.0) {
        std::fprintf(stderr, "FAIL: RF(M) = %s on %s; it is 1 by "
                     "construction\n", bench::Fmt(m.reverse_factor, 4).c_str(),
                     ds.dataset.c_str());
        ++failures;
      }
    }
  }
  return failures;
}

}  // namespace
}  // namespace moche

int main() {
  using namespace moche;
  const auto per_dataset = bench::RunStandardExperiment();
  PrintFigure2(per_dataset);
  PrintFigure3(per_dataset);
  PrintTable2(per_dataset);
  if (CountByConstructionFailures(per_dataset) > 0) return 1;
  std::printf("By construction: ISE(M) = 1.00 and RF(M) = 1.00 on every "
              "dataset.\n");
  return 0;
}
