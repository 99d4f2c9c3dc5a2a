// Full-precision identity corpus: 399 deterministic failing KS instances,
// each explained under three engine configurations, dumped with every
// decision-relevant number at round-trip precision (17 significant digits,
// via the locale-independent FormatG17 so a comma-decimal LC_NUMERIC can
// never corrupt the dump). A perf PR that claims "bit-identical reports"
// regenerates this dump before and after the change and diffs the two
// files byte-for-byte (docs/BENCHMARKS.md).
//
// Usage: bench_corpus_dump [--out FILE] [--instances N] [--answers-only]
//
// --answers-only drops the work counters (probe=, full=, steps=): where
// SizeScan's O(1) probe and Theorem 3's recursion stop depends on how the
// cumulative frame is laid out, not on the answer. Every other field — k,
// k_hat, the Theorem 1/2 check counts, the candidate count, both KS
// outcomes and I — is kept, so a layout change is gated on the
// answers-only dump staying byte-identical.
//
// The corpus is a deterministic grid over instance size, contamination and
// seed (Kifer-style synthetic drift, the paper's Section 6.4 workload) with
// a seeded random preference list per instance; nothing depends on wall
// time, the host, or iteration order of any container.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/moche.h"
#include "datasets/synthetic.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace moche;

namespace {

struct Config {
  const char* name;
  MocheOptions options;
};

void DumpReport(std::FILE* f, const char* config, const MocheReport& r,
                bool answers_only) {
  std::fprintf(f, "  %s k=%zu k_hat=%zu t1=%zu t2=%zu", config, r.k,
               r.k_hat, r.size_stats.theorem1_checks,
               r.size_stats.theorem2_checks);
  if (!answers_only) {
    std::fprintf(f, " probe=%zu full=%zu", r.size_stats.probe_refutations,
                 r.size_stats.full_scans);
  }
  std::fprintf(f, " cand=%zu", r.build_stats.candidates_checked);
  if (!answers_only) {
    std::fprintf(f, " steps=%zu", r.build_stats.recursion_steps);
  }
  std::fprintf(f, "\n");
  std::fprintf(f, "  %s D=%s p=%s loc=%s after_D=%s after_p=%s\n", config,
               FormatG17(r.original.statistic).c_str(),
               FormatG17(r.original.threshold).c_str(),
               FormatG17(r.original.location).c_str(),
               FormatG17(r.after.statistic).c_str(),
               FormatG17(r.after.threshold).c_str());
  std::fprintf(f, "  %s I=", config);
  for (size_t idx : r.explanation.indices) std::fprintf(f, "%zu,", idx);
  std::fprintf(f, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "corpus_dump.txt";
  size_t want = 399;
  bool answers_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--instances") == 0 && i + 1 < argc) {
      want = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--answers-only") == 0) {
      answers_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--instances N] [--answers-only]\n",
                   argv[0]);
      return 1;
    }
  }

  const Config configs[] = {
      {"lb+inc", {}},
      {"ns+inc", {/*use_lower_bound=*/false, true, true}},
      {"lb+full", {true, /*incremental_partial_check=*/false, true}},
  };

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }

  const size_t sizes[] = {40, 60, 90, 130, 200, 300, 450, 700, 1000};
  const double contaminations[] = {0.05, 0.1, 0.2};
  const double alphas[] = {0.05, 0.01};
  size_t dumped = 0;
  // Deterministic grid; seeds advance until `want` failing instances dumped.
  for (uint64_t seed = 1; dumped < want && seed < 4096; ++seed) {
    for (size_t w : sizes) {
      for (double p : contaminations) {
        for (double alpha : alphas) {
          if (dumped >= want) break;
          datasets::DriftOptions opt;
          opt.size = w;
          opt.contamination = p;
          opt.alpha = alpha;
          opt.seed = seed * 7919 + w;
          auto inst = datasets::MakeKiferDriftInstance(opt);
          if (!inst.ok()) continue;
          Rng rng(opt.seed ^ 0xC0FFEEull);
          const PreferenceList pref = RandomPreference(w, &rng);
          std::fprintf(f, "instance %zu w=%zu p=%s alpha=%s seed=%" PRIu64
                          "\n",
                       dumped, w, FormatG17(p).c_str(),
                       FormatG17(alpha).c_str(), opt.seed);
          for (const Config& config : configs) {
            const Moche engine(config.options);
            auto report = engine.Explain(*inst, pref);
            if (!report.ok()) {
              std::fprintf(f, "  %s status=%s\n", config.name,
                           StatusCodeToString(report.status().code()));
              continue;
            }
            DumpReport(f, config.name, *report, answers_only);
          }
          ++dumped;
        }
      }
    }
  }
  std::fclose(f);
  std::printf("dumped %zu instances to %s\n", dumped, out_path.c_str());
  return dumped == want ? 0 : 1;
}
