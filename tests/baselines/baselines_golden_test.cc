// Golden pins for every caller of RemovalKs: the greedy, CornerSearch and
// GRACE baselines over a deterministic slice of the identity corpus
// (bench_corpus_dump's instance grid and seeded preference lists), and the
// brute-force oracle's Explain and MinimalSize on small random instances.
// Each method's status codes and index lists are folded, in order, into a
// 64-bit FNV-1a digest; a change in any re-test decision moves a digest.
// On a mismatch the full trace is printed so the moved answer can be found.
//
// The corpus slice draws through Rng's std:: distributions, exactly like
// bench_corpus_dump, so its digests are pinned for libstdc++ (the
// toolchain every CI leg builds with). The brute-force instances come from
// the portable testing_util draws.

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/corner_search.h"
#include "baselines/grace.h"
#include "baselines/greedy.h"
#include "core/brute_force.h"
#include "datasets/synthetic.h"
#include "testing_util.h"
#include "util/rng.h"

namespace moche {
namespace baselines {
namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void AppendIndices(const std::vector<size_t>& indices, std::string* trace) {
  for (size_t idx : indices) *trace += std::to_string(idx) + ",";
}

void AppendExplanation(const Result<Explanation>& expl, std::string* trace) {
  if (!expl.ok()) {
    *trace += StatusCodeToString(expl.status().code());
  } else {
    *trace += "I=";
    AppendIndices(expl->indices, trace);
  }
  *trace += "\n";
}

struct CorpusCase {
  KsInstance instance;
  PreferenceList preference;
  std::string label;
};

// The first five sizes of bench_corpus_dump's grid for seeds 1 to 3, with the
// same instance seeds and preference seeds.
std::vector<CorpusCase> CorpusSlice() {
  const size_t kSizes[] = {40, 60, 90, 130, 200};
  const double kContaminations[] = {0.05, 0.1, 0.2};
  const double kAlphas[] = {0.05, 0.01};
  std::vector<CorpusCase> cases;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (size_t w : kSizes) {
      for (double p : kContaminations) {
        for (double alpha : kAlphas) {
          datasets::DriftOptions opt;
          opt.size = w;
          opt.contamination = p;
          opt.alpha = alpha;
          opt.seed = seed * 7919 + w;
          auto inst = datasets::MakeKiferDriftInstance(opt);
          if (!inst.ok()) continue;
          Rng rng(opt.seed ^ 0xC0FFEEull);
          CorpusCase c;
          c.instance = std::move(inst).value();
          c.preference = RandomPreference(w, &rng);
          c.label = "seed=" + std::to_string(opt.seed) +
                    " p=" + std::to_string(p) +
                    " alpha=" + std::to_string(alpha);
          cases.push_back(std::move(c));
        }
      }
    }
  }
  return cases;
}

struct Traces {
  std::string greedy;
  std::string corner_search;
  std::string grace;
  size_t ok_greedy = 0;
  size_t ok_corner_search = 0;
  size_t ok_grace = 0;
};

Traces RunCorpusSlice() {
  const GreedyExplainer greedy;
  const CornerSearchExplainer corner_search;
  const GraceExplainer grace;
  Traces traces;
  for (const CorpusCase& c : CorpusSlice()) {
    const auto grd = greedy.Explain(c.instance, c.preference);
    const auto cs = corner_search.Explain(c.instance, c.preference);
    const auto grc = grace.Explain(c.instance, c.preference);
    traces.ok_greedy += grd.ok();
    traces.ok_corner_search += cs.ok();
    traces.ok_grace += grc.ok();
    traces.greedy += c.label + " ";
    AppendExplanation(grd, &traces.greedy);
    traces.corner_search += c.label + " ";
    AppendExplanation(cs, &traces.corner_search);
    traces.grace += c.label + " ";
    AppendExplanation(grc, &traces.grace);
  }
  return traces;
}

TEST(BaselinesGoldenTest, CorpusSliceAnswersArePinned) {
  const Traces traces = RunCorpusSlice();
  // Non-vacuous: most of the slice must actually produce explanations.
  EXPECT_GE(traces.ok_greedy, 60u);
  EXPECT_GE(traces.ok_corner_search, 60u);
  EXPECT_GE(traces.ok_grace, 60u);
  EXPECT_EQ(Fnv1a(traces.greedy), 12407819155819687851ull) << traces.greedy;
  EXPECT_EQ(Fnv1a(traces.corner_search), 8332296568227727912ull)
      << traces.corner_search;
  EXPECT_EQ(Fnv1a(traces.grace), 15678813253374107241ull) << traces.grace;
}

TEST(BaselinesGoldenTest, BruteForceAnswersArePinned) {
  std::mt19937_64 engine(testing_util::kTestSeed + 21);
  const BruteForceExplainer brute;
  std::string trace;
  size_t explained = 0;
  for (int rep = 0; rep < 120; ++rep) {
    const size_t n =
        static_cast<size_t>(testing_util::PortableInteger(engine, 6, 20));
    const size_t m =
        static_cast<size_t>(testing_util::PortableInteger(engine, 3, 12));
    // A small tie-heavy alphabet, with T shifted up so most draws fail.
    KsInstance instance;
    instance.alpha = rep % 2 == 0 ? 0.05 : 0.3;
    for (size_t i = 0; i < n; ++i) {
      instance.reference.push_back(
          static_cast<double>(testing_util::PortableInteger(engine, 0, 6)));
    }
    for (size_t i = 0; i < m; ++i) {
      instance.test.push_back(
          static_cast<double>(testing_util::PortableInteger(engine, 3, 9)));
    }
    PreferenceList preference = IdentityPreference(m);
    for (size_t i = m; i > 1; --i) {
      const size_t j = static_cast<size_t>(testing_util::PortableInteger(
          engine, 0, static_cast<int64_t>(i) - 1));
      std::swap(preference[i - 1], preference[j]);
    }
    const auto expl = brute.Explain(instance, preference);
    explained += expl.ok();
    AppendExplanation(expl, &trace);
    const auto size = brute.MinimalSize(instance);
    if (size.ok()) {
      trace += "k=" + std::to_string(*size) + "\n";
      ASSERT_TRUE(expl.ok());
      EXPECT_EQ(expl->indices.size(), *size);
    } else {
      trace += std::string(StatusCodeToString(size.status().code())) + "\n";
    }
  }
  EXPECT_GE(explained, 60u);
  EXPECT_EQ(Fnv1a(trace), 18125181472394838695ull) << trace;
}

}  // namespace
}  // namespace baselines
}  // namespace moche
