// Differential oracle: the three Explain entry points against each other
// and against ks::Run, plus workspace recycling across size-mixed windows.
//
// Moche::Explain, ExplainInto and Prepare + ExplainPreparedInto all
// promise bit-identical reports on the same inputs (the *Into paths merely
// relocate scratch into a caller-owned workspace). This target drives a
// sequence of windows of DIFFERENT sizes through ONE recycled workspace
// and ONE recycled report — the steady state of the stream monitor — and
// fails if any path diverges from the allocation-per-call baseline in
// status code, explanation indices, sizes, outcomes (bit-exact statistics)
// or search counters. FindExplanationSizeInto must agree with the report's
// status and phase-1 numbers, and EvaluateBatchPrepared must match ks::Run
// per window.
//
// The report's two KS outcomes are swept over the explanation's cumulative
// frame (C_T, then C_T - C_I) rather than recomputed from the samples, so
// they are also checked against the independent ks::Run(R, T) and
// ks::Run(R, T \ I): statistic and threshold bit-exact, location by value.

#include <cstring>
#include <utility>
#include <vector>

#include "core/moche.h"
#include "core/workspace.h"
#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void CheckOutcomesIdentical(const moche::KsOutcome& a,
                            const moche::KsOutcome& b, const char* what,
                            size_t window) {
  MOCHE_FUZZ_CHECK(SameBits(a.statistic, b.statistic),
                   "window %zu: %s statistic %.17g != %.17g", window, what,
                   a.statistic, b.statistic);
  MOCHE_FUZZ_CHECK(SameBits(a.threshold, b.threshold),
                   "window %zu: %s threshold differs", window, what);
  MOCHE_FUZZ_CHECK(a.reject == b.reject && a.location == b.location &&
                       a.n == b.n && a.m == b.m,
                   "window %zu: %s outcome fields differ", window, what);
}

void CheckReportsIdentical(const moche::MocheReport& a,
                           const moche::MocheReport& b, const char* what,
                           size_t window) {
  MOCHE_FUZZ_CHECK(a.explanation.indices == b.explanation.indices,
                   "window %zu: %s explanation indices differ", window, what);
  MOCHE_FUZZ_CHECK(a.k == b.k && a.k_hat == b.k_hat,
                   "window %zu: %s sizes differ (k %zu/%zu k_hat %zu/%zu)",
                   window, what, a.k, b.k, a.k_hat, b.k_hat);
  CheckOutcomesIdentical(a.original, b.original, what, window);
  CheckOutcomesIdentical(a.after, b.after, what, window);
  MOCHE_FUZZ_CHECK(a.size_stats.k == b.size_stats.k &&
                       a.size_stats.k_hat == b.size_stats.k_hat &&
                       a.size_stats.theorem1_checks ==
                           b.size_stats.theorem1_checks &&
                       a.size_stats.theorem2_checks ==
                           b.size_stats.theorem2_checks &&
                       a.size_stats.probe_refutations ==
                           b.size_stats.probe_refutations &&
                       a.size_stats.full_scans == b.size_stats.full_scans,
                   "window %zu: %s size-search counters differ", window,
                   what);
  MOCHE_FUZZ_CHECK(a.build_stats.candidates_checked ==
                           b.build_stats.candidates_checked &&
                       a.build_stats.recursion_steps ==
                           b.build_stats.recursion_steps,
                   "window %zu: %s build counters differ", window, what);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  const size_t n = in.SizeInRange(1, 40);
  const int alphabet = static_cast<int>(in.SizeInRange(1, 8));
  const bool tied = in.Bool();
  std::vector<double> reference;
  if (tied) {
    in.TiedArray(n, alphabet, &reference);
  } else {
    in.FiniteArray(n, &reference);
  }
  const double alpha = in.Alpha();

  // Toggle the ablation knobs too: all configurations promise identical
  // explanations across entry points (and the ablations promise identical
  // explanations outright, which the unit suite covers — here each run
  // self-compares under one configuration).
  moche::MocheOptions options;
  options.use_lower_bound = in.Bool();
  options.incremental_partial_check = in.Bool();
  const moche::Moche engine(options);

  auto prepared = engine.Prepare(reference, alpha);
  MOCHE_FUZZ_CHECK(prepared.ok(), "Prepare rejected a valid reference: %s",
                   prepared.status().message().c_str());

  // ONE workspace and ONE report recycled across windows of mixed sizes —
  // the recycling contract under test.
  moche::ExplainWorkspace workspace;
  moche::MocheReport into_report;
  moche::MocheReport prepared_into_report;

  const size_t windows = in.SizeInRange(1, 4);
  for (size_t w = 0; w < windows; ++w) {
    const size_t m = in.SizeInRange(2, 14);
    std::vector<double> test;
    if (tied) {
      in.TiedArray(m, alphabet, &test);
    } else {
      in.FiniteArray(m, &test);
    }

    // A byte-derived permutation of [0, m) via Fisher-Yates.
    moche::PreferenceList pref = moche::IdentityPreference(m);
    for (size_t i = m; i > 1; --i) {
      std::swap(pref[i - 1], pref[in.SizeInRange(0, i - 1)]);
    }

    auto base = engine.Explain(reference, test, alpha, pref);
    const moche::Status into_status = engine.ExplainInto(
        reference, test, alpha, pref, &workspace, &into_report);
    const moche::Status prepared_into_status = engine.ExplainPreparedInto(
        *prepared, test, pref, &workspace, &prepared_into_report);

    // Phase 1 alone, through the same recycled workspace.
    auto size_into =
        engine.FindExplanationSizeInto(*prepared, test, &workspace);

    MOCHE_FUZZ_CHECK(base.status().code() == into_status.code() &&
                         base.status().code() == prepared_into_status.code() &&
                         base.status().code() == size_into.status().code(),
                     "window %zu: status codes diverge: %s / %s / %s / %s", w,
                     moche::StatusCodeToString(base.status().code()),
                     moche::StatusCodeToString(into_status.code()),
                     moche::StatusCodeToString(prepared_into_status.code()),
                     moche::StatusCodeToString(size_into.status().code()));
    // Internal means phase 1 and phase 2 disagree or the explanation does
    // not reverse the test: a bug on every valid input.
    MOCHE_FUZZ_CHECK(!base.status().IsInternal(), "window %zu: %s", w,
                     base.status().message().c_str());
    auto direct = moche::ks::Run(reference, test, alpha);
    MOCHE_FUZZ_CHECK(direct.ok(), "direct recompute failed: %s",
                     direct.status().message().c_str());
    MOCHE_FUZZ_CHECK(!base.status().IsAlreadyPasses() || !direct->reject,
                     "window %zu: AlreadyPasses but ks::Run rejects", w);
    if (base.ok()) {
      CheckOutcomesIdentical(base->original, *direct, "original vs ks::Run",
                             w);
      std::vector<bool> removed(m, false);
      for (size_t idx : base->explanation.indices) {
        MOCHE_FUZZ_CHECK(idx < m && !removed[idx],
                         "window %zu: explanation index %zu invalid", w, idx);
        removed[idx] = true;
      }
      std::vector<double> remaining;
      for (size_t i = 0; i < m; ++i) {
        if (!removed[i]) remaining.push_back(test[i]);
      }
      auto direct_after = moche::ks::Run(reference, remaining, alpha);
      MOCHE_FUZZ_CHECK(direct_after.ok(), "T \\ I recompute failed: %s",
                       direct_after.status().message().c_str());
      CheckOutcomesIdentical(base->after, *direct_after, "after vs ks::Run",
                             w);

      CheckReportsIdentical(*base, into_report, "ExplainInto", w);
      CheckReportsIdentical(*base, prepared_into_report, "ExplainPreparedInto",
                            w);

      // The phase-1-only entry point must report the same size search.
      MOCHE_FUZZ_CHECK(size_into->k == base->k &&
                           size_into->k_hat == base->k_hat,
                       "window %zu: FindExplanationSizeInto k=%zu k_hat=%zu "
                       "vs report k=%zu k_hat=%zu",
                       w, size_into->k, size_into->k_hat, base->k,
                       base->k_hat);

      // The report's own invariants: the explanation is a valid index set
      // of the claimed size, the original test rejects, the after test
      // passes.
      MOCHE_FUZZ_CHECK(base->explanation.indices.size() == base->k,
                       "window %zu: k=%zu but %zu indices", w, base->k,
                       base->explanation.indices.size());
      MOCHE_FUZZ_CHECK(base->k_hat <= base->k,
                       "window %zu: lower bound k_hat=%zu exceeds k=%zu", w,
                       base->k_hat, base->k);
      MOCHE_FUZZ_CHECK(base->original.reject && !base->after.reject,
                       "window %zu: reject flags wrong (original=%d after=%d)",
                       w, base->original.reject, base->after.reject);
    }
  }

  // EvaluateBatchPrepared: an SoA batch of equal-width windows must match
  // per-window ks::Run bit-exactly, through the same recycled workspace.
  const size_t count = in.SizeInRange(0, 4);
  const size_t width = in.SizeInRange(1, 10);
  std::vector<double> soa;
  if (tied) {
    in.TiedArray(count * width, alphabet, &soa);
  } else {
    in.FiniteArray(count * width, &soa);
  }
  moche::WindowBatch batch{soa.data(), count, width};
  std::vector<moche::KsOutcome> outcomes(3);  // wrong-sized on purpose
  const moche::Status batch_status =
      engine.EvaluateBatchPrepared(*prepared, batch, &workspace, &outcomes);
  MOCHE_FUZZ_CHECK(batch_status.ok(), "EvaluateBatchPrepared failed: %s",
                   batch_status.message().c_str());
  MOCHE_FUZZ_CHECK(outcomes.size() == count,
                   "batch wrote %zu outcomes for %zu windows",
                   outcomes.size(), count);
  for (size_t w = 0; w < count; ++w) {
    std::vector<double> window(soa.begin() + w * width,
                               soa.begin() + (w + 1) * width);
    auto direct = moche::ks::Run(reference, window, alpha);
    MOCHE_FUZZ_CHECK(direct.ok(), "direct recompute failed: %s",
                     direct.status().message().c_str());
    CheckOutcomesIdentical(outcomes[w], *direct, "EvaluateBatchPrepared", w);
  }
  return 0;
}
