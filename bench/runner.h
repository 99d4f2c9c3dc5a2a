// The shared benchmark runner: standardized warmup/repetition timing and a
// machine-readable result format, so every bench binary reports comparable,
// regression-trackable numbers instead of free-form text.
//
// A bench times its workload with Measure (warmup iterations discarded,
// median/p10/p90 over the measured repetitions), collects BenchResult
// records, and hands them to WriteBenchJson, which schema-validates every
// record and writes `BENCH_<name>.json` — a JSON array of flat objects
//   {"bench", "metric", "value", "unit", "threads", "samples", "commit"}
// — next to the binary (or into MOCHE_BENCH_OUT_DIR). CI uploads these files as artifacts; docs/BENCHMARKS.md
// documents the schema and how to compare a before/after pair.
//
// Ownership & thread-safety: everything here is value-typed and stateless;
// the functions are safe to call from multiple threads as long as two
// WriteBenchJson calls do not target the same file. The timed callback runs
// on the calling thread — parallel workloads manage their own pools.
//
// Quick mode (QuickMode(): `--quick` on the command line or a non-empty
// MOCHE_BENCH_QUICK environment variable) is the CI perf-smoke contract:
// benches shrink workloads/repetitions so the suite finishes in seconds
// while still exercising every code path and emitting schema-valid JSON.

#ifndef MOCHE_BENCH_RUNNER_H_
#define MOCHE_BENCH_RUNNER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace moche {
namespace bench {

/// One benchmark measurement. `metric` names what was measured (dotted
/// lowercase path, e.g. "theorem1_check.w10000.median"); `unit` is the
/// value's unit ("s", "ns", "obs/s", "x", ...); `threads` the worker count
/// the measurement ran with; `samples` how many measured repetitions (or
/// runs) back the value; `commit` the source revision, auto-filled by
/// WriteBenchJson when left empty.
struct BenchResult {
  std::string bench;
  std::string metric;
  double value = 0.0;
  std::string unit;
  size_t threads = 1;
  size_t samples = 1;
  std::string commit;
};

/// Schema validation: non-empty bench/metric/unit, finite value, and
/// samples/threads >= 1. WriteBenchJson rejects a batch containing any
/// invalid record, so malformed rows can never reach a BENCH_*.json.
Status ValidateBenchResult(const BenchResult& result);

/// Serializes one record as a single-line JSON object (strings escaped).
std::string ToJson(const BenchResult& result);

/// Parses a single JSON object produced by ToJson (round-trip inverse).
/// InvalidArgument on malformed JSON, an unknown or missing key (the seven
/// original schema keys are required — a truncated record must not parse
/// into plausible defaults), or a schema-invalid record (the golden-schema
/// test exercises these paths). An "isa" key, which older BENCH files
/// carry, is accepted at most once and discarded, so those files keep
/// parsing.
/// Hostile-input hardening (BENCH files arrive from artifact stores and
/// hand edits): documents over an 8 MiB byte budget, nested containers
/// (the schema is one array of flat records), duplicate keys, and
/// threads/samples values that are negative, fractional, or above 2^53
/// are all rejected rather than truncated into plausible records.
Result<BenchResult> FromJson(const std::string& json);

/// Parses a full BENCH_*.json array (the WriteBenchJson output format).
/// Same hardening guarantees as FromJson.
Result<std::vector<BenchResult>> ParseBenchJson(const std::string& json);

/// Validates every record, fills empty `commit` fields from
/// MOCHE_BENCH_COMMIT (or GITHUB_SHA, or "unknown"), and writes
/// `<out_dir>/BENCH_<name>.json`. out_dir defaults to MOCHE_BENCH_OUT_DIR
/// or ".". Returns the first validation error without writing anything.
Status WriteBenchJson(const std::string& name,
                      std::vector<BenchResult> results,
                      std::string out_dir = "");

/// Repetition policy for Measure.
struct RunnerOptions {
  size_t warmup = 1;       ///< untimed runs before measuring
  size_t repetitions = 5;  ///< timed runs (odd keeps the median a sample)
};

/// The standardized timing summary: per-repetition wall seconds.
struct TimingStats {
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
  double min = 0.0;
  double total = 0.0;
  size_t samples = 0;
};

/// Summarizes raw per-repetition timings (seconds).
TimingStats SummarizeTimings(const std::vector<double>& seconds);

/// Runs `fn` options.warmup times untimed, then options.repetitions times
/// timed, and returns the summary. `fn` must be idempotent across calls.
TimingStats Measure(const std::function<void()>& fn,
                    const RunnerOptions& options = {});

/// Appends the standard three records (<prefix>.median/.p10/.p90) for one
/// timed workload; the median is the headline number a before/after
/// comparison reads, the p10/p90 spread says whether it is trustworthy.
/// Per-operation metrics divide every statistic by `ops_per_rep` (the inner
/// batch size one repetition ran) and should pass unit "s/op".
void AppendTiming(std::vector<BenchResult>* results, const std::string& bench,
                  const std::string& metric_prefix, const TimingStats& stats,
                  size_t threads, double ops_per_rep = 1.0,
                  const char* unit = "s");

/// Appends one single-sample record (counts, rates, speedups, identity
/// flags) — the shared constructor for everything AppendTiming doesn't
/// cover.
void AppendRecord(std::vector<BenchResult>* results, const std::string& bench,
                  const std::string& metric, double value, const char* unit,
                  size_t threads);

/// True when `--quick` appears in argv or MOCHE_BENCH_QUICK is non-empty
/// in the environment: the CI perf-smoke mode (small workloads, few
/// repetitions).
bool QuickMode(int argc, char** argv);

}  // namespace bench
}  // namespace moche

#endif  // MOCHE_BENCH_RUNNER_H_
