#include "runner.h"

#include <clocale>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace moche {
namespace bench {
namespace {

BenchResult MakeValid() {
  BenchResult r;
  r.bench = "micro_core";
  r.metric = "theorem1_check.w10000.median";
  r.value = 1.25e-05;
  r.unit = "s/op";
  r.threads = 4;
  r.samples = 7;
  r.commit = "abc1234";
  return r;
}

TEST(BenchResultSchema, ValidRecordPasses) {
  EXPECT_TRUE(ValidateBenchResult(MakeValid()).ok());
}

TEST(BenchResultSchema, GoldenJsonShape) {
  // The on-disk schema is a contract with CI tooling; this is the exact
  // serialized form of a known record.
  EXPECT_EQ(ToJson(MakeValid()),
            "{\"bench\": \"micro_core\", "
            "\"metric\": \"theorem1_check.w10000.median\", "
            "\"value\": 1.2500000000000001e-05, \"unit\": \"s/op\", "
            "\"threads\": 4, \"samples\": 7, \"commit\": \"abc1234\"}");
}

TEST(BenchResultSchema, RoundTripsThroughJson) {
  const BenchResult original = MakeValid();
  const auto parsed = FromJson(ToJson(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->bench, original.bench);
  EXPECT_EQ(parsed->metric, original.metric);
  EXPECT_EQ(parsed->value, original.value);  // %.17g is round-trip exact
  EXPECT_EQ(parsed->unit, original.unit);
  EXPECT_EQ(parsed->threads, original.threads);
  EXPECT_EQ(parsed->samples, original.samples);
  EXPECT_EQ(parsed->commit, original.commit);
}

TEST(BenchResultSchema, IsaKeyIsOptionalForPreSimdFiles) {
  // The writer no longer emits "isa", but the committed BENCH files and
  // the bench_json_fuzz corpus carry it: a record parses the same with or
  // without it, and the value is discarded.
  const auto without =
      FromJson("{\"bench\": \"b\", \"metric\": \"m\", \"unit\": \"s\", "
               "\"value\": 1, \"threads\": 1, \"samples\": 1, "
               "\"commit\": \"c\"}");
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  const auto with =
      FromJson("{\"bench\": \"b\", \"metric\": \"m\", \"unit\": \"s\", "
               "\"value\": 1, \"threads\": 1, \"samples\": 1, "
               "\"isa\": \"avx2\", \"commit\": \"c\"}");
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_EQ(ToJson(*with), ToJson(*without));
  // Present-but-duplicated is still an error.
  EXPECT_TRUE(FromJson("{\"bench\": \"b\", \"metric\": \"m\", "
                       "\"unit\": \"s\", \"value\": 1, \"threads\": 1, "
                       "\"samples\": 1, \"isa\": \"avx2\", "
                       "\"isa\": \"scalar\", \"commit\": \"c\"}")
                  .status()
                  .IsInvalidArgument());
}

// The locale regression this schema survived: under a comma-decimal
// LC_NUMERIC, the old "%.17g"/strtod pair wrote "1,25e-05" and silently
// mis-parsed dotted values — BENCH files written on one machine did not
// parse on another. ToJson/FromJson now route through std::to_chars /
// std::from_chars and must be byte-identical in any locale.
TEST(BenchResultSchema, JsonIsLocaleIndependent) {
  const std::string previous = std::setlocale(LC_NUMERIC, nullptr);
  bool comma_locale = false;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                           "fr_FR.utf8", "de_DE", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      comma_locale = true;
      break;
    }
  }
  const std::string json = ToJson(MakeValid());
  const auto parsed = FromJson(json);
  std::setlocale(LC_NUMERIC, previous.c_str());
  if (!comma_locale) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  EXPECT_EQ(json.find(','), json.find(", "));  // separators only, no "1,25"
  EXPECT_NE(json.find("1.2500000000000001e-05"), std::string::npos) << json;
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->value, MakeValid().value);
}

TEST(BenchResultSchema, RoundTripsEscapedStringsAndExtremeValues) {
  BenchResult r = MakeValid();
  r.metric = "weird \"quoted\"\\path\n\ttab";
  r.value = -std::numeric_limits<double>::min();
  const auto parsed = FromJson(ToJson(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->metric, r.metric);
  EXPECT_EQ(parsed->value, r.value);
}

TEST(BenchResultSchema, RejectsMissingMetric) {
  BenchResult r = MakeValid();
  r.metric.clear();
  EXPECT_TRUE(ValidateBenchResult(r).IsInvalidArgument());
  // A serialized record without the metric key is rejected at parse time.
  EXPECT_TRUE(FromJson("{\"bench\": \"b\", \"value\": 1, \"unit\": \"s\", "
                       "\"threads\": 1, \"samples\": 1, \"commit\": \"c\"}")
                  .status()
                  .IsInvalidArgument());
}

TEST(BenchResultSchema, ParserRejectsDuplicateKeys) {
  EXPECT_TRUE(FromJson("{\"bench\": \"b\", \"metric\": \"m\", "
                       "\"unit\": \"s\", \"value\": 1, \"value\": 0, "
                       "\"threads\": 1, \"samples\": 1, \"commit\": \"c\"}")
                  .status()
                  .IsInvalidArgument());
}

TEST(BenchResultSchema, ParserRequiresEveryKey) {
  // A truncated record must not parse into plausible defaults (a dropped
  // "value" would read as 0.0 s/op — an infinite speedup).
  EXPECT_TRUE(FromJson("{\"bench\": \"b\", \"metric\": \"m\", "
                       "\"unit\": \"s\", \"threads\": 1, \"samples\": 1, "
                       "\"commit\": \"c\"}")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FromJson("{\"bench\": \"b\", \"metric\": \"m\", "
                       "\"unit\": \"s\", \"value\": 1, \"samples\": 1, "
                       "\"commit\": \"c\"}")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FromJson("{\"bench\": \"b\", \"metric\": \"m\", "
                       "\"unit\": \"s\", \"value\": 1, \"threads\": 1, "
                       "\"samples\": 1}")
                  .status()
                  .IsInvalidArgument());
}

TEST(BenchResultSchema, RejectsNonFiniteValue) {
  BenchResult r = MakeValid();
  r.value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ValidateBenchResult(r).IsInvalidArgument());
  r.value = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidateBenchResult(r).IsInvalidArgument());
}

TEST(BenchResultSchema, RejectsEmptyUnitBenchZeroSamplesOrThreads) {
  BenchResult r = MakeValid();
  r.unit.clear();
  EXPECT_TRUE(ValidateBenchResult(r).IsInvalidArgument());
  r = MakeValid();
  r.bench.clear();
  EXPECT_TRUE(ValidateBenchResult(r).IsInvalidArgument());
  r = MakeValid();
  r.samples = 0;
  EXPECT_TRUE(ValidateBenchResult(r).IsInvalidArgument());
  r = MakeValid();
  r.threads = 0;
  EXPECT_TRUE(ValidateBenchResult(r).IsInvalidArgument());
}

TEST(BenchResultSchema, ParserRejectsMalformedJson) {
  EXPECT_FALSE(FromJson("").ok());
  EXPECT_FALSE(FromJson("{").ok());
  EXPECT_FALSE(FromJson("[]").ok());
  EXPECT_FALSE(FromJson("{\"metric\": }").ok());
  EXPECT_FALSE(FromJson(ToJson(MakeValid()) + "garbage").ok());
  // Unknown keys are schema violations, not silently dropped.
  EXPECT_FALSE(
      FromJson("{\"metric\": \"m\", \"bench\": \"b\", \"unit\": \"s\", "
               "\"value\": 1, \"threads\": 1, \"samples\": 1, "
               "\"commit\": \"c\", \"extra\": 3}")
          .ok());
  // A schema-invalid value is caught even when the JSON itself is fine.
  EXPECT_FALSE(
      FromJson("{\"metric\": \"m\", \"bench\": \"b\", \"unit\": \"s\", "
               "\"value\": 1, \"threads\": 0, \"samples\": 1, "
               "\"commit\": \"c\"}")
          .ok());
}

// Hostile-input hardening: each rejection path added for artifact-store /
// hand-edited BENCH files, one test per path (the bench_json fuzz target
// covers the combinatorial space).

std::string RecordWith(const std::string& threads,
                       const std::string& samples) {
  return "{\"bench\": \"b\", \"metric\": \"m\", \"value\": 1, "
         "\"unit\": \"s\", \"threads\": " + threads +
         ", \"samples\": " + samples + ", \"commit\": \"c\"}";
}

TEST(BenchResultSchema, RejectsNegativeCounts) {
  // Casting a negative double straight to size_t is UB; the parser must
  // reject, not wrap to 2^64-3 (fuzz/corpus/bench_json_fuzz holds the
  // reproducer that caught this).
  EXPECT_FALSE(FromJson(RecordWith("-3", "1")).ok());
  EXPECT_FALSE(FromJson(RecordWith("1", "-1")).ok());
}

TEST(BenchResultSchema, RejectsFractionalCounts) {
  EXPECT_FALSE(FromJson(RecordWith("1.5", "1")).ok());
  EXPECT_FALSE(FromJson(RecordWith("1", "2.000001")).ok());
  // An integral value written with JSON's float syntax is still integral.
  EXPECT_TRUE(FromJson(RecordWith("2.0", "5")).ok());
}

TEST(BenchResultSchema, RejectsCountsBeyondExactDoubleRange) {
  // Above 2^53 a double cannot represent the count exactly, so it cannot
  // have round-tripped; 1e300 would also overflow the size_t cast.
  EXPECT_FALSE(FromJson(RecordWith("1e300", "1")).ok());
  EXPECT_FALSE(FromJson(RecordWith("9007199254740994", "1")).ok());
  EXPECT_TRUE(FromJson(RecordWith("9007199254740992", "1")).ok());  // 2^53
}

TEST(BenchResultSchema, RejectsNestedContainers) {
  EXPECT_FALSE(FromJson("{\"bench\": \"b\", \"metric\": \"m\", "
                        "\"value\": {\"nested\": 1}, \"unit\": \"s\", "
                        "\"threads\": 1, \"samples\": 1, \"commit\": \"c\"}")
                   .ok());
  EXPECT_FALSE(FromJson("{\"bench\": \"b\", \"metric\": \"m\", "
                        "\"value\": [1], \"unit\": \"s\", \"threads\": 1, "
                        "\"samples\": 1, \"commit\": \"c\"}")
                   .ok());
  EXPECT_FALSE(ParseBenchJson("[[]]").ok());
}

TEST(BenchResultSchema, RejectsDocumentsOverTheByteBudget) {
  // 8 MiB cap: a runaway artifact must fail fast instead of being parsed
  // byte by byte.
  std::string huge = "[";
  huge.append(9 * 1024 * 1024, ' ');
  huge += "]";
  EXPECT_FALSE(ParseBenchJson(huge).ok());
  EXPECT_FALSE(FromJson(huge).ok());
  // Just under the cap still parses (whitespace is legal filler).
  std::string under = "[";
  under.append(1024, ' ');
  under += "]";
  EXPECT_TRUE(ParseBenchJson(under).ok());
}

TEST(WriteBenchJson, WritesAFileThatParsesBack) {
  const std::string dir = ::testing::TempDir();
  std::vector<BenchResult> results;
  BenchResult a = MakeValid();
  BenchResult b = MakeValid();
  b.metric = "theorem1_check.w10000.p90";
  b.commit.clear();  // exercises the env/unknown fallback fill
  results.push_back(a);
  results.push_back(b);
  ASSERT_TRUE(WriteBenchJson("runner_test", results, dir).ok());

  std::ifstream file(dir + "/BENCH_runner_test.json");
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto parsed = ParseBenchJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].metric, a.metric);
  EXPECT_EQ((*parsed)[1].metric, b.metric);
  EXPECT_FALSE((*parsed)[1].commit.empty());  // filled, never written empty
}

TEST(WriteBenchJson, RefusesToWriteMalformedRecords) {
  const std::string dir = ::testing::TempDir();
  BenchResult bad = MakeValid();
  bad.value = std::numeric_limits<double>::quiet_NaN();
  const Status status =
      WriteBenchJson("runner_test_bad", {MakeValid(), bad}, dir);
  EXPECT_TRUE(status.IsInvalidArgument());
  // The batch is all-or-nothing: no partial file appears.
  std::ifstream file(dir + "/BENCH_runner_test_bad.json");
  EXPECT_FALSE(file.good());
}

TEST(ParseBenchJson, EmptyArrayAndSeparatorErrors) {
  const auto empty = ParseBenchJson("[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  const std::string rec = ToJson(MakeValid());
  EXPECT_FALSE(ParseBenchJson("[" + rec + " " + rec + "]").ok());
  EXPECT_FALSE(ParseBenchJson("[" + rec + ",]").ok());
}

TEST(Timing, SummarizeOrdersQuantiles) {
  const TimingStats stats =
      SummarizeTimings({0.5, 0.1, 0.9, 0.2, 0.3, 0.4, 0.8, 0.7, 0.6, 1.0});
  EXPECT_EQ(stats.samples, 10u);
  EXPECT_LE(stats.p10, stats.median);
  EXPECT_LE(stats.median, stats.p90);
  EXPECT_DOUBLE_EQ(stats.min, 0.1);
  EXPECT_NEAR(stats.total, 5.5, 1e-12);
  EXPECT_NEAR(stats.median, 0.55, 1e-12);
}

TEST(Timing, MeasureRunsWarmupPlusRepetitions) {
  size_t calls = 0;
  RunnerOptions options;
  options.warmup = 2;
  options.repetitions = 5;
  const TimingStats stats = Measure([&] { ++calls; }, options);
  EXPECT_EQ(calls, 7u);
  EXPECT_EQ(stats.samples, 5u);
  EXPECT_GE(stats.median, 0.0);
}

TEST(Timing, AppendTimingEmitsPerOpRecords) {
  TimingStats stats;
  stats.median = 2.0;
  stats.p10 = 1.0;
  stats.p90 = 4.0;
  stats.samples = 5;
  std::vector<BenchResult> results;
  AppendTiming(&results, "b", "work", stats, 3, /*ops_per_rep=*/10.0, "s/op");
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].metric, "work.median");
  EXPECT_DOUBLE_EQ(results[0].value, 0.2);
  EXPECT_EQ(results[0].unit, "s/op");
  EXPECT_EQ(results[0].threads, 3u);
  EXPECT_EQ(results[0].samples, 5u);
  EXPECT_EQ(results[2].metric, "work.p90");
  EXPECT_DOUBLE_EQ(results[2].value, 0.4);
  for (const BenchResult& r : results) {
    EXPECT_TRUE(ValidateBenchResult(r).ok()) << r.metric;
  }
}

TEST(QuickModeDetection, FlagAndEnv) {
  const char* argv_quick[] = {"bench", "--quick"};
  const char* argv_plain[] = {"bench", "--threads"};
  EXPECT_TRUE(QuickMode(2, const_cast<char**>(argv_quick)));
  ASSERT_EQ(unsetenv("MOCHE_BENCH_QUICK"), 0);
  EXPECT_FALSE(QuickMode(2, const_cast<char**>(argv_plain)));
  ASSERT_EQ(setenv("MOCHE_BENCH_QUICK", "1", 1), 0);
  EXPECT_TRUE(QuickMode(2, const_cast<char**>(argv_plain)));
  ASSERT_EQ(unsetenv("MOCHE_BENCH_QUICK"), 0);
}

}  // namespace
}  // namespace bench
}  // namespace moche
