// Differential oracle: the bench runner's mini JSON parser — round-trip
// identity on records it wrote itself, graceful rejection of everything
// else.
//
// Two modes share the input bytes. Structured mode derives a schema-valid
// BenchResult (arbitrary byte strings, laced doubles, large counts),
// serializes with ToJson/array framing, and requires FromJson /
// ParseBenchJson to reproduce every field — the value bit-exactly (the
// G17 contract). Raw mode feeds the remaining bytes straight into both
// parsers, which must either reject with InvalidArgument or produce
// records that survive a second round-trip unchanged (parse-serialize-
// parse is a fixed point). Under ASan/UBSan this is also the no-crash
// no-overflow gate for the hardened paths: byte budget, nested-container
// rejection, duplicate keys, and the overflow-checked threads/samples
// conversion that used to cast an arbitrary double straight to size_t.

#include <cstring>
#include <string>
#include <vector>

#include "fuzz_target.h"
#include "provider.h"
#include "runner.h"

namespace {

using moche::bench::BenchResult;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameRecord(const BenchResult& a, const BenchResult& b) {
  return a.bench == b.bench && a.metric == b.metric &&
         SameBits(a.value, b.value) && a.unit == b.unit &&
         a.threads == b.threads && a.samples == b.samples &&
         a.commit == b.commit;
}

// A schema-valid record from arbitrary bytes: non-empty names, finite
// value, counts in [1, 2^53].
BenchResult DeriveRecord(moche::fuzz::Provider* in) {
  BenchResult r;
  r.bench = "b" + in->String(12);
  r.metric = "m" + in->String(24);
  r.value = in->FiniteValue();
  r.unit = "u" + in->String(6);
  r.threads = static_cast<size_t>(
      in->IntInRange(1, int64_t{1} << (in->Bool() ? 6 : 53)));
  r.samples = static_cast<size_t>(
      in->IntInRange(1, int64_t{1} << (in->Bool() ? 6 : 53)));
  r.commit = "c" + in->String(8);
  return r;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  if (in.Bool()) {
    // Structured mode: write-then-read identity.
    const size_t count = in.SizeInRange(0, 4);
    std::vector<BenchResult> records;
    std::string doc = "[\n";
    for (size_t i = 0; i < count; ++i) {
      records.push_back(DeriveRecord(&in));
      const std::string one = moche::bench::ToJson(records.back());

      auto parsed = moche::bench::FromJson(one);
      MOCHE_FUZZ_CHECK(parsed.ok(), "FromJson rejected ToJson output: %s",
                       parsed.status().message().c_str());
      MOCHE_FUZZ_CHECK(SameRecord(*parsed, records.back()),
                       "record %zu did not round-trip through ToJson", i);

      doc += "  " + one;
      if (i + 1 < count) doc += ",";
      doc += "\n";
    }
    doc += "]\n";
    auto array = moche::bench::ParseBenchJson(doc);
    MOCHE_FUZZ_CHECK(array.ok(), "ParseBenchJson rejected framed output: %s",
                     array.status().message().c_str());
    MOCHE_FUZZ_CHECK(array->size() == count,
                     "array round-trip lost records (%zu of %zu)",
                     array->size(), count);
    for (size_t i = 0; i < count; ++i) {
      MOCHE_FUZZ_CHECK(SameRecord((*array)[i], records[i]),
                       "array record %zu diverged", i);
    }
    return 0;
  }

  // Raw mode: arbitrary bytes must be rejected cleanly or parse into
  // records stable under re-serialization.
  const std::string raw = in.RemainingString();
  auto one = moche::bench::FromJson(raw);
  if (one.ok()) {
    MOCHE_FUZZ_CHECK(moche::bench::ValidateBenchResult(*one).ok(),
                     "FromJson accepted a schema-invalid record");
    auto again = moche::bench::FromJson(moche::bench::ToJson(*one));
    MOCHE_FUZZ_CHECK(again.ok() && SameRecord(*again, *one),
                     "parse-serialize-parse is not a fixed point");
  }
  auto many = moche::bench::ParseBenchJson(raw);
  if (many.ok()) {
    for (const BenchResult& r : *many) {
      MOCHE_FUZZ_CHECK(moche::bench::ValidateBenchResult(r).ok(),
                       "ParseBenchJson accepted a schema-invalid record");
      auto again = moche::bench::FromJson(moche::bench::ToJson(r));
      MOCHE_FUZZ_CHECK(again.ok() && SameRecord(*again, r),
                       "array parse-serialize-parse is not a fixed point");
    }
  }
  return 0;
}
