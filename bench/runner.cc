#include "runner.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/stats.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace moche {
namespace bench {

namespace {

const char* EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && value[0] != '\0') ? value : fallback;
}

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
}

// A minimal recursive-descent reader for the flat JSON this file emits:
// arrays of objects whose values are strings or numbers. Not a general JSON
// parser — exactly the subset ToJson/WriteBenchJson produce. Hostile input
// hardening (BENCH files can come from artifact stores and hand edits):
// a document byte budget, explicit rejection of nested containers (the
// schema is depth 2: one array of flat records), and integer fields parsed
// through an overflow-checked path — casting an arbitrary double to size_t
// is UB for negative or huge values.
constexpr size_t kMaxBenchJsonBytes = 8 * 1024 * 1024;  // 8 MiB

// Largest integer a double carries exactly; counts above this cannot round-
// trip through the JSON number representation.
constexpr double kMaxExactCount = 9007199254740992.0;  // 2^53

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  Result<std::string> ParseString() {
    SkipSpace();
    if (!Consume('"')) {
      return Status::InvalidArgument("expected '\"'");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Status::InvalidArgument("bad \\u escape digit");
            }
          }
          if (code > 0x7f) {
            return Status::InvalidArgument(
                "non-ASCII \\u escape is outside the BENCH_*.json subset");
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          return Status::InvalidArgument(
              StrFormat("unknown escape \\%c", esc));
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  Result<double> ParseNumber() {
    SkipSpace();
    if (pos_ < text_.size() && (text_[pos_] == '{' || text_[pos_] == '[')) {
      return Status::InvalidArgument(
          "nested containers are outside the BENCH_*.json subset");
    }
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected a number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    double value = 0.0;
    // moche::ParseDouble is locale-independent (std::from_chars): a
    // comma-decimal LC_NUMERIC must not make every BENCH value token
    // unparseable (strtod would stop at the '.').
    if (!moche::ParseDouble(token, &value)) {
      return Status::InvalidArgument(StrFormat("bad number '%s'",
                                               token.c_str()));
    }
    return value;
  }

  /// A non-negative integer field (threads/samples), range-checked BEFORE
  /// the size_t conversion: casting a negative or out-of-range double to an
  /// unsigned integer is undefined behavior, and counts above 2^53 cannot
  /// have round-tripped through a JSON number exactly anyway.
  Result<size_t> ParseCount(const char* field) {
    MOCHE_ASSIGN_OR_RETURN(const double v, ParseNumber());
    if (!(v >= 0.0) || v > kMaxExactCount || v != std::floor(v)) {
      return Status::InvalidArgument(
          StrFormat("'%s' must be a non-negative integer", field));
    }
    return static_cast<size_t>(v);
  }

  /// One {"key": string-or-number, ...} object into a BenchResult. The
  /// seven original schema keys must be present exactly once; unknown keys
  /// are errors — a truncated or hand-edited record must never parse into
  /// a plausible-looking default (0.0 would read as an infinite speedup).
  /// "isa" alone is optional: older files carry it, and it is read and
  /// discarded.
  Result<BenchResult> ParseRecord() {
    if (!Consume('{')) {
      return Status::InvalidArgument("expected '{'");
    }
    BenchResult r;
    enum Key {
      kBench = 0,
      kMetric,
      kUnit,
      kCommit,
      kValue,
      kThreads,
      kSamples,
      kIsa,
      kKeyCount
    };
    static const char* const kKeyNames[kKeyCount] = {
        "bench",   "metric",  "unit", "commit",
        "value",   "threads", "samples", "isa"};
    bool seen[kKeyCount] = {};
    const auto claim = [&seen](Key k) {
      if (seen[k]) {
        return Status::InvalidArgument(
            StrFormat("duplicate key '%s'", kKeyNames[k]));
      }
      seen[k] = true;
      return Status::OK();
    };
    bool first = true;
    while (!Consume('}')) {
      if (!first && !Consume(',')) {
        return Status::InvalidArgument("expected ',' between fields");
      }
      first = false;
      MOCHE_ASSIGN_OR_RETURN(const std::string key, ParseString());
      if (!Consume(':')) {
        return Status::InvalidArgument("expected ':' after key");
      }
      if (key == "bench") {
        MOCHE_RETURN_IF_ERROR(claim(kBench));
        MOCHE_ASSIGN_OR_RETURN(r.bench, ParseString());
      } else if (key == "metric") {
        MOCHE_RETURN_IF_ERROR(claim(kMetric));
        MOCHE_ASSIGN_OR_RETURN(r.metric, ParseString());
      } else if (key == "unit") {
        MOCHE_RETURN_IF_ERROR(claim(kUnit));
        MOCHE_ASSIGN_OR_RETURN(r.unit, ParseString());
      } else if (key == "commit") {
        MOCHE_RETURN_IF_ERROR(claim(kCommit));
        MOCHE_ASSIGN_OR_RETURN(r.commit, ParseString());
      } else if (key == "value") {
        MOCHE_RETURN_IF_ERROR(claim(kValue));
        MOCHE_ASSIGN_OR_RETURN(r.value, ParseNumber());
      } else if (key == "threads") {
        MOCHE_RETURN_IF_ERROR(claim(kThreads));
        MOCHE_ASSIGN_OR_RETURN(r.threads, ParseCount("threads"));
      } else if (key == "samples") {
        MOCHE_RETURN_IF_ERROR(claim(kSamples));
        MOCHE_ASSIGN_OR_RETURN(r.samples, ParseCount("samples"));
      } else if (key == "isa") {
        MOCHE_RETURN_IF_ERROR(claim(kIsa));
        MOCHE_RETURN_IF_ERROR(ParseString().status());
      } else {
        return Status::InvalidArgument(
            StrFormat("unknown key '%s'", key.c_str()));
      }
    }
    for (int k = 0; k < kKeyCount; ++k) {
      if (k == kIsa) continue;  // optional: only older files carry it
      if (!seen[k]) {
        return Status::InvalidArgument(
            StrFormat("record is missing '%s'", kKeyNames[k]));
      }
    }
    MOCHE_RETURN_IF_ERROR(ValidateBenchResult(r));
    return r;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Status ValidateBenchResult(const BenchResult& result) {
  if (result.bench.empty()) {
    return Status::InvalidArgument("bench name is empty");
  }
  if (result.metric.empty()) {
    return Status::InvalidArgument("metric name is empty");
  }
  if (result.unit.empty()) {
    return Status::InvalidArgument(
        StrFormat("metric '%s' has an empty unit", result.metric.c_str()));
  }
  if (!std::isfinite(result.value)) {
    return Status::InvalidArgument(
        StrFormat("metric '%s' has a non-finite value", result.metric.c_str()));
  }
  if (result.threads == 0) {
    return Status::InvalidArgument(
        StrFormat("metric '%s' has threads == 0 (resolve the hardware knob "
                  "before recording)",
                  result.metric.c_str()));
  }
  if (result.samples == 0) {
    return Status::InvalidArgument(
        StrFormat("metric '%s' is backed by zero samples",
                  result.metric.c_str()));
  }
  return Status::OK();
}

std::string ToJson(const BenchResult& result) {
  std::string out = "{\"bench\": \"";
  AppendEscaped(result.bench, &out);
  out += "\", \"metric\": \"";
  AppendEscaped(result.metric, &out);
  // AppendG17 (std::to_chars), not printf: a comma-decimal locale must
  // never corrupt the value token.
  out += "\", \"value\": ";
  AppendG17(result.value, &out);
  out += ", \"unit\": \"";
  AppendEscaped(result.unit, &out);
  out += StrFormat(
      "\", \"threads\": %zu, \"samples\": %zu, \"commit\": \"",
      result.threads, result.samples);
  AppendEscaped(result.commit, &out);
  out += "\"}";
  return out;
}

namespace {

Status CheckByteBudget(const std::string& json) {
  if (json.size() > kMaxBenchJsonBytes) {
    return Status::InvalidArgument(
        StrFormat("document is %zu bytes, over the %zu-byte BENCH budget",
                  json.size(), kMaxBenchJsonBytes));
  }
  return Status::OK();
}

}  // namespace

Result<BenchResult> FromJson(const std::string& json) {
  MOCHE_RETURN_IF_ERROR(CheckByteBudget(json));
  JsonReader reader(json);
  MOCHE_ASSIGN_OR_RETURN(BenchResult r, reader.ParseRecord());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing characters after the record");
  }
  return r;
}

Result<std::vector<BenchResult>> ParseBenchJson(const std::string& json) {
  MOCHE_RETURN_IF_ERROR(CheckByteBudget(json));
  JsonReader reader(json);
  if (!reader.Consume('[')) {
    return Status::InvalidArgument("expected a JSON array");
  }
  std::vector<BenchResult> out;
  bool first = true;
  while (!reader.Consume(']')) {
    if (!first && !reader.Consume(',')) {
      return Status::InvalidArgument("expected ',' between records");
    }
    first = false;
    MOCHE_ASSIGN_OR_RETURN(BenchResult r, reader.ParseRecord());
    out.push_back(std::move(r));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing characters after the array");
  }
  return out;
}

Status WriteBenchJson(const std::string& name,
                      std::vector<BenchResult> results,
                      std::string out_dir) {
  if (name.empty()) {
    return Status::InvalidArgument("bench file name is empty");
  }
  const char* commit = EnvOr("MOCHE_BENCH_COMMIT", EnvOr("GITHUB_SHA",
                                                         "unknown"));
  for (BenchResult& r : results) {
    if (r.commit.empty()) r.commit = commit;
    MOCHE_RETURN_IF_ERROR(ValidateBenchResult(r));
  }
  if (out_dir.empty()) out_dir = EnvOr("MOCHE_BENCH_OUT_DIR", ".");
  const std::string path = out_dir + "/BENCH_" + name + ".json";
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  // Build the document in memory and write it in one shot: no operator<<,
  // so no formatting path that could ever consult the imbued locale.
  std::string doc = "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    doc += "  ";
    doc += ToJson(results[i]);
    if (i + 1 < results.size()) doc += ",";
    doc += "\n";
  }
  doc += "]\n";
  file.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  file.flush();
  if (!file) {
    return Status::Internal(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

TimingStats SummarizeTimings(const std::vector<double>& seconds) {
  TimingStats stats;
  stats.samples = seconds.size();
  if (seconds.empty()) return stats;
  stats.median = Median(seconds);
  stats.p10 = Quantile(seconds, 0.10);
  stats.p90 = Quantile(seconds, 0.90);
  stats.min = *std::min_element(seconds.begin(), seconds.end());
  for (double s : seconds) stats.total += s;
  return stats;
}

TimingStats Measure(const std::function<void()>& fn,
                    const RunnerOptions& options) {
  for (size_t i = 0; i < options.warmup; ++i) fn();
  std::vector<double> seconds;
  seconds.reserve(options.repetitions);
  WallTimer timer;
  for (size_t i = 0; i < options.repetitions; ++i) {
    timer.Restart();
    fn();
    seconds.push_back(timer.Seconds());
  }
  return SummarizeTimings(seconds);
}

void AppendTiming(std::vector<BenchResult>* results, const std::string& bench,
                  const std::string& metric_prefix, const TimingStats& stats,
                  size_t threads, double ops_per_rep, const char* unit) {
  const auto record = [&](const char* suffix, double value) {
    BenchResult r;
    r.bench = bench;
    r.metric = metric_prefix + suffix;
    r.value = value / ops_per_rep;
    r.unit = unit;
    r.threads = threads;
    r.samples = stats.samples;
    results->push_back(std::move(r));
  };
  record(".median", stats.median);
  record(".p10", stats.p10);
  record(".p90", stats.p90);
}

void AppendRecord(std::vector<BenchResult>* results, const std::string& bench,
                  const std::string& metric, double value, const char* unit,
                  size_t threads) {
  BenchResult r;
  r.bench = bench;
  r.metric = metric;
  r.value = value;
  r.unit = unit;
  r.threads = threads;
  results->push_back(std::move(r));
}

bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  // Empty means unset, matching the EnvOr convention above.
  return EnvOr("MOCHE_BENCH_QUICK", nullptr) != nullptr;
}

}  // namespace bench
}  // namespace moche
