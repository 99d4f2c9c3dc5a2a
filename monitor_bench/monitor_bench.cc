// End-to-end benchmark of stream::DriftMonitor over drift-scenario fleets:
// setup -> ingest -> checkpoint -> restore -> resume, driven closed loop
// from one thread (MonitorOptions::num_threads = 1).
//
// Usage:
//   monitor_bench --workload <exact_fleet|sketched_fleet|explain_storm>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--dump <file>] [--workdir <dir>]
//
// Inputs come from ts::MakeDriftScenario (stream i uses seed + i, as
// ts::MakeDriftScenarioSuite does) and are generated before any timing
// starts. --trace 0 measures the end-to-end metrics over cycles repeated
// until --seconds have passed; each cycle is setup -> ingest ->
// checkpoint halfway through the drift -> ingest the rest -> restore ->
// re-checkpoint the restored monitor. --trace 1 runs one cycle for the
// PushBatch busy time, then a shadow replay of the same inputs that times
// the public entry points of ks, sketch, core and persist from outside.
// README.md lists every metric and the layer it belongs to. Phase and
// cycle wall times go to stderr.
//
// Correctness gates (all outside the timed phases) count as operations:
// every AddStream, PushBatch, checkpoint and restore; one counterfactual
// check per DriftEvent (the window rejects, the window minus the
// explanation passes ks::RunSorted); one resume check per run (restore the
// midpoint checkpoint, replay the rest, FormatEventLog must match the
// uninterrupted run byte for byte). Any failed operation makes the exit
// code 1. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// --tiny shrinks every workload (the benchmark's own test uses it);
// --dump writes the deterministic outputs (event log, checkpoint bytes,
// detection delays, counts) to a file so two runs can be compared.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/moche.h"
#include "ks/ks_test.h"
#include "ks/streaming.h"
#include "persist/monitor_codec.h"
#include "persist/snapshot.h"
#include "sketch/sketched_reference.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"
#include "util/string_util.h"

using namespace moche;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The traced run fails when the shadow-timed layers add up to more than
// the monitor's PushBatch busy time by more than this share of it.
constexpr double kLayerSumTolerance = 0.10;
constexpr uint32_t kShards = 4;
// Repetitions of each persist piece in the traced run.
constexpr size_t kTracedReps = 5;
// Seconds per cycle spent repeating restore and re-checkpoint samples.
constexpr double kRepeatBudgetS = 0.5;
// Stream i drifts as kDriftMix[i % 6]: two transient spikes per mean shift
// or variance inflation. The spike's detection delay is the tightest
// across seeds, so the median delay over streams lands inside one group
// instead of between two.
constexpr ts::DriftKind kDriftMix[] = {
    ts::DriftKind::kTransientSpike, ts::DriftKind::kTransientSpike,
    ts::DriftKind::kMeanShift,      ts::DriftKind::kTransientSpike,
    ts::DriftKind::kTransientSpike, ts::DriftKind::kVarianceInflation};

struct Workload {
  std::string name;
  stream::ReferenceMode mode = stream::ReferenceMode::kExact;
  size_t streams = 0;
  size_t reference_size = 0;
  size_t window = 0;
  size_t length = 0;   // observations ingested per stream
  // The generator puts every drift in the middle of its series. Dropping
  // lead_in + i * stagger / streams leading observations from stream i
  // moves its drift that much earlier in the ingest.
  size_t lead_in = 0;
  size_t stagger = 0;
  size_t batch_ticks = 1;  // observations per stream per PushBatch call
  stream::RearmPolicy rearm = stream::RearmPolicy::kOncePerExcursion;
  size_t explain_every_k = 0;
  double alpha = 0.05;
  size_t min_cycles = 3;  // measurement cycles per run, at least
  size_t min_push_calls = 1000;
};

Result<Workload> MakeWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "exact_fleet" || name == "sketched_fleet") {
    // One large shared reference: the per-stream treap copy dominates
    // setup, restore and memory in kExact; kSketched shares one summary.
    w.mode = name == "exact_fleet" ? stream::ReferenceMode::kExact
                                   : stream::ReferenceMode::kSketched;
    w.streams = tiny ? 4 : 16;
    w.reference_size = tiny ? 2000 : 100000;
    w.window = tiny ? 100 : 1000;
    w.length = tiny ? 600 : 3000;
    // Onsets spread over a fifth of the ingest, so no two detections
    // share a call.
    w.stagger = w.length / 5;
    w.batch_ticks = 4;
    // Few false alarms: events are the drift detections, not noise.
    w.alpha = 0.001;
  } else if (name == "explain_storm") {
    // Small reference and window, a refreshed explanation every few
    // pushes: MOCHE explain dominates pushes, events dominate checkpoints.
    w.streams = tiny ? 6 : 32;
    w.reference_size = tiny ? 500 : 5000;
    w.window = tiny ? 50 : 200;
    // The drift starts a quarter into the ingest, so most calls carry
    // explanations and the median call is one of them.
    w.length = tiny ? 400 : 2000;
    w.lead_in = w.length / 2;
    w.rearm = stream::RearmPolicy::kEveryKPushes;
    w.explain_every_k = 16;
    // One call spans 2k ticks, so every stream in an excursion explains
    // exactly twice per call whatever its firing phase; long calls keep
    // host hiccups a small part of the p99 call.
    w.batch_ticks = 2 * w.explain_every_k;
    w.alpha = 0.01;
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown workload '%s'", name.c_str()));
  }
  if (tiny) {
    w.min_cycles = 2;
    w.min_push_calls = 1;
  }
  return w;
}

stream::MonitorOptions MonitorOptionsFor(const Workload& w) {
  stream::MonitorOptions options;
  options.alpha = w.alpha;
  options.rearm = w.rearm;
  options.explain_every_k = w.explain_every_k;
  options.num_threads = 1;
  options.reference_mode = w.mode;
  return options;
}

// Counts every attempted operation and reports each failure on stderr.
class Ops {
 public:
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  bool Check(const Status& status, const std::string& what) {
    return Check(status.ok(),
                 status.ok() ? what : what + ": " + status.ToString());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Inputs {
  std::vector<ts::DriftScenario> scenarios;  // ground truth per stream
  std::vector<double> reference;             // shared by every stream
  std::vector<double> sorted_reference;      // for the counterfactual check
  // batches[c][i]: the observations call c pushes into stream i.
  std::vector<std::vector<std::vector<double>>> batches;
  size_t checkpoint_call = 0;  // calls made before the checkpoint
};

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  const size_t generated = w.lead_in + w.stagger + w.length;
  for (size_t i = 0; i < w.streams; ++i) {
    in.scenarios.push_back(ts::MakeDriftScenario(
        kDriftMix[i % std::size(kDriftMix)], seed + i, w.reference_size,
        generated));
    ts::DriftScenario& s = in.scenarios.back();
    const size_t skip = w.lead_in + i * w.stagger / w.streams;
    s.observations.erase(s.observations.begin(),
                         s.observations.begin() + static_cast<ptrdiff_t>(skip));
    s.observations.resize(w.length);
    s.drift_begin -= skip;
    s.drift_end = std::min(s.drift_end - skip, w.length);
  }
  // Every stream shares the first scenario's reference sample (all are
  // N(0,1) before the drift); the other copies are dropped.
  in.reference = std::move(in.scenarios[0].reference);
  for (ts::DriftScenario& s : in.scenarios) {
    s.reference.clear();
    s.reference.shrink_to_fit();
  }
  in.sorted_reference = in.reference;
  std::sort(in.sorted_reference.begin(), in.sorted_reference.end());
  const size_t length = w.length;
  const size_t calls = (length + w.batch_ticks - 1) / w.batch_ticks;
  in.batches.resize(calls);
  for (size_t c = 0; c < calls; ++c) {
    in.batches[c].resize(w.streams);
    const size_t begin = c * w.batch_ticks;
    const size_t end = std::min(length, begin + w.batch_ticks);
    for (size_t i = 0; i < w.streams; ++i) {
      const std::vector<double>& obs = in.scenarios[i].observations;
      in.batches[c][i].assign(obs.begin() + static_cast<ptrdiff_t>(begin),
                              obs.begin() + static_cast<ptrdiff_t>(end));
    }
  }
  // Checkpointing halfway through the drift phase puts drift events into
  // the checkpoint.
  size_t drift_begin = length;
  for (const ts::DriftScenario& s : in.scenarios) {
    drift_begin = std::min(drift_begin, s.drift_begin);
  }
  const size_t checkpoint_tick = drift_begin + (length - drift_begin) / 2;
  in.checkpoint_call = (checkpoint_tick + w.batch_ticks - 1) / w.batch_ticks;
  return in;
}

double ResidentKb() {
  long size_pages = 0;
  long resident_pages = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &size_pages, &resident_pages) != 2) {
    resident_pages = 0;
  }
  std::fclose(f);
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

struct Setup {
  double seconds = 0.0;
  double rss_growth_kb = 0.0;
  std::vector<double> add_stream_ms;
};

// Empty monitor -> every stream registered. Returns nullopt after
// recording the failure.
std::optional<stream::DriftMonitor> SetUp(const Workload& w, const Inputs& in,
                                          Ops* ops, Setup* setup) {
  malloc_trim(0);
  const double rss_before = ResidentKb();
  const Clock::time_point start = Clock::now();
  auto monitor = stream::DriftMonitor::Create(MonitorOptionsFor(w));
  if (!ops->Check(monitor.status(), "DriftMonitor::Create")) {
    return std::nullopt;
  }
  for (size_t i = 0; i < w.streams; ++i) {
    const Clock::time_point a = Clock::now();
    auto index = monitor->AddStream(in.scenarios[i].name, in.reference,
                                    w.window);
    setup->add_stream_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
    if (!ops->Check(index.status(), "AddStream")) return std::nullopt;
  }
  setup->seconds = SecondsBetween(start, Clock::now());
  setup->rss_growth_kb = ResidentKb() - rss_before;
  return std::move(monitor).value();
}

// File name -> bytes for every file in `dir` (empty on a read failure).
std::map<std::string, std::string> ReadDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    auto bytes = persist::ReadFileToString(dir + "/" + name);
    if (!bytes.ok()) return {};
    files[name] = std::move(bytes).value();
  }
  return files;
}

// The explanation is a counterfactual: the window at `tick` rejects and
// the window minus report.explanation passes at alpha.
bool IsCounterfactual(const Workload& w, const Inputs& in,
                      const stream::DriftEvent& e, std::string* why) {
  if (!e.explain_status.ok()) {
    *why = e.explain_status.ToString();
    return false;
  }
  const std::vector<double>& obs = in.scenarios[e.stream].observations;
  if (e.tick < w.window || e.tick > obs.size()) {
    *why = "tick outside the stream";
    return false;
  }
  const auto first = obs.begin() + static_cast<ptrdiff_t>(e.tick - w.window);
  std::vector<double> window(first, first + static_cast<ptrdiff_t>(w.window));
  std::vector<unsigned char> removed(window.size(), 0);
  const std::vector<size_t>& indices = e.report.explanation.indices;
  if (indices.size() != e.report.k || indices.empty()) {
    *why = "explanation size differs from k";
    return false;
  }
  std::vector<double> rest;
  for (size_t index : indices) {
    if (index >= window.size() || removed[index]) {
      *why = "explanation index out of range or repeated";
      return false;
    }
    removed[index] = 1;
  }
  for (size_t j = 0; j < window.size(); ++j) {
    if (!removed[j]) rest.push_back(window[j]);
  }
  std::sort(window.begin(), window.end());
  std::sort(rest.begin(), rest.end());
  auto before = ks::RunSorted(in.sorted_reference, window, w.alpha);
  auto after = ks::RunSorted(in.sorted_reference, rest, w.alpha);
  if (!before.ok() || !after.ok()) {
    *why = "ks::RunSorted failed";
    return false;
  }
  if (!before->reject) {
    *why = "the window at the event tick passes";
    return false;
  }
  if (after->reject) {
    *why = "the window minus the explanation still rejects";
    return false;
  }
  return true;
}

struct Delay {
  double median_ticks = 0.0;
  size_t streams = 0;  // drifting streams with a detection
  std::vector<uint64_t> per_stream;  // 0 = not detected
};

// First DriftEvent at or after each stream's ground-truth drift_begin.
Delay DetectionDelay(const Inputs& in,
                     const std::vector<stream::DriftEvent>& events) {
  Delay d;
  d.per_stream.assign(in.scenarios.size(), 0);
  std::vector<double> delays;
  for (const stream::DriftEvent& e : events) {
    const size_t begin = in.scenarios[e.stream].drift_begin;
    // tick counts observations, so the drift's first one is tick begin+1.
    if (e.tick <= begin || d.per_stream[e.stream] != 0) continue;
    d.per_stream[e.stream] = e.tick - begin;
  }
  for (uint64_t delay : d.per_stream) {
    if (delay != 0) delays.push_back(static_cast<double>(delay));
  }
  d.streams = delays.size();
  d.median_ticks = Median(delays);
  return d;
}

// Per-layer timings of the shadow replay.
struct Layers {
  double prepare_ms = 0.0;
  double sketch_build_ms = 0.0;
  size_t sketch_reference_bytes = 0;
  std::vector<double> detector_build_ms;
  std::vector<double> detector_push_us;
  std::vector<double> triage_us;
  std::vector<double> fallback_us;
  std::vector<double> explain_ms;
  double replay_s = 0.0;  // wall time of the replay's push loop
  uint64_t drift_ticks = 0;
  uint64_t certified_pass = 0;
  uint64_t certified_fail = 0;
  uint64_t fallbacks = 0;
  std::vector<stream::DriftEvent> events;
};

// The state DriftMonitor keeps per stream, rebuilt from public pieces.
struct ShadowStream {
  std::optional<StreamingKs> detector;  // kExact
  std::vector<double> ring;             // kSketched window ring
  size_t head = 0;                      // oldest ring slot once full
  uint64_t ticks = 0;
  bool in_excursion = false;
  uint64_t since_explained = 0;
};

// Mirrors DriftMonitor's drain through the public entry points, timing
// each layer call. The traced cycle hands it every batch right after the
// monitor's PushBatch, so the monitor's busy time and the layer times are
// taken under the same host conditions.
class Shadow {
 public:
  Shadow(const Workload& w, Layers* layers)
      : w_(w), layers_(layers), engine_(MonitorOptionsFor(w).moche) {}

  // Prepares the reference (and its sketch) and builds every detector.
  Status Init(const std::vector<double>& reference) {
    Clock::time_point a = Clock::now();
    auto prepared = engine_.Prepare(reference, w_.alpha);
    layers_->prepare_ms = SecondsBetween(a, Clock::now()) * 1e3;
    if (!prepared.ok()) return prepared.status();
    prepared_.emplace(std::move(prepared).value());
    streams_.resize(w_.streams);
    if (w_.mode == stream::ReferenceMode::kSketched) {
      sketch::KllOptions kll;
      kll.capacity = MonitorOptionsFor(w_).sketch_k;
      a = Clock::now();
      auto built = sketch::SketchedReference::FromSample(reference, w_.alpha,
                                                         kll);
      layers_->sketch_build_ms = SecondsBetween(a, Clock::now()) * 1e3;
      if (!built.ok()) return built.status();
      sketched_.emplace(std::move(built).value());
      layers_->sketch_reference_bytes = sketched_->FootprintBytes();
      for (ShadowStream& s : streams_) s.ring.reserve(w_.window);
      return Status::OK();
    }
    for (ShadowStream& s : streams_) {
      a = Clock::now();
      auto detector = StreamingKs::Create(reference, w_.window, w_.alpha);
      layers_->detector_build_ms.push_back(SecondsBetween(a, Clock::now()) *
                                           1e3);
      if (!detector.ok()) return detector.status();
      s.detector.emplace(std::move(detector).value());
    }
    return Status::OK();
  }

  // Feeds one PushBatch worth of observations; its events join the log in
  // (tick, stream) order, as the monitor merges them.
  Status Push(const std::vector<std::vector<double>>& batch) {
    const Clock::time_point start = Clock::now();
    const size_t first_event = layers_->events.size();
    for (size_t i = 0; i < streams_.size() && failure_.ok(); ++i) {
      for (double v : batch[i]) {
        if (sketched_.has_value()) {
          PushSketched(i, &streams_[i], v);
        } else {
          PushExact(i, &streams_[i], v);
        }
      }
    }
    std::stable_sort(layers_->events.begin() +
                         static_cast<ptrdiff_t>(first_event),
                     layers_->events.end(),
                     [](const stream::DriftEvent& x,
                        const stream::DriftEvent& y) {
                       return x.tick != y.tick ? x.tick < y.tick
                                               : x.stream < y.stream;
                     });
    layers_->replay_s += SecondsBetween(start, Clock::now());
    return failure_;
  }

 private:
  // The exact KS outcome of window_ (the sketched path's fallback).
  KsOutcome Exact() {
    WindowBatch batch;
    batch.data = window_.data();
    batch.count = 1;
    batch.width = window_.size();
    const Clock::time_point a = Clock::now();
    const Status status = engine_.EvaluateBatchPrepared(*prepared_, batch,
                                                        &workspace_,
                                                        &outcomes_);
    layers_->fallback_us.push_back(SecondsBetween(a, Clock::now()) * 1e6);
    if (!status.ok()) failure_ = status;
    return status.ok() ? outcomes_[0] : KsOutcome{};
  }

  // The re-arm policy and the explanation, shared by both modes.
  // `event_outcome` fills window_ and returns the exact outcome; it runs
  // only for pushes that fire.
  template <typename EventOutcome>
  void OnFullWindow(size_t i, ShadowStream* s, bool reject,
                    const EventOutcome& event_outcome) {
    if (!reject) {
      s->in_excursion = false;
      return;
    }
    ++layers_->drift_ticks;
    bool fire = false;
    if (!s->in_excursion) {
      s->in_excursion = true;
      fire = true;
    } else if (w_.rearm == stream::RearmPolicy::kEveryKPushes) {
      fire = s->since_explained + 1 >= w_.explain_every_k;
    }
    if (!fire) {
      ++s->since_explained;
      return;
    }
    stream::DriftEvent event;
    event.stream = i;
    event.tick = s->ticks;
    event.outcome = event_outcome();
    IdentityPreferenceInto(window_.size(), &preference_);
    const Clock::time_point a = Clock::now();
    const Status status = engine_.ExplainPreparedInto(
        *prepared_, window_, preference_, &workspace_, &event.report);
    layers_->explain_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
    if (!status.ok()) event.explain_status = status;
    layers_->events.push_back(std::move(event));
    s->since_explained = 0;
  }

  void PushExact(size_t i, ShadowStream* s, double v) {
    const Clock::time_point a = Clock::now();
    const Status pushed = s->detector->Push(v);
    const bool full = s->detector->WindowFull();
    Result<KsOutcome> outcome = KsOutcome{};
    if (full) outcome = s->detector->CurrentOutcome();
    layers_->detector_push_us.push_back(SecondsBetween(a, Clock::now()) *
                                        1e6);
    if (!pushed.ok() || !outcome.ok()) {
      failure_ = pushed.ok() ? outcome.status() : pushed;
      return;
    }
    ++s->ticks;
    if (!full) return;
    OnFullWindow(i, s, outcome->reject, [&] {
      s->detector->WindowContentsInto(&window_);
      return *outcome;
    });
  }

  // The ring triaged against the shared summary; the exact outcome only
  // for uncertain and firing windows.
  void PushSketched(size_t i, ShadowStream* s, double v) {
    if (s->ring.size() < w_.window) {
      s->ring.push_back(v);
    } else {
      s->ring[s->head] = v;
      s->head = (s->head + 1) % w_.window;
    }
    ++s->ticks;
    if (s->ring.size() < w_.window) return;
    window_.assign(s->ring.begin() + static_cast<ptrdiff_t>(s->head),
                   s->ring.end());
    window_.insert(window_.end(), s->ring.begin(),
                   s->ring.begin() + static_cast<ptrdiff_t>(s->head));
    sketch::SketchTriage triage;
    const Clock::time_point a = Clock::now();
    const Status triaged =
        engine_.TriageSketchedInto(*sketched_, window_, &workspace_, &triage);
    layers_->triage_us.push_back(SecondsBetween(a, Clock::now()) * 1e6);
    if (!triaged.ok()) {
      failure_ = triaged;
      return;
    }
    std::optional<KsOutcome> known;
    bool reject = false;
    switch (triage.verdict) {
      case sketch::TriageVerdict::kCertainPass:
        ++layers_->certified_pass;
        break;
      case sketch::TriageVerdict::kCertainFail:
        ++layers_->certified_fail;
        reject = true;
        break;
      case sketch::TriageVerdict::kUncertain:
        ++layers_->fallbacks;
        known = Exact();
        reject = known->reject;
        break;
    }
    OnFullWindow(i, s, reject,
                 [&] { return known.has_value() ? *known : Exact(); });
  }

  const Workload& w_;
  Layers* layers_;
  const Moche engine_;
  std::optional<PreparedReference> prepared_;
  std::optional<sketch::SketchedReference> sketched_;
  std::vector<ShadowStream> streams_;
  ExplainWorkspace workspace_;
  std::vector<double> window_;
  PreferenceList preference_;
  std::vector<KsOutcome> outcomes_;
  Status failure_;
};

// Pushes calls [begin, end). Latencies (ms) and the busy time are recorded
// when `latencies_ms` is non-null; a non-null `shadow` gets every batch
// right after the monitor.
bool Ingest(stream::DriftMonitor* monitor, const Inputs& in, size_t begin,
            size_t end, Ops* ops, std::vector<double>* latencies_ms,
            double* busy_s, Shadow* shadow = nullptr) {
  for (size_t c = begin; c < end; ++c) {
    const Clock::time_point a = Clock::now();
    const Status status = monitor->PushBatch(in.batches[c]);
    const double seconds = SecondsBetween(a, Clock::now());
    if (latencies_ms != nullptr) {
      latencies_ms->push_back(seconds * 1e3);
      *busy_s += seconds;
    }
    if (!ops->Check(status, "PushBatch")) return false;
    if (shadow != nullptr && !ops->Check(shadow->Push(in.batches[c]),
                                         "shadow replay")) {
      return false;
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, const Ops& ops,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += StrFormat(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                   static_cast<unsigned long long>(ops.attempted()),
                   static_cast<unsigned long long>(ops.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": ";
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    AppendG17(v, &out);
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string dump;
  std::string workdir = ".bench_build/monitor_bench_work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args->seconds = -1.0;
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--dump") {
      args->dump = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !have_seed || !(args->seconds > 0.0) ||
      args->trace < 0) {
    std::fprintf(stderr,
                 "usage: monitor_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] [--dump <file>] "
                 "[--workdir <dir>]\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  auto workload = MakeWorkload(args.workload, args.tiny);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *workload;
  const bool traced = args.trace == 1;

  const std::string dir = StrFormat("%s/%s-%ld", args.workdir.c_str(),
                                    w.name.c_str(),
                                    static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const std::string mid_dir = dir + "/midpoint";
  const std::string rep_dir = dir + "/repeat";

  Clock::time_point phase_start = Clock::now();
  const auto phase = [&](const char* name) {
    const Clock::time_point now = Clock::now();
    std::fprintf(stderr, "phase %-10s %8.3f s\n", name,
                 SecondsBetween(phase_start, now));
    phase_start = now;
  };
  const Inputs in = MakeInputs(w, args.seed);
  const size_t calls = in.batches.size();
  Ops ops;
  phase("inputs");

  // Resume check: a restored midpoint monitor replays the rest of the
  // input and must end with the uninterrupted run's event log, byte for
  // byte.
  std::string log;
  const auto resume_check = [&](stream::DriftMonitor* monitor) {
    if (Ingest(monitor, in, in.checkpoint_call, calls, &ops, nullptr,
               nullptr)) {
      ops.Check(persist::FormatEventLog(monitor->events()) == log,
                "resumed event log matches the uninterrupted run");
    }
  };

  // Measurement cycles, repeated until --seconds have passed: setup ->
  // ingest to the checkpoint tick -> CheckpointMonitor -> ingest the rest
  // -> RestoreMonitor of that checkpoint -> CheckpointMonitor of the
  // restored monitor. The phases interleave, so slow swings in host speed
  // fall on every metric alike. Every cycle must reproduce the first
  // cycle's event log, and every restored monitor must re-checkpoint to
  // the midpoint checkpoint's bytes (the snapshot fixed point).
  std::vector<double> setup_s, rss_kb, add_stream_ms, push_ms, cycle_rate;
  std::vector<double> checkpoint_ms, restore_ms;
  double busy_s = 0.0;  // summed PushBatch time, first cycle
  uint64_t observations = 0;  // per cycle
  std::vector<stream::DriftEvent> events;
  stream::DriftMonitor::Stats stats;
  stream::PreparedReferenceCache::Stats cache;
  std::map<std::string, std::string> checkpoint_files;
  std::optional<stream::DriftMonitor> restored;  // traced: kept for persist
  Layers layers;
  std::optional<Shadow> shadow;  // traced only
  size_t cycles = 0;
  const Clock::time_point measure_start = Clock::now();
  while (true) {
    const bool first = cycles == 0;
    Setup setup;
    std::optional<stream::DriftMonitor> monitor = SetUp(w, in, &ops, &setup);
    if (!monitor.has_value()) break;
    setup_s.push_back(setup.seconds);
    rss_kb.push_back(setup.rss_growth_kb);
    add_stream_ms.insert(add_stream_ms.end(), setup.add_stream_ms.begin(),
                         setup.add_stream_ms.end());
    if (traced) {
      shadow.emplace(w, &layers);
      if (!ops.Check(shadow->Init(in.reference), "shadow setup")) break;
    }
    Shadow* const tracer = shadow.has_value() ? &*shadow : nullptr;
    double cycle_busy = 0.0;
    if (!Ingest(&*monitor, in, 0, in.checkpoint_call, &ops, &push_ms,
                &cycle_busy, tracer)) {
      break;
    }
    Clock::time_point a = Clock::now();
    Status status = persist::CheckpointMonitor(*monitor, mid_dir, {kShards});
    checkpoint_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
    if (!ops.Check(status, "CheckpointMonitor")) break;
    if (!Ingest(&*monitor, in, in.checkpoint_call, calls, &ops, &push_ms,
                &cycle_busy, tracer)) {
      break;
    }
    shadow.reset();
    observations = monitor->stats().observations;
    cycle_rate.push_back(static_cast<double>(observations) / cycle_busy);
    std::string cycle_log = persist::FormatEventLog(monitor->events());
    if (first) {
      busy_s = cycle_busy;
      log = std::move(cycle_log);
      events = monitor->events();
      stats = monitor->stats();
      cache = monitor->cache_stats();
      checkpoint_files = ReadDirectory(mid_dir);
    } else {
      ops.Check(cycle_log == log && ReadDirectory(mid_dir) == checkpoint_files,
                "repeated cycle reproduces the event log and checkpoint");
    }
    // Destroyed before the restore: one monitor is alive at a time.
    monitor.reset();
    malloc_trim(0);

    // Restore, then re-checkpoint the restored monitor: each once, then
    // again while the cycle has spent under kRepeatBudgetS on it, so a
    // cheap call gets many samples and a 3 s restore gets one.
    std::optional<stream::DriftMonitor> restore;
    double spent = 0.0;
    while (!restore.has_value() || (!traced && spent < kRepeatBudgetS)) {
      restore.reset();
      a = Clock::now();
      auto restored_now = persist::RestoreMonitor(mid_dir);
      restore_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
      spent += restore_ms.back() * 1e-3;
      if (!ops.Check(restored_now.status(), "RestoreMonitor")) break;
      restore.emplace(std::move(restored_now).value());
    }
    if (!restore.has_value()) break;
    ++cycles;
    if (traced) {
      restored = std::move(restore);
      break;
    }
    const size_t first_repeat = checkpoint_ms.size();
    spent = 0.0;
    while (checkpoint_ms.size() == first_repeat || spent < kRepeatBudgetS) {
      a = Clock::now();
      status = persist::CheckpointMonitor(*restore, rep_dir, {kShards});
      checkpoint_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
      spent += checkpoint_ms.back() * 1e-3;
      if (!ops.Check(status.ok() && ReadDirectory(rep_dir) == checkpoint_files,
                     "restored monitor re-checkpoints to the midpoint "
                     "checkpoint: " + status.ToString())) {
        break;
      }
    }
    if (first) resume_check(&*restore);
    std::fprintf(stderr,
                 "cycle %zu setup_s %.4f obs_per_s %.0f checkpoint_ms %.2f "
                 "restore_ms %.2f\n",
                 cycles, setup_s.back(), cycle_rate.back(),
                 checkpoint_ms.back(), restore_ms.back());
    const double elapsed = SecondsBetween(measure_start, Clock::now());
    if (cycles >= w.min_cycles && push_ms.size() >= w.min_push_calls &&
        elapsed >= args.seconds) {
      break;
    }
  }
  phase("cycles");
  if (cycles == 0) {
    PrintResult(false, ops, {});
    return 1;
  }
  size_t checkpoint_bytes = 0;
  for (const auto& file : checkpoint_files) {
    checkpoint_bytes += file.second.size();
  }

  std::vector<double> serialize_ms, write_ms, read_ms, deserialize_ms;
  double shard_skew = 0.0;
  if (restored.has_value()) {
    // Traced: the parts of CheckpointMonitor / RestoreMonitor, each timed
    // around the public call they make.
    persist::CheckpointBlobs blobs;
    for (size_t r = 0; r < kTracedReps; ++r) {
      const Clock::time_point a = Clock::now();
      auto serialized = persist::MonitorCodec::Serialize(*restored, {kShards});
      serialize_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
      if (!ops.Check(serialized.status(), "MonitorCodec::Serialize")) break;
      blobs = std::move(serialized).value();
    }
    std::filesystem::create_directories(rep_dir, ec);
    std::vector<std::pair<std::string, const std::string*>> files;
    for (uint32_t s = 0; s < blobs.shards.size(); ++s) {
      files.emplace_back(rep_dir + "/" + persist::ShardFileName(s),
                         &blobs.shards[s]);
    }
    files.emplace_back(rep_dir + "/" + persist::kManifestFileName,
                       &blobs.manifest);
    for (size_t r = 0; r < kTracedReps; ++r) {
      Status status;
      const Clock::time_point a = Clock::now();
      for (const auto& file : files) {
        status = persist::AtomicWriteFile(file.first, *file.second);
        if (!status.ok()) break;
      }
      write_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
      if (!ops.Check(status, "AtomicWriteFile")) break;
    }
    for (size_t r = 0; r < kTracedReps; ++r) {
      Status status;
      const Clock::time_point a = Clock::now();
      for (const auto& file : files) {
        auto bytes = persist::ReadFileToString(file.first);
        if (!bytes.ok()) status = bytes.status();
      }
      read_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
      if (!ops.Check(status, "ReadFileToString")) break;
    }
    // At least once, then up to kTracedReps while under a second.
    const Clock::time_point deserialize_start = Clock::now();
    for (size_t r = 0; r < kTracedReps; ++r) {
      if (r > 0 && SecondsBetween(deserialize_start, Clock::now()) > 1.0) {
        break;
      }
      const Clock::time_point a = Clock::now();
      auto monitor = persist::MonitorCodec::Deserialize(blobs, {});
      deserialize_ms.push_back(SecondsBetween(a, Clock::now()) * 1e3);
      if (!ops.Check(monitor.status(), "MonitorCodec::Deserialize")) break;
    }
    ops.Check(ReadDirectory(rep_dir) == checkpoint_files,
              "serialized restored monitor matches the midpoint checkpoint");
    size_t largest = 0;
    size_t total = 0;
    for (const std::string& shard : blobs.shards) {
      largest = std::max(largest, shard.size());
      total += shard.size();
    }
    if (total > 0) {
      shard_skew = static_cast<double>(largest) *
                   static_cast<double>(blobs.shards.size()) /
                   static_cast<double>(total);
    }
    resume_check(&*restored);
    restored.reset();
    phase("persist");
  }

  for (const stream::DriftEvent& e : events) {
    std::string why;
    ops.Check(IsCounterfactual(w, in, e, &why),
              StrFormat("counterfactual check, stream %zu tick %llu: %s",
                        e.stream, static_cast<unsigned long long>(e.tick),
                        why.c_str()));
  }
  const Delay delay = DetectionDelay(in, events);
  ops.Check(delay.streams > 0, "at least one drifting stream detected");
  phase("checks");

  if (traced) {
    ops.Check(stream::SameEventLogs(layers.events, events) &&
                  layers.drift_ticks == stats.drift_ticks &&
                  layers.certified_pass == stats.triage_certified_pass &&
                  layers.certified_fail == stats.triage_certified_fail &&
                  layers.fallbacks == stats.triage_fallbacks,
              "shadow replay reproduces the monitor's events and counters");
  }

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"ingest_obs_per_s", Median(cycle_rate), "obs/s"},
        {"push_p50_ms", Median(push_ms), "ms"},
        {"push_p99_ms", Quantile(push_ms, 0.99), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"mem_per_stream_kb",
         Median(rss_kb) / static_cast<double>(w.streams), "KiB"},
        {"checkpoint_ms", Median(checkpoint_ms), "ms"},
        {"restore_ms", Median(restore_ms), "ms"},
        {"checkpoint_bytes", static_cast<double>(checkpoint_bytes), "bytes"},
        {"detect_delay_ticks", delay.median_ticks, "ticks"},
        {"ok_ops_ratio", 0.0, "ratio"},
    };
  } else {
    const double detector_s = Sum(layers.detector_push_us) * 1e-6;
    const double triage_s = Sum(layers.triage_us) * 1e-6;
    const double fallback_s = Sum(layers.fallback_us) * 1e-6;
    const double explain_s = Sum(layers.explain_ms) * 1e-3;
    const double layer_sum = detector_s + triage_s + fallback_s + explain_s;
    // A --tiny run's few milliseconds of busy time are below timer noise
    // (its layer sum swings from 0.25x to 1.2x of it), so only full runs
    // check the sum.
    if (!args.tiny) {
      ops.Check(layer_sum <= busy_s * (1.0 + kLayerSumTolerance),
                StrFormat("shadow-timed layers sum to %.4f s, PushBatch busy "
                          "time is %.4f s (tolerance %.0f%%)",
                          layer_sum, busy_s, kLayerSumTolerance * 100.0));
    }
    uint64_t theorem1_checks = 0;
    uint64_t full_scans = 0;
    for (const stream::DriftEvent& e : layers.events) {
      theorem1_checks += e.report.size_stats.theorem1_checks;
      full_scans += e.report.size_stats.full_scans;
    }
    const uint64_t triaged = stats.triage_certified_pass +
                             stats.triage_certified_fail +
                             stats.triage_fallbacks;
    const double untraced_rate = static_cast<double>(observations) / busy_s;
    const double traced_rate =
        static_cast<double>(observations) / layers.replay_s;
    metrics = {
        {"stream.add_stream_ms", Median(add_stream_ms), "ms"},
        {"stream.push_busy_s", busy_s, "s"},
        {"stream.self_s", busy_s - layer_sum, "s"},
        {"stream.explanations", static_cast<double>(stats.explanations),
         "count"},
        {"stream.drift_ticks", static_cast<double>(stats.drift_ticks),
         "count"},
        {"stream.cache_hits", static_cast<double>(cache.hits), "count"},
        {"stream.delay_streams", static_cast<double>(delay.streams), "count"},
        {"ks.detector_build_ms", Median(layers.detector_build_ms), "ms"},
        {"ks.detector_push_us", Median(layers.detector_push_us), "us"},
        {"ks.detector_s", detector_s, "s"},
        {"sketch.build_ms", layers.sketch_build_ms, "ms"},
        {"sketch.triage_us", Median(layers.triage_us), "us"},
        {"sketch.triage_s", triage_s, "s"},
        {"sketch.certified_ratio",
         triaged == 0 ? 0.0
                      : static_cast<double>(stats.triage_certified_pass +
                                            stats.triage_certified_fail) /
                            static_cast<double>(triaged),
         "ratio"},
        {"sketch.reference_bytes",
         static_cast<double>(layers.sketch_reference_bytes), "bytes"},
        {"core.prepare_ms", layers.prepare_ms, "ms"},
        {"core.fallback_us", Median(layers.fallback_us), "us"},
        {"core.fallback_s", fallback_s, "s"},
        {"core.explain_ms_p50", Median(layers.explain_ms), "ms"},
        {"core.explain_ms_p90", Quantile(layers.explain_ms, 0.90), "ms"},
        {"core.explain_s", explain_s, "s"},
        {"core.theorem1_checks", static_cast<double>(theorem1_checks),
         "count"},
        {"core.full_scans", static_cast<double>(full_scans), "count"},
        {"persist.serialize_ms", Median(serialize_ms), "ms"},
        {"persist.write_ms", Median(write_ms), "ms"},
        {"persist.deserialize_ms", Median(deserialize_ms), "ms"},
        {"persist.read_ms", Median(read_ms), "ms"},
        {"persist.shard_skew", shard_skew, "ratio"},
        {"share.ks", detector_s / busy_s, "ratio"},
        {"share.sketch", triage_s / busy_s, "ratio"},
        {"share.core_fallback", fallback_s / busy_s, "ratio"},
        {"share.core_explain", explain_s / busy_s, "ratio"},
        {"share.stream_self", (busy_s - layer_sum) / busy_s, "ratio"},
        {"trace.ingest_obs_per_s", traced_rate, "obs/s"},
        {"trace.overhead_ratio", untraced_rate / traced_rate, "ratio"},
    };
  }

  if (!args.dump.empty()) {
    std::string text = StrFormat(
        "workload=%s seed=%llu checkpoint_bytes=%zu events=%zu "
        "explanations=%llu drift_ticks=%llu delay_streams=%zu "
        "detect_delay_ticks=",
        w.name.c_str(), static_cast<unsigned long long>(args.seed),
        checkpoint_bytes, events.size(),
        static_cast<unsigned long long>(stats.explanations),
        static_cast<unsigned long long>(stats.drift_ticks), delay.streams);
    AppendG17(delay.median_ticks, &text);
    text += "\ndelays=";
    for (uint64_t d : delay.per_stream) {
      text += StrFormat("%llu ", static_cast<unsigned long long>(d));
    }
    text += "\n" + log;
    ops.Check(persist::AtomicWriteFile(args.dump, text), "write --dump");
  }
  std::filesystem::remove_all(dir, ec);

  const bool correct = ops.failed() == 0;
  for (Metric& m : metrics) {
    if (m.name == "ok_ops_ratio") {
      m.value = static_cast<double>(ops.attempted() - ops.failed()) /
                static_cast<double>(ops.attempted());
    }
  }
  std::printf("# workload=%s seed=%llu trace=%d cycles=%zu push_calls=%zu "
              "events=%zu delay_streams=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, cycles, push_ms.size(), events.size(),
              delay.streams);
  PrintResult(correct, ops, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
