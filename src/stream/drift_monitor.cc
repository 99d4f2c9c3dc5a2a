#include "stream/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/stats.h"
#include "util/string_util.h"

namespace moche {
namespace stream {

bool SameEventLogs(const std::vector<DriftEvent>& a,
                   const std::vector<DriftEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const DriftEvent& x = a[i];
    const DriftEvent& y = b[i];
    if (x.stream != y.stream || x.tick != y.tick ||
        x.outcome.statistic != y.outcome.statistic ||
        x.outcome.threshold != y.outcome.threshold ||
        x.explain_status.code() != y.explain_status.code()) {
      return false;
    }
    if (x.explain_status.ok() &&
        (x.report.k != y.report.k || x.report.k_hat != y.report.k_hat ||
         x.report.explanation.indices != y.report.explanation.indices)) {
      return false;
    }
  }
  return true;
}

void DriftMonitor::Stream::WindowContentsInto(
    std::vector<double>* out) const {
  if (detector.has_value()) {
    detector->WindowContentsInto(out);
    return;
  }
  out->clear();
  out->reserve(window);
  if (ring.size() < window) {
    out->insert(out->end(), ring.begin(), ring.end());
    return;
  }
  // Full ring: oldest lives at ring_head.
  out->insert(out->end(),
              ring.begin() + static_cast<ptrdiff_t>(ring_head), ring.end());
  out->insert(out->end(), ring.begin(),
              ring.begin() + static_cast<ptrdiff_t>(ring_head));
}

Status DriftMonitor::Stream::Push(double v) {
  if (detector.has_value()) return detector->Push(v);
  if (ring.size() < window) {
    // Filling phase. AddStream reserved full capacity, so a live ring never
    // reallocates; a restored one grows from what its snapshot held.
    ring.push_back(v);
  } else {
    ring[ring_head] = v;
    ring_head = (ring_head + 1) % window;
  }
  return Status::OK();
}

DriftMonitor::DriftMonitor(const MonitorOptions& options)
    : options_(options),
      engine_(options.moche),
      state_mutex_(std::make_unique<Mutex>()),
      cache_(std::make_unique<PreparedReferenceCache>(
          PreparedReferenceCache::Options{options.cache_capacity})) {
  const size_t threads = ResolveThreadCount(options.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  // One scratch slot per worker (slot 0 is the PushBatch caller); the
  // workspaces themselves are created on first use.
  worker_scratch_.resize(pool_ != nullptr ? pool_->num_threads() : 1);
}

Result<DriftMonitor> DriftMonitor::Create(const MonitorOptions& options) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(options.alpha));
  if (options.rearm == RearmPolicy::kEveryKPushes &&
      options.explain_every_k == 0) {
    return Status::InvalidArgument(
        "kEveryKPushes needs explain_every_k >= 1");
  }
  if (options.reference_mode == ReferenceMode::kSketched &&
      (options.sketch_k < sketch::KllSketch::kMinCapacity ||
       options.sketch_k > sketch::KllSketch::kMaxCapacity)) {
    return Status::InvalidArgument(
        StrFormat("sketch_k %zu outside [%zu, %zu]", options.sketch_k,
                  sketch::KllSketch::kMinCapacity,
                  sketch::KllSketch::kMaxCapacity));
  }
  return DriftMonitor(options);
}

Result<size_t> DriftMonitor::AddStream(std::string name,
                                       const std::vector<double>& reference,
                                       size_t window_size) {
  // Checked before anything is interned, so a failed call leaves the cache
  // untouched.
  if (window_size == 0) {
    return Status::InvalidArgument("window_size must be >= 1");
  }
  if (reference.size() > StreamingKs::kMaxScoreProduct / window_size) {
    return Status::InvalidArgument(
        StrFormat("reference size %zu times window_size %zu exceeds the "
                  "2^60 score bound",
                  reference.size(), window_size));
  }
  // Prepare first (validates the sample and interns the sorted reference).
  // Both modes keep the exact interned form: sketched streams fall back to
  // it for uncertain windows and every explanation runs against it.
  MOCHE_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedReference> prepared,
      cache_->GetOrPrepare(engine_, reference, options_.alpha));
  Stream stream;
  stream.name = std::move(name);
  stream.prepared = std::move(prepared);
  if (options_.reference_mode == ReferenceMode::kSketched) {
    sketch::KllOptions kll;
    kll.capacity = options_.sketch_k;
    MOCHE_ASSIGN_OR_RETURN(
        stream.sketched,
        cache_->GetOrSketch(reference, options_.alpha, kll));
    stream.window = window_size;
    stream.ring.reserve(window_size);
  } else {
    // The detector shares the interned sorted sample; the aliasing pointer
    // keeps the cache entry alive for as long as the detector uses it.
    std::shared_ptr<const std::vector<double>> sorted(
        stream.prepared, &stream.prepared->sorted_reference());
    MOCHE_ASSIGN_OR_RETURN(
        StreamingKs detector,
        StreamingKs::CreateOverSorted(std::move(sorted), window_size,
                                      options_.alpha));
    stream.detector.emplace(std::move(detector));
  }
  MutexLock lock(state_mutex_.get());
  streams_.push_back(std::move(stream));
  return streams_.size() - 1;
}

DriftMonitor::WorkerScratch& DriftMonitor::ScratchFor(size_t worker) {
  if (worker_scratch_[worker] == nullptr) {
    worker_scratch_[worker] = std::make_unique<WorkerScratch>();
  }
  return *worker_scratch_[worker];
}

DriftEvent DriftMonitor::Explain(size_t worker, size_t i,
                                 const KsOutcome& outcome) {
  WorkerScratch& scratch = ScratchFor(worker);
  Stream& s = streams_[i];
  DriftEvent event;
  event.stream = i;
  event.tick = s.ticks;
  event.outcome = outcome;
  s.WindowContentsInto(&scratch.window);
  IdentityPreferenceInto(scratch.window.size(), &scratch.pref);
  if (options_.preference == WindowPreference::kNewestFirst) {
    std::reverse(scratch.pref.begin(), scratch.pref.end());
  }
  // The report is written straight into the event (which outlives the call
  // in the log); all transient scratch lives in the worker's workspace.
  const Status status = engine_.ExplainPreparedInto(
      *s.prepared, scratch.window, scratch.pref, &scratch.workspace,
      &event.report);
  if (!status.ok()) event.explain_status = status;
  return event;
}

Status DriftMonitor::ExactWindowOutcome(const Stream& s,
                                        WorkerScratch* scratch,
                                        std::optional<KsOutcome>* outcome) {
  WindowBatch batch;
  batch.data = scratch->window.data();
  batch.count = 1;
  batch.width = scratch->window.size();
  MOCHE_RETURN_IF_ERROR(engine_.EvaluateBatchPrepared(
      *s.prepared, batch, &scratch->workspace, &scratch->outcomes));
  *outcome = scratch->outcomes[0];
  return Status::OK();
}

Status DriftMonitor::TriageWindow(size_t worker, Stream* s, bool* reject,
                                  std::optional<KsOutcome>* outcome) {
  WorkerScratch& scratch = ScratchFor(worker);
  s->WindowContentsInto(&scratch.window);
  sketch::SketchTriage triage;
  MOCHE_RETURN_IF_ERROR(engine_.TriageSketchedInto(
      *s->sketched, scratch.window, &scratch.workspace, &triage));
  switch (triage.verdict) {
    case sketch::TriageVerdict::kCertainPass:
      ++s->triage_certified_pass;
      *reject = false;
      break;
    case sketch::TriageVerdict::kCertainFail:
      ++s->triage_certified_fail;
      *reject = true;
      break;
    case sketch::TriageVerdict::kUncertain:
      ++s->triage_fallbacks;
      MOCHE_RETURN_IF_ERROR(ExactWindowOutcome(*s, &scratch, outcome));
      *reject = (*outcome)->reject;
      break;
  }
  return Status::OK();
}

Status DriftMonitor::DrainStream(size_t worker, size_t i,
                                 const std::vector<double>& values,
                                 std::vector<DriftEvent>* out) {
  Stream& s = streams_[i];
  for (double v : values) {
    MOCHE_RETURN_IF_ERROR(s.Push(v));
    ++s.ticks;
    if (!s.WindowFull()) continue;
    // The per-mode step: whether the full window rejects, plus its exact
    // outcome when that is already known.
    bool reject = false;
    std::optional<KsOutcome> outcome;
    if (s.sketched != nullptr) {
      MOCHE_RETURN_IF_ERROR(TriageWindow(worker, &s, &reject, &outcome));
    } else {
      // Validated at construction; the window is full — CurrentOutcome
      // cannot fail.
      MOCHE_ASSIGN_OR_RETURN(outcome, s.detector->CurrentOutcome());
      reject = outcome->reject;
    }
    if (!reject) {
      s.in_excursion = false;
      continue;
    }
    ++s.drift_ticks;
    bool fire = false;
    if (!s.in_excursion) {
      s.in_excursion = true;
      fire = true;
    } else if (options_.rearm == RearmPolicy::kEveryKPushes) {
      fire = s.pushes_since_explained + 1 >= options_.explain_every_k;
    }
    if (!fire) {
      ++s.pushes_since_explained;
      continue;
    }
    if (!outcome.has_value()) {
      // A certified sketched fail: pay for the exact outcome only now that
      // the push fires. TriageWindow left the window in the scratch.
      MOCHE_RETURN_IF_ERROR(
          ExactWindowOutcome(s, &ScratchFor(worker), &outcome));
    }
    out->push_back(Explain(worker, i, *outcome));
    s.pushes_since_explained = 0;
  }
  return Status::OK();
}

Status DriftMonitor::PushBatch(
    const std::vector<std::vector<double>>& observations) {
  if (observations.size() != streams_.size()) {
    return Status::InvalidArgument(
        StrFormat("batch has %zu slots for %zu streams",
                  observations.size(), streams_.size()));
  }
  // Validate before fanning out: workers must not fail mid-stream (a
  // partial drain would leave detector windows half-advanced). One
  // finiteness pass per stream slot.
  for (size_t i = 0; i < observations.size(); ++i) {
    if (!AllFinite(observations[i].data(), observations[i].size())) {
      return Status::InvalidArgument(
          StrFormat("non-finite observation for stream %zu ('%s')", i,
                    streams_[i].name.c_str()));
    }
  }

  // Everything past validation mutates monitor state, so it runs under the
  // state mutex: a concurrent persist::CheckpointMonitor serializes either
  // the pre-batch or the post-batch state, never a torn one.
  MutexLock lock(state_mutex_.get());

  // Stream i's task writes only slot i; the merge below is therefore
  // independent of which worker ran which stream. The buffers are monitor
  // members: clear() keeps their capacity, so a warmed-up batch that fires
  // no event allocates nothing here.
  batch_buffers_.resize(streams_.size());
  for (std::vector<DriftEvent>& buffer : batch_buffers_) buffer.clear();
  batch_statuses_.assign(streams_.size(), Status::OK());
  const auto task = [&](size_t worker, size_t i) {
    batch_statuses_[i] =
        DrainStream(worker, i, observations[i], &batch_buffers_[i]);
  };
  if (pool_ != nullptr) {
    pool_->ParallelForWorker(streams_.size(), task);
  } else {
    for (size_t i = 0; i < streams_.size(); ++i) task(/*worker=*/0, i);
  }

  size_t fired = 0;
  for (size_t i = 0; i < streams_.size(); ++i) {
    MOCHE_RETURN_IF_ERROR(batch_statuses_[i]);
    fired += batch_buffers_[i].size();
  }
  if (fired == 0) return Status::OK();

  // Merge in (tick, stream) order: deterministic for any thread count, and
  // — when streams are fed in lockstep, as the replay harness does — also
  // independent of how the caller batches the ticks.
  std::vector<DriftEvent>& merged = batch_merged_;
  merged.clear();
  merged.reserve(fired);
  for (std::vector<DriftEvent>& buffer : batch_buffers_) {
    for (DriftEvent& event : buffer) {
      merged.push_back(std::move(event));
    }
  }
  // moche-lint: allow(sort-doubles): keyed on integer (tick, stream) only
  std::stable_sort(merged.begin(), merged.end(),
                   [](const DriftEvent& a, const DriftEvent& b) {
                     return a.tick != b.tick ? a.tick < b.tick
                                             : a.stream < b.stream;
                   });
  for (DriftEvent& event : merged) {
    events_.push_back(std::move(event));
    ++explanations_total_;
  }
  merged.clear();
  return Status::OK();
}

void DriftMonitor::ClearEvents() {
  MutexLock lock(state_mutex_.get());
  events_.clear();
}

Status DriftMonitor::PushTick(const std::vector<double>& values) {
  std::vector<std::vector<double>> batch(values.size());
  for (size_t i = 0; i < values.size(); ++i) batch[i] = {values[i]};
  return PushBatch(batch);
}

DriftMonitor::Stats DriftMonitor::stats() const {
  Stats s;
  s.streams = streams_.size();
  for (const Stream& stream : streams_) {
    s.observations += stream.ticks;
    s.drift_ticks += stream.drift_ticks;
    s.triage_certified_pass += stream.triage_certified_pass;
    s.triage_certified_fail += stream.triage_certified_fail;
    s.triage_fallbacks += stream.triage_fallbacks;
  }
  s.explanations = explanations_total_;
  for (const std::unique_ptr<WorkerScratch>& scratch : worker_scratch_) {
    if (scratch == nullptr) continue;
    ++s.workspaces_created;
    s.workspace_bytes += scratch->FootprintBytes();
  }
  return s;
}

}  // namespace stream
}  // namespace moche
