#include "persist/monitor_codec.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "persist/snapshot.h"
#include "sketch/sketched_reference.h"
#include "util/binary_io.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace moche {
namespace persist {

namespace {

using stream::DriftEvent;
using stream::DriftMonitor;
using stream::MonitorOptions;
using stream::RearmPolicy;
using stream::ReferenceMode;
using stream::WindowPreference;

// Section ids (docs/SNAPSHOT.md). Values are part of the on-disk format:
// never renumber, only append.
constexpr uint32_t kSectionManifest = 1;
constexpr uint32_t kSectionShardHeader = 2;
constexpr uint32_t kSectionReferences = 3;
constexpr uint32_t kSectionStreams = 4;
constexpr uint32_t kSectionEvents = 5;

void AppendOutcome(const KsOutcome& o, std::string* out) {
  bin::AppendDoubleLe(o.statistic, out);
  bin::AppendDoubleLe(o.threshold, out);
  bin::AppendU8(o.reject ? 1 : 0, out);
  bin::AppendDoubleLe(o.location, out);
  bin::AppendU64Le(static_cast<uint64_t>(o.n), out);
  bin::AppendU64Le(static_cast<uint64_t>(o.m), out);
}

bool ReadOutcome(bin::Reader* r, KsOutcome* o) {
  uint8_t reject = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  if (!r->ReadDoubleLe(&o->statistic) || !r->ReadDoubleLe(&o->threshold) ||
      !r->ReadU8(&reject) || !r->ReadDoubleLe(&o->location) ||
      !r->ReadU64Le(&n) || !r->ReadU64Le(&m)) {
    return false;
  }
  o->reject = reject != 0;
  o->n = static_cast<size_t>(n);
  o->m = static_cast<size_t>(m);
  return true;
}

void AppendStatus(const Status& status, std::string* out) {
  bin::AppendU32Le(static_cast<uint32_t>(status.code()), out);
  bin::AppendString(status.message(), out);
}

Status ReadStatus(bin::Reader* r, const std::string& what, Status* out) {
  uint32_t code = 0;
  std::string message;
  if (!r->ReadU32Le(&code) || !r->ReadString(&message)) {
    return Status::OutOfRange(
        StrFormat("%s: event log truncated inside a status", what.c_str()));
  }
  if (code > static_cast<uint32_t>(StatusCode::kUnimplemented)) {
    return Status::InvalidArgument(
        StrFormat("%s: %u is not a status code", what.c_str(), code));
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

// The deterministic MocheReport fields. The wall-time seconds_* members
// are measurements, not state: they are dropped here and restore as 0.0,
// which is what makes re-serializing a restored monitor a byte fixed
// point.
void AppendReport(const MocheReport& report, std::string* out) {
  bin::AppendU64Le(static_cast<uint64_t>(report.k), out);
  bin::AppendU64Le(static_cast<uint64_t>(report.k_hat), out);
  bin::AppendU64Le(static_cast<uint64_t>(report.explanation.indices.size()),
                   out);
  for (size_t idx : report.explanation.indices) {
    bin::AppendU64Le(static_cast<uint64_t>(idx), out);
  }
  AppendOutcome(report.original, out);
  AppendOutcome(report.after, out);
  bin::AppendU64Le(static_cast<uint64_t>(report.size_stats.k), out);
  bin::AppendU64Le(static_cast<uint64_t>(report.size_stats.k_hat), out);
  bin::AppendU64Le(static_cast<uint64_t>(report.size_stats.theorem1_checks),
                   out);
  bin::AppendU64Le(static_cast<uint64_t>(report.size_stats.theorem2_checks),
                   out);
  bin::AppendU64Le(static_cast<uint64_t>(report.size_stats.probe_refutations),
                   out);
  bin::AppendU64Le(static_cast<uint64_t>(report.size_stats.full_scans), out);
  bin::AppendU64Le(static_cast<uint64_t>(report.build_stats.candidates_checked),
                   out);
  bin::AppendU64Le(static_cast<uint64_t>(report.build_stats.recursion_steps),
                   out);
}

Status ReadReport(bin::Reader* r, const std::string& what,
                  MocheReport* report) {
  const Status truncated = Status::OutOfRange(
      StrFormat("%s: event log truncated inside a report", what.c_str()));
  uint64_t k = 0;
  uint64_t k_hat = 0;
  uint64_t index_count = 0;
  if (!r->ReadU64Le(&k) || !r->ReadU64Le(&k_hat) ||
      !r->ReadU64Le(&index_count)) {
    return truncated;
  }
  // Each index takes 8 payload bytes; a count the remaining bytes cannot
  // hold is a corrupted length field, rejected before any allocation.
  if (index_count > r->remaining() / 8) return truncated;
  report->k = static_cast<size_t>(k);
  report->k_hat = static_cast<size_t>(k_hat);
  report->explanation.indices.clear();
  report->explanation.indices.reserve(static_cast<size_t>(index_count));
  for (uint64_t i = 0; i < index_count; ++i) {
    uint64_t idx = 0;
    r->ReadU64Le(&idx);  // cannot fail: count * 8 <= remaining was checked
    report->explanation.indices.push_back(static_cast<size_t>(idx));
  }
  if (!ReadOutcome(r, &report->original) || !ReadOutcome(r, &report->after)) {
    return truncated;
  }
  uint64_t words[8] = {};
  for (uint64_t& w : words) {
    if (!r->ReadU64Le(&w)) return truncated;
  }
  report->size_stats.k = static_cast<size_t>(words[0]);
  report->size_stats.k_hat = static_cast<size_t>(words[1]);
  report->size_stats.theorem1_checks = static_cast<size_t>(words[2]);
  report->size_stats.theorem2_checks = static_cast<size_t>(words[3]);
  report->size_stats.probe_refutations = static_cast<size_t>(words[4]);
  report->size_stats.full_scans = static_cast<size_t>(words[5]);
  report->build_stats.candidates_checked = static_cast<size_t>(words[6]);
  report->build_stats.recursion_steps = static_cast<size_t>(words[7]);
  report->seconds_size_search = 0.0;
  report->seconds_construction = 0.0;
  return Status::OK();
}

struct Manifest {
  uint32_t num_shards = 0;
  uint64_t num_streams = 0;
  uint64_t num_events = 0;
  uint64_t explanations_total = 0;
  MonitorOptions options;  // num_threads is a restore-time choice, not state
};

void AppendManifest(const Manifest& manifest, std::string* out) {
  bin::AppendU32Le(manifest.num_shards, out);
  bin::AppendU64Le(manifest.num_streams, out);
  bin::AppendU64Le(manifest.num_events, out);
  bin::AppendU64Le(manifest.explanations_total, out);
  const MonitorOptions& o = manifest.options;
  bin::AppendDoubleLe(o.alpha, out);
  bin::AppendU8(static_cast<uint8_t>(o.rearm), out);
  bin::AppendU64Le(static_cast<uint64_t>(o.explain_every_k), out);
  bin::AppendU8(static_cast<uint8_t>(o.preference), out);
  bin::AppendU8(o.moche.use_lower_bound ? 1 : 0, out);
  bin::AppendU8(o.moche.incremental_partial_check ? 1 : 0, out);
  bin::AppendU8(o.moche.validate_result ? 1 : 0, out);
  // Format v2 fields (docs/SNAPSHOT.md); version-1 manifests end above.
  bin::AppendU8(static_cast<uint8_t>(o.reference_mode), out);
  bin::AppendU64Le(static_cast<uint64_t>(o.sketch_k), out);
  bin::AppendU64Le(static_cast<uint64_t>(o.cache_capacity), out);
}

Status ParseManifest(std::string_view bytes, Manifest* out) {
  const std::string what = kManifestFileName;
  MOCHE_ASSIGN_OR_RETURN(SnapshotReader reader,
                         SnapshotReader::Open(bytes, what));
  SnapshotSection section;
  bool done = false;
  MOCHE_RETURN_IF_ERROR(reader.Next(&section, &done));
  if (done || section.id != kSectionManifest) {
    return Status::InvalidArgument(
        StrFormat("%s: missing manifest section", what.c_str()));
  }
  bin::Reader r(section.payload);
  uint8_t rearm = 0;
  uint64_t explain_every_k = 0;
  uint8_t preference = 0;
  uint8_t bools[3] = {};
  if (!r.ReadU32Le(&out->num_shards) || !r.ReadU64Le(&out->num_streams) ||
      !r.ReadU64Le(&out->num_events) ||
      !r.ReadU64Le(&out->explanations_total) ||
      !r.ReadDoubleLe(&out->options.alpha) || !r.ReadU8(&rearm) ||
      !r.ReadU64Le(&explain_every_k) || !r.ReadU8(&preference) ||
      !r.ReadU8(&bools[0]) || !r.ReadU8(&bools[1]) || !r.ReadU8(&bools[2])) {
    return Status::OutOfRange(
        StrFormat("%s: manifest section truncated", what.c_str()));
  }
  if (reader.version() >= 2) {
    uint8_t mode = 0;
    uint64_t sketch_k = 0;
    uint64_t cache_capacity = 0;
    if (!r.ReadU8(&mode) || !r.ReadU64Le(&sketch_k) ||
        !r.ReadU64Le(&cache_capacity)) {
      return Status::OutOfRange(
          StrFormat("%s: manifest section truncated", what.c_str()));
    }
    if (mode > static_cast<uint8_t>(ReferenceMode::kSketched)) {
      return Status::InvalidArgument(
          StrFormat("%s: %u is not a reference mode", what.c_str(), mode));
    }
    out->options.reference_mode = static_cast<ReferenceMode>(mode);
    out->options.sketch_k = static_cast<size_t>(sketch_k);
    out->options.cache_capacity = static_cast<size_t>(cache_capacity);
  }
  // A version-1 manifest simply ends here; the defaults (kExact) stand.
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("%s: manifest section has trailing bytes", what.c_str()));
  }
  if (out->num_shards == 0) {
    return Status::InvalidArgument(
        StrFormat("%s: checkpoint claims 0 shards", what.c_str()));
  }
  if (rearm > static_cast<uint8_t>(RearmPolicy::kEveryKPushes)) {
    return Status::InvalidArgument(
        StrFormat("%s: %u is not a re-arm policy", what.c_str(), rearm));
  }
  if (preference > static_cast<uint8_t>(WindowPreference::kNewestFirst)) {
    return Status::InvalidArgument(
        StrFormat("%s: %u is not a window preference", what.c_str(),
                  preference));
  }
  out->options.rearm = static_cast<RearmPolicy>(rearm);
  out->options.explain_every_k = static_cast<size_t>(explain_every_k);
  out->options.preference = static_cast<WindowPreference>(preference);
  out->options.moche.use_lower_bound = bools[0] != 0;
  out->options.moche.incremental_partial_check = bools[1] != 0;
  out->options.moche.validate_result = bools[2] != 0;
  MOCHE_RETURN_IF_ERROR(reader.Next(&section, &done));
  if (!done) {
    return Status::InvalidArgument(
        StrFormat("%s: unexpected section after the manifest", what.c_str()));
  }
  return Status::OK();
}

// A stream parsed out of a shard, waiting for its global slot.
struct RestoredStream {
  std::string name;
  std::optional<StreamingKs> detector;  // engaged exactly in kExact mode
  std::shared_ptr<const PreparedReference> prepared;
  std::shared_ptr<const sketch::SketchedReference> sketched;  // kSketched
  std::vector<double> ring;  // kSketched window contents, oldest first
  uint64_t window = 0;       // kSketched ring capacity
  uint64_t ticks = 0;
  bool in_excursion = false;
  uint64_t pushes_since_explained = 0;
  uint64_t drift_ticks = 0;
  uint64_t triage_certified_pass = 0;
  uint64_t triage_certified_fail = 0;
  uint64_t triage_fallbacks = 0;
};

// One interned reference of a shard's reference table.
struct RestoredReference {
  std::shared_ptr<const PreparedReference> prepared;
  std::shared_ptr<const sketch::SketchedReference> sketched;  // kSketched
};

Status ExpectSection(SnapshotReader* reader, uint32_t id, const char* name,
                     SnapshotSection* section) {
  bool done = false;
  MOCHE_RETURN_IF_ERROR(reader->Next(section, &done));
  if (done || section->id != id) {
    return Status::InvalidArgument(StrFormat("%s: missing %s section",
                                             reader->what().c_str(), name));
  }
  return Status::OK();
}

Status ParseShard(const std::string& bytes, uint32_t shard_index,
                  const Manifest& manifest, double monitor_alpha,
                  stream::PreparedReferenceCache* cache,
                  std::vector<std::unique_ptr<RestoredStream>>* stream_slots,
                  std::vector<DriftEvent>* events,
                  std::vector<unsigned char>* event_seen) {
  const std::string what = ShardFileName(shard_index);
  MOCHE_ASSIGN_OR_RETURN(SnapshotReader reader,
                         SnapshotReader::Open(bytes, what));
  SnapshotSection section;

  MOCHE_RETURN_IF_ERROR(
      ExpectSection(&reader, kSectionShardHeader, "shard header", &section));
  {
    bin::Reader r(section.payload);
    uint32_t index = 0;
    uint32_t num_shards = 0;
    if (!r.ReadU32Le(&index) || !r.ReadU32Le(&num_shards) || !r.AtEnd()) {
      return Status::OutOfRange(
          StrFormat("%s: shard header truncated", what.c_str()));
    }
    if (index != shard_index || num_shards != manifest.num_shards) {
      return Status::InvalidArgument(StrFormat(
          "%s: shard header claims shard %u of %u, expected %u of %u",
          what.c_str(), index, num_shards, shard_index, manifest.num_shards));
    }
  }

  MOCHE_RETURN_IF_ERROR(
      ExpectSection(&reader, kSectionReferences, "reference table", &section));
  std::vector<RestoredReference> refs;
  {
    bin::Reader r(section.payload);
    uint64_t count = 0;
    if (!r.ReadU64Le(&count)) {
      return Status::OutOfRange(
          StrFormat("%s: reference table truncated", what.c_str()));
    }
    // Reused across entries: the cache copies a key only into a new entry.
    std::vector<double> original;
    for (uint64_t i = 0; i < count; ++i) {
      RestoredReference ref;
      double alpha = 0.0;
      if (!r.ReadDoubleArray(&original) || !r.ReadDoubleLe(&alpha)) {
        return Status::OutOfRange(StrFormat(
            "%s: reference table truncated in entry %llu", what.c_str(),
            static_cast<unsigned long long>(i)));
      }
      if (alpha != monitor_alpha) {
        return Status::InvalidArgument(StrFormat(
            "%s: reference %llu alpha does not match the monitor's",
            what.c_str(), static_cast<unsigned long long>(i)));
      }
      MOCHE_ASSIGN_OR_RETURN(PreparedReference prepared,
                             PreparedReference::DeserializeFrom(&r));
      MOCHE_ASSIGN_OR_RETURN(
          ref.prepared,
          cache->InternRestored(original, alpha, std::move(prepared)));
      if (reader.version() >= 2 &&
          manifest.options.reference_mode == ReferenceMode::kSketched) {
        MOCHE_ASSIGN_OR_RETURN(sketch::SketchedReference sketched,
                               sketch::SketchedReference::DeserializeFrom(&r));
        if (sketched.sketch_capacity() != manifest.options.sketch_k) {
          return Status::InvalidArgument(StrFormat(
              "%s: reference %llu sketch capacity %zu does not match the "
              "manifest's sketch_k %zu",
              what.c_str(), static_cast<unsigned long long>(i),
              sketched.sketch_capacity(), manifest.options.sketch_k));
        }
        MOCHE_ASSIGN_OR_RETURN(
            ref.sketched,
            cache->InternRestoredSketched(original, alpha,
                                          std::move(sketched)));
      }
      refs.push_back(std::move(ref));
    }
    if (!r.AtEnd()) {
      return Status::InvalidArgument(StrFormat(
          "%s: reference table has trailing bytes", what.c_str()));
    }
  }

  MOCHE_RETURN_IF_ERROR(
      ExpectSection(&reader, kSectionStreams, "stream table", &section));
  {
    bin::Reader r(section.payload);
    uint64_t count = 0;
    if (!r.ReadU64Le(&count)) {
      return Status::OutOfRange(
          StrFormat("%s: stream table truncated", what.c_str()));
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t index = 0;
      std::string name;
      uint64_t ref_index = 0;
      uint64_t ticks = 0;
      uint8_t in_excursion = 0;
      uint64_t pushes = 0;
      uint64_t drift_ticks = 0;
      if (!r.ReadU64Le(&index) || !r.ReadString(&name) ||
          !r.ReadU64Le(&ref_index) || !r.ReadU64Le(&ticks) ||
          !r.ReadU8(&in_excursion) || !r.ReadU64Le(&pushes) ||
          !r.ReadU64Le(&drift_ticks)) {
        return Status::OutOfRange(StrFormat(
            "%s: stream table truncated in entry %llu", what.c_str(),
            static_cast<unsigned long long>(i)));
      }
      if (index >= manifest.num_streams) {
        return Status::InvalidArgument(StrFormat(
            "%s: stream index %llu out of range (checkpoint has %llu)",
            what.c_str(), static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(manifest.num_streams)));
      }
      if ((*stream_slots)[static_cast<size_t>(index)] != nullptr) {
        return Status::InvalidArgument(StrFormat(
            "%s: duplicate stream index %llu", what.c_str(),
            static_cast<unsigned long long>(index)));
      }
      if (ref_index >= refs.size()) {
        return Status::InvalidArgument(StrFormat(
            "%s: stream %llu points at reference %llu of %zu", what.c_str(),
            static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(ref_index), refs.size()));
      }
      const RestoredReference& ref = refs[static_cast<size_t>(ref_index)];
      auto restored = std::make_unique<RestoredStream>();
      restored->name = std::move(name);
      restored->prepared = ref.prepared;
      restored->ticks = ticks;
      restored->in_excursion = in_excursion != 0;
      restored->pushes_since_explained = pushes;
      restored->drift_ticks = drift_ticks;
      if (reader.version() >= 2) {
        if (!r.ReadU64Le(&restored->triage_certified_pass) ||
            !r.ReadU64Le(&restored->triage_certified_fail) ||
            !r.ReadU64Le(&restored->triage_fallbacks)) {
          return Status::OutOfRange(StrFormat(
              "%s: stream table truncated in entry %llu", what.c_str(),
              static_cast<unsigned long long>(i)));
        }
      }
      if (manifest.options.reference_mode == ReferenceMode::kSketched) {
        // A v1 *shard* carries no summaries; pairing one with a v2
        // kSketched manifest is a cross-file splice, not a valid restore.
        if (ref.sketched == nullptr) {
          return Status::InvalidArgument(StrFormat(
              "%s: version-%u shard has no sketch summaries for a sketched "
              "manifest",
              what.c_str(), reader.version()));
        }
        if (!r.ReadU64Le(&restored->window) ||
            !r.ReadDoubleArray(&restored->ring)) {
          return Status::OutOfRange(StrFormat(
              "%s: stream table truncated in entry %llu", what.c_str(),
              static_cast<unsigned long long>(i)));
        }
        if (restored->window == 0 ||
            restored->ring.size() > restored->window) {
          return Status::InvalidArgument(StrFormat(
              "%s: stream %llu window ring holds %zu of capacity %llu",
              what.c_str(), static_cast<unsigned long long>(index),
              restored->ring.size(),
              static_cast<unsigned long long>(restored->window)));
        }
        if (!AllFinite(restored->ring.data(), restored->ring.size())) {
          return Status::InvalidArgument(StrFormat(
              "%s: stream %llu window ring has non-finite values",
              what.c_str(), static_cast<unsigned long long>(index)));
        }
        restored->sketched = ref.sketched;
      } else {
        // Bind to the interned sorted sample, as AddStream does: restore
        // replays only the window ring, never copies the reference.
        std::shared_ptr<const std::vector<double>> sorted(
            ref.prepared, &ref.prepared->sorted_reference());
        MOCHE_ASSIGN_OR_RETURN(
            StreamingKs detector,
            StreamingKs::DeserializeState(std::move(sorted), &r));
        restored->detector.emplace(std::move(detector));
      }
      // A stream's window holds its latest min(ticks, capacity)
      // observations; anything else is a corrupted capacity or count.
      const uint64_t capacity = restored->detector.has_value()
                                    ? restored->detector->window_size()
                                    : restored->window;
      const uint64_t held = restored->detector.has_value()
                                ? restored->detector->window_count()
                                : restored->ring.size();
      if (held != std::min(ticks, capacity)) {
        return Status::InvalidArgument(StrFormat(
            "%s: stream %llu window holds %llu observations after %llu ticks "
            "at capacity %llu",
            what.c_str(), static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(held),
            static_cast<unsigned long long>(ticks),
            static_cast<unsigned long long>(capacity)));
      }
      (*stream_slots)[static_cast<size_t>(index)] = std::move(restored);
    }
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          StrFormat("%s: stream table has trailing bytes", what.c_str()));
    }
  }

  MOCHE_RETURN_IF_ERROR(
      ExpectSection(&reader, kSectionEvents, "event log", &section));
  {
    bin::Reader r(section.payload);
    uint64_t count = 0;
    if (!r.ReadU64Le(&count)) {
      return Status::OutOfRange(
          StrFormat("%s: event log truncated", what.c_str()));
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t position = 0;
      uint64_t stream_index = 0;
      DriftEvent event;
      uint64_t tick = 0;
      if (!r.ReadU64Le(&position) || !r.ReadU64Le(&stream_index) ||
          !r.ReadU64Le(&tick) || !ReadOutcome(&r, &event.outcome)) {
        return Status::OutOfRange(StrFormat(
            "%s: event log truncated in entry %llu", what.c_str(),
            static_cast<unsigned long long>(i)));
      }
      if (position >= manifest.num_events ||
          (*event_seen)[static_cast<size_t>(position)]) {
        return Status::InvalidArgument(StrFormat(
            "%s: bad event log position %llu", what.c_str(),
            static_cast<unsigned long long>(position)));
      }
      if (stream_index >= manifest.num_streams) {
        return Status::InvalidArgument(StrFormat(
            "%s: event names stream %llu of %llu", what.c_str(),
            static_cast<unsigned long long>(stream_index),
            static_cast<unsigned long long>(manifest.num_streams)));
      }
      event.stream = static_cast<size_t>(stream_index);
      event.tick = tick;
      MOCHE_RETURN_IF_ERROR(ReadStatus(&r, what, &event.explain_status));
      MOCHE_RETURN_IF_ERROR(ReadReport(&r, what, &event.report));
      (*event_seen)[static_cast<size_t>(position)] = 1;
      (*events)[static_cast<size_t>(position)] = std::move(event);
    }
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          StrFormat("%s: event log has trailing bytes", what.c_str()));
    }
  }

  bool done = false;
  MOCHE_RETURN_IF_ERROR(reader.Next(&section, &done));
  if (!done) {
    return Status::InvalidArgument(StrFormat(
        "%s: unexpected section %u after the event log", what.c_str(),
        section.id));
  }
  return Status::OK();
}

}  // namespace

std::string ShardFileName(uint32_t shard_index) {
  return StrFormat("shard-%02u.snap", shard_index);
}

Result<CheckpointBlobs> MonitorCodec::Serialize(
    const DriftMonitor& monitor, const CheckpointOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("checkpoint needs num_shards >= 1");
  }
  // Hold the monitor's state mutex across the whole pass: a concurrent
  // PushBatch waits, so the blobs capture one consistent state.
  MutexLock lock(monitor.state_mutex_.get());

  // One cache lookup per distinct reference, in first-use order. The
  // lookup returns the fingerprint the cache entry is keyed by, so the
  // shard of every stream bound to the reference costs no hashing here.
  struct SharedReference {
    size_t exemplar = 0;  // the first stream bound to it
    std::vector<double> original;
    double alpha = 0.0;
    uint32_t shard = 0;
  };
  const size_t num_streams = monitor.streams_.size();
  std::vector<SharedReference> refs;
  std::vector<size_t> ref_of_stream(num_streams, 0);
  std::vector<uint32_t> shard_of(num_streams, 0);
  std::unordered_map<const PreparedReference*, size_t> ref_index;
  for (size_t i = 0; i < num_streams; ++i) {
    const PreparedReference* prepared = monitor.streams_[i].prepared.get();
    auto [it, inserted] = ref_index.emplace(prepared, refs.size());
    if (inserted) {
      SharedReference ref;
      ref.exemplar = i;
      uint64_t fingerprint = 0;
      if (!monitor.cache_->FindOriginal(prepared, &ref.original, &ref.alpha,
                                        &fingerprint)) {
        return Status::Internal(StrFormat(
            "stream %zu's prepared reference is not in the intern cache", i));
      }
      ref.shard = static_cast<uint32_t>(fingerprint % options.num_shards);
      refs.push_back(std::move(ref));
    }
    ref_of_stream[i] = it->second;
    shard_of[i] = refs[it->second].shard;
  }

  const bool sketched_mode =
      monitor.options_.reference_mode == ReferenceMode::kSketched;
  CheckpointBlobs blobs;
  blobs.shards.resize(options.num_shards);
  std::vector<size_t> local_ref(refs.size(), 0);  // ref -> index in shard
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    SnapshotWriter writer(&blobs.shards[s]);

    std::string* payload = writer.BeginSection(kSectionShardHeader);
    bin::AppendU32Le(s, payload);
    bin::AppendU32Le(options.num_shards, payload);
    writer.EndSection();

    // This shard's reference table in first-use order. All streams of a
    // reference share its shard, so global first use restricted to the
    // shard is the shard's own first use; both orders derive from the
    // stream indices, so the bytes are deterministic (an unordered_map
    // walk here would break the fixed point).
    payload = writer.BeginSection(kSectionReferences);
    uint64_t ref_count = 0;
    for (const SharedReference& ref : refs) {
      if (ref.shard == s) ++ref_count;
    }
    bin::AppendU64Le(ref_count, payload);
    size_t next_local = 0;
    for (size_t r = 0; r < refs.size(); ++r) {
      if (refs[r].shard != s) continue;
      local_ref[r] = next_local++;
      const auto& exemplar = monitor.streams_[refs[r].exemplar];
      bin::AppendDoubleArray(refs[r].original, payload);
      bin::AppendDoubleLe(refs[r].alpha, payload);
      exemplar.prepared->SerializeTo(payload);
      if (sketched_mode) exemplar.sketched->SerializeTo(payload);
    }
    writer.EndSection();

    payload = writer.BeginSection(kSectionStreams);
    uint64_t member_count = 0;
    for (size_t i = 0; i < num_streams; ++i) {
      if (shard_of[i] == s) ++member_count;
    }
    bin::AppendU64Le(member_count, payload);
    std::vector<double> window_scratch;
    for (size_t i = 0; i < num_streams; ++i) {
      if (shard_of[i] != s) continue;
      const auto& st = monitor.streams_[i];
      bin::AppendU64Le(static_cast<uint64_t>(i), payload);
      bin::AppendString(st.name, payload);
      bin::AppendU64Le(static_cast<uint64_t>(local_ref[ref_of_stream[i]]),
                       payload);
      bin::AppendU64Le(st.ticks, payload);
      bin::AppendU8(st.in_excursion ? 1 : 0, payload);
      bin::AppendU64Le(st.pushes_since_explained, payload);
      bin::AppendU64Le(st.drift_ticks, payload);
      bin::AppendU64Le(st.triage_certified_pass, payload);
      bin::AppendU64Le(st.triage_certified_fail, payload);
      bin::AppendU64Le(st.triage_fallbacks, payload);
      if (sketched_mode) {
        // Oldest-first window contents: the restore rebuilds the ring with
        // head 0, which re-serializes to exactly these bytes (fixed point).
        st.WindowContentsInto(&window_scratch);
        bin::AppendU64Le(static_cast<uint64_t>(st.window), payload);
        bin::AppendDoubleArray(window_scratch, payload);
      } else {
        st.detector->SerializeStateTo(payload);
      }
    }
    writer.EndSection();

    // Events follow their stream's shard; each records its global log
    // position, so the restored log is rebuilt in the original order no
    // matter how the positions interleave across shards.
    payload = writer.BeginSection(kSectionEvents);
    uint64_t event_count = 0;
    for (const DriftEvent& event : monitor.events_) {
      if (shard_of[event.stream] == s) ++event_count;
    }
    bin::AppendU64Le(event_count, payload);
    for (size_t pos = 0; pos < monitor.events_.size(); ++pos) {
      const DriftEvent& event = monitor.events_[pos];
      if (shard_of[event.stream] != s) continue;
      bin::AppendU64Le(static_cast<uint64_t>(pos), payload);
      bin::AppendU64Le(static_cast<uint64_t>(event.stream), payload);
      bin::AppendU64Le(event.tick, payload);
      AppendOutcome(event.outcome, payload);
      AppendStatus(event.explain_status, payload);
      AppendReport(event.report, payload);
    }
    writer.EndSection();
  }

  Manifest manifest;
  manifest.num_shards = options.num_shards;
  manifest.num_streams = static_cast<uint64_t>(num_streams);
  manifest.num_events = static_cast<uint64_t>(monitor.events_.size());
  manifest.explanations_total = monitor.explanations_total_;
  manifest.options = monitor.options_;
  SnapshotWriter writer(&blobs.manifest);
  AppendManifest(manifest, writer.BeginSection(kSectionManifest));
  writer.EndSection();
  return blobs;
}

Result<DriftMonitor> MonitorCodec::Deserialize(const CheckpointBlobs& blobs,
                                               const RestoreOptions& options) {
  Manifest manifest;
  MOCHE_RETURN_IF_ERROR(ParseManifest(blobs.manifest, &manifest));
  if (blobs.shards.size() != manifest.num_shards) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint has %zu shard blobs but the manifest claims %u",
        blobs.shards.size(), manifest.num_shards));
  }
  // The manifest's counts size the slot tables below; cap them by what the
  // shard bytes could possibly encode (>= 8 bytes per stream or event), so
  // a corrupted-but-CRC-clean count cannot OOM.
  size_t total_shard_bytes = 0;
  for (const std::string& shard : blobs.shards) {
    total_shard_bytes += shard.size();
  }
  if (manifest.num_streams > total_shard_bytes / 8 ||
      manifest.num_events > total_shard_bytes / 8) {
    return Status::InvalidArgument(StrFormat(
        "manifest claims %llu streams / %llu events, more than %zu shard "
        "bytes can hold",
        static_cast<unsigned long long>(manifest.num_streams),
        static_cast<unsigned long long>(manifest.num_events),
        total_shard_bytes));
  }

  MonitorOptions monitor_options = manifest.options;
  monitor_options.num_threads = options.num_threads;
  MOCHE_ASSIGN_OR_RETURN(DriftMonitor monitor,
                         DriftMonitor::Create(monitor_options));

  std::vector<std::unique_ptr<RestoredStream>> stream_slots(
      static_cast<size_t>(manifest.num_streams));
  std::vector<DriftEvent> events(static_cast<size_t>(manifest.num_events));
  std::vector<unsigned char> event_seen(
      static_cast<size_t>(manifest.num_events), 0);
  for (uint32_t s = 0; s < manifest.num_shards; ++s) {
    MOCHE_RETURN_IF_ERROR(ParseShard(blobs.shards[s], s, manifest,
                                     monitor_options.alpha,
                                     monitor.cache_.get(), &stream_slots,
                                     &events, &event_seen));
  }
  for (size_t i = 0; i < stream_slots.size(); ++i) {
    if (stream_slots[i] == nullptr) {
      return Status::InvalidArgument(
          StrFormat("stream %zu is missing from every shard", i));
    }
  }
  for (size_t pos = 0; pos < event_seen.size(); ++pos) {
    if (!event_seen[pos]) {
      return Status::InvalidArgument(
          StrFormat("event %zu is missing from every shard", pos));
    }
  }

  monitor.streams_.reserve(stream_slots.size());
  for (std::unique_ptr<RestoredStream>& slot : stream_slots) {
    DriftMonitor::Stream st;
    st.name = std::move(slot->name);
    st.detector = std::move(slot->detector);
    st.prepared = std::move(slot->prepared);
    st.sketched = std::move(slot->sketched);
    st.window = static_cast<size_t>(slot->window);
    if (st.window != 0) {
      // Rebuild the ring at head 0 (oldest first), holding only what the
      // snapshot holds: a not-yet-full ring grows as it fills, so a
      // corrupted capacity can never drive the allocation.
      st.ring = std::move(slot->ring);
      st.ring_head = 0;
    }
    st.ticks = slot->ticks;
    st.in_excursion = slot->in_excursion;
    st.pushes_since_explained = slot->pushes_since_explained;
    st.drift_ticks = slot->drift_ticks;
    st.triage_certified_pass = slot->triage_certified_pass;
    st.triage_certified_fail = slot->triage_certified_fail;
    st.triage_fallbacks = slot->triage_fallbacks;
    monitor.streams_.push_back(std::move(st));
  }
  monitor.events_ = std::move(events);
  monitor.explanations_total_ = manifest.explanations_total;
  return monitor;
}

Status CheckpointMonitor(const DriftMonitor& monitor, const std::string& dir,
                         const CheckpointOptions& options) {
  MOCHE_ASSIGN_OR_RETURN(CheckpointBlobs blobs,
                         MonitorCodec::Serialize(monitor, options));
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(StrFormat("mkdir(%s) failed: %s", dir.c_str(),
                                      std::strerror(errno)));
  }
  // Shards first, manifest last: the manifest is the commit point, so a
  // crash between writes leaves a checkpoint that is either fully old or
  // fully new (each individual file is already atomic via rename).
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    MOCHE_RETURN_IF_ERROR(
        AtomicWriteFile(dir + "/" + ShardFileName(s), blobs.shards[s]));
  }
  return AtomicWriteFile(dir + "/" + kManifestFileName, blobs.manifest);
}

Result<DriftMonitor> RestoreMonitor(const std::string& dir,
                                    const RestoreOptions& options) {
  CheckpointBlobs blobs;
  MOCHE_ASSIGN_OR_RETURN(blobs.manifest,
                         ReadFileToString(dir + "/" + kManifestFileName));
  Manifest manifest;
  MOCHE_RETURN_IF_ERROR(ParseManifest(blobs.manifest, &manifest));
  blobs.shards.resize(manifest.num_shards);
  for (uint32_t s = 0; s < manifest.num_shards; ++s) {
    MOCHE_ASSIGN_OR_RETURN(blobs.shards[s],
                           ReadFileToString(dir + "/" + ShardFileName(s)));
  }
  return MonitorCodec::Deserialize(blobs, options);
}

std::string FormatEventLog(const std::vector<DriftEvent>& events) {
  std::string out;
  for (size_t i = 0; i < events.size(); ++i) {
    const DriftEvent& e = events[i];
    out += StrFormat("event=%zu stream=%zu tick=%llu statistic=", i, e.stream,
                     static_cast<unsigned long long>(e.tick));
    AppendG17(e.outcome.statistic, &out);
    out += " threshold=";
    AppendG17(e.outcome.threshold, &out);
    out += StrFormat(" status=%s",
                     StatusCodeToString(e.explain_status.code()));
    if (e.explain_status.ok()) {
      out += StrFormat(" k=%zu k_hat=%zu indices=", e.report.k,
                       e.report.k_hat);
      for (size_t j = 0; j < e.report.explanation.indices.size(); ++j) {
        if (j > 0) out += ',';
        out += StrFormat("%zu", e.report.explanation.indices[j]);
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace persist
}  // namespace moche
