#include "sketch/kll_sketch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/stats.h"
#include "util/string_util.h"

namespace moche {
namespace sketch {

namespace {

// SplitMix64 step (Steele/Lea/Flood): a tiny full-period generator whose
// whole state is one u64, so the coin stream serializes in 8 bytes. The
// project's mt19937_64 (util/rng.h) would add ~2.5 KB of state to a
// structure whose entire point is being small.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Result<KllSketch> KllSketch::Create(const KllOptions& options) {
  if (options.capacity < kMinCapacity || options.capacity > kMaxCapacity) {
    return Status::InvalidArgument(
        StrFormat("KLL capacity %zu outside [%zu, %zu]", options.capacity,
                  kMinCapacity, kMaxCapacity));
  }
  KllSketch sketch;
  sketch.capacity_ = options.capacity;
  sketch.seed_ = options.seed;
  sketch.coin_state_ = options.seed;
  sketch.levels_.emplace_back();
  sketch.levels_[0].reserve(options.capacity);
  return sketch;
}

bool KllSketch::NextCoin() { return (SplitMix64(&coin_state_) >> 63) != 0; }

void KllSketch::CompactLevel(size_t i) {
  // Grow the ladder BEFORE taking references: emplace_back can reallocate
  // levels_ and would dangle them.
  if (i + 1 == levels_.size()) levels_.emplace_back();
  std::vector<double>& level = levels_[i];
  // Update requires finite values and DeserializeFrom re-validates, so no
  // NaN can reach this sort (see the file header of kll_sketch.h).
  // moche-lint: allow(sort-doubles): finite by Update's precondition
  std::sort(level.begin(), level.end());
  // An odd size keeps the minimum behind at the same level and weight — a
  // retained item introduces no rank error, so only the even slice that is
  // actually halved charges the bound.
  const size_t start = level.size() % 2;
  const size_t offset = NextCoin() ? 1 : 0;
  std::vector<double>& up = levels_[i + 1];
  for (size_t j = start + offset; j < level.size(); j += 2) {
    up.push_back(level[j]);
  }
  error_bound_ += uint64_t{1} << i;
  level.resize(start);
}

void KllSketch::CompactFrom(size_t i) {
  // CompactLevel(i) leaves level i holding at most one item and can only
  // push level i + 1 over capacity, so one upward sweep restores the
  // size < capacity invariant everywhere.
  while (i < levels_.size() && levels_[i].size() >= capacity_) {
    CompactLevel(i);
    ++i;
  }
}

void KllSketch::Update(double value) {
  levels_[0].push_back(value);
  ++count_;
  CompactFrom(0);
}

Status KllSketch::Merge(const KllSketch& other) {
  if (other.capacity_ != capacity_) {
    return Status::InvalidArgument(
        StrFormat("cannot merge KLL sketches of capacity %zu and %zu",
                  capacity_, other.capacity_));
  }
  if (&other == this) {
    const KllSketch copy = *this;
    return Merge(copy);
  }
  count_ += other.count_;
  error_bound_ += other.error_bound_;
  if (other.levels_.size() > levels_.size()) {
    levels_.resize(other.levels_.size());
  }
  for (size_t i = 0; i < other.levels_.size(); ++i) {
    levels_[i].insert(levels_[i].end(), other.levels_[i].begin(),
                      other.levels_[i].end());
  }
  // A concatenated level can exceed capacity by more than one, but a single
  // compaction still drains it to <= 1 item (the whole even slice is
  // halved at once), so one bottom-up pass suffices.
  for (size_t i = 0; i < levels_.size(); ++i) CompactFrom(i);
  return Status::OK();
}

uint64_t KllSketch::EstimateRank(double x) const {
  uint64_t rank = 0;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const uint64_t weight = uint64_t{1} << i;
    for (double v : levels_[i]) {
      if (v <= x) rank += weight;
    }
  }
  return rank;
}

Result<double> KllSketch::EstimateQuantile(double phi) const {
  if (!(phi >= 0.0 && phi <= 1.0)) {
    return Status::InvalidArgument(
        "quantile rank phi must lie in [0, 1]");
  }
  if (count_ == 0) {
    return Status::InvalidArgument("empty sketch has no quantiles");
  }
  std::vector<double> values;
  std::vector<double> cum_weights;
  FlattenTo(&values, &cum_weights);
  const double target = phi * static_cast<double>(count_);
  for (size_t i = 0; i < values.size(); ++i) {
    if (cum_weights[i] >= target) return values[i];
  }
  return values.back();
}

size_t KllSketch::RetainedItems() const {
  size_t items = 0;
  for (const std::vector<double>& level : levels_) items += level.size();
  return items;
}

size_t KllSketch::FootprintBytes() const {
  size_t bytes = levels_.capacity() * sizeof(std::vector<double>);
  for (const std::vector<double>& level : levels_) {
    bytes += level.capacity() * sizeof(double);
  }
  return bytes;
}

void KllSketch::FlattenTo(std::vector<double>* values,
                          std::vector<double>* cumulative_weights) const {
  std::vector<std::pair<double, uint64_t>> items;
  items.reserve(RetainedItems());
  for (size_t i = 0; i < levels_.size(); ++i) {
    const uint64_t weight = uint64_t{1} << i;
    for (double v : levels_[i]) items.emplace_back(v, weight);
  }
  // moche-lint: allow(sort-doubles): finite by Update's precondition
  std::sort(items.begin(), items.end(),
            [](const std::pair<double, uint64_t>& a,
               const std::pair<double, uint64_t>& b) {
              return a.first < b.first;
            });
  values->clear();
  cumulative_weights->clear();
  values->reserve(items.size());
  cumulative_weights->reserve(items.size());
  uint64_t cumulative = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    cumulative += items[i].second;
    // Merge ties (including -0.0 vs +0.0, which compare equal) into one
    // grid point carrying the combined weight.
    if (!values->empty() && values->back() == items[i].first) {
      cumulative_weights->back() = static_cast<double>(cumulative);
    } else {
      values->push_back(items[i].first);
      cumulative_weights->push_back(static_cast<double>(cumulative));
    }
  }
}

void KllSketch::SerializeTo(std::string* out) const {
  bin::AppendU64Le(static_cast<uint64_t>(capacity_), out);
  bin::AppendU64Le(seed_, out);
  bin::AppendU64Le(coin_state_, out);
  bin::AppendU64Le(count_, out);
  bin::AppendU64Le(error_bound_, out);
  bin::AppendU64Le(static_cast<uint64_t>(levels_.size()), out);
  for (const std::vector<double>& level : levels_) {
    bin::AppendDoubleArray(level, out);
  }
}

Result<KllSketch> KllSketch::DeserializeFrom(bin::Reader* reader) {
  uint64_t capacity = 0;
  uint64_t seed = 0;
  uint64_t coin_state = 0;
  uint64_t count = 0;
  uint64_t error_bound = 0;
  uint64_t num_levels = 0;
  if (!reader->ReadU64Le(&capacity) || !reader->ReadU64Le(&seed) ||
      !reader->ReadU64Le(&coin_state) || !reader->ReadU64Le(&count) ||
      !reader->ReadU64Le(&error_bound) || !reader->ReadU64Le(&num_levels)) {
    return Status::OutOfRange("KLL sketch: snapshot truncated");
  }
  if (capacity < kMinCapacity || capacity > kMaxCapacity) {
    return Status::InvalidArgument(StrFormat(
        "KLL sketch: capacity %llu outside [%zu, %zu]",
        static_cast<unsigned long long>(capacity), kMinCapacity,
        kMaxCapacity));
  }
  if (num_levels == 0 || num_levels > kMaxLevels) {
    return Status::InvalidArgument(StrFormat(
        "KLL sketch: %llu levels outside [1, %zu]",
        static_cast<unsigned long long>(num_levels), kMaxLevels));
  }
  KllSketch sketch;
  sketch.capacity_ = static_cast<size_t>(capacity);
  sketch.seed_ = seed;
  sketch.coin_state_ = coin_state;
  sketch.count_ = count;
  sketch.error_bound_ = error_bound;
  sketch.levels_.resize(static_cast<size_t>(num_levels));
  uint64_t weight_sum = 0;
  for (size_t i = 0; i < sketch.levels_.size(); ++i) {
    if (!reader->ReadDoubleArray(&sketch.levels_[i])) {
      return Status::OutOfRange(
          StrFormat("KLL sketch: level %zu truncated", i));
    }
    // Every writer state keeps levels strictly below capacity (CompactFrom
    // runs before any serialization can happen); anything larger is
    // corrupted or hand-spliced.
    if (sketch.levels_[i].size() >= sketch.capacity_) {
      return Status::InvalidArgument(StrFormat(
          "KLL sketch: level %zu holds %zu items, capacity is %zu", i,
          sketch.levels_[i].size(), sketch.capacity_));
    }
    if (!AllFinite(sketch.levels_[i].data(), sketch.levels_[i].size())) {
      return Status::InvalidArgument(
          StrFormat("KLL sketch: level %zu holds a non-finite value", i));
    }
    const uint64_t size = static_cast<uint64_t>(sketch.levels_[i].size());
    if (size > 0 && i >= 64) {
      return Status::InvalidArgument("KLL sketch: level weight overflows");
    }
    const uint64_t term = size << i;
    if (size > 0 && term / size != (uint64_t{1} << i)) {
      return Status::InvalidArgument("KLL sketch: level weight overflows");
    }
    weight_sum += term;
    if (weight_sum < term) {
      return Status::InvalidArgument("KLL sketch: retained weight overflows");
    }
  }
  // Compaction conserves weight, so the retained weight must reproduce the
  // recorded count exactly — the cheapest whole-structure consistency
  // check a CRC-clean splice can be caught by.
  if (weight_sum != count) {
    return Status::InvalidArgument(StrFormat(
        "KLL sketch: retained weight %llu does not match count %llu",
        static_cast<unsigned long long>(weight_sum),
        static_cast<unsigned long long>(count)));
  }
  return sketch;
}

}  // namespace sketch
}  // namespace moche
