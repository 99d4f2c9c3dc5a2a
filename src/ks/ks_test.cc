#include "ks/ks_test.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ks/rank_walk.h"
#include "util/logging.h"
#include "util/sort.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace moche {
namespace ks {

namespace internal {

double CriticalValueUnchecked(double alpha) {
  MOCHE_DCHECK(alpha > 0.0 && alpha < 2.0);
  return std::sqrt(-0.5 * std::log(alpha / 2.0));
}

double ThresholdUnchecked(double alpha, size_t n, size_t m) {
  MOCHE_DCHECK(n > 0 && m > 0);
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  return CriticalValueUnchecked(alpha) * std::sqrt((dn + dm) / (dn * dm));
}

KsOutcome DecideUnchecked(double statistic, size_t n, size_t m, double alpha) {
  KsOutcome out;
  out.n = n;
  out.m = m;
  out.statistic = statistic;
  out.threshold = ThresholdUnchecked(alpha, n, m);
  out.reject = out.statistic > out.threshold;
  return out;
}

}  // namespace internal

Status ValidateAlpha(double alpha) {
  if (!(alpha > 0.0 && alpha < 2.0)) {
    return Status::InvalidArgument(
        StrFormat("alpha must be in (0, 2), got %g", alpha));
  }
  return Status::OK();
}

Result<double> CriticalValue(double alpha) {
  MOCHE_RETURN_IF_ERROR(ValidateAlpha(alpha));
  return internal::CriticalValueUnchecked(alpha);
}

Result<double> Threshold(double alpha, size_t n, size_t m) {
  MOCHE_RETURN_IF_ERROR(ValidateAlpha(alpha));
  if (n == 0 || m == 0) {
    return Status::InvalidArgument(
        StrFormat("sample sizes must be positive, got n=%zu m=%zu", n, m));
  }
  return internal::ThresholdUnchecked(alpha, n, m);
}

double StatisticSorted(const std::vector<double>& r_sorted,
                       const std::vector<double>& t_sorted, double* location) {
  if (r_sorted.empty() && t_sorted.empty()) {
    // No x exists; write a deterministic sentinel so callers that always
    // read *location never see an uninitialized value.
    if (location != nullptr) *location = 0.0;
    return 0.0;
  }
  if (r_sorted.empty() || t_sorted.empty()) {
    if (location != nullptr) {
      *location = r_sorted.empty() ? t_sorted.front() : r_sorted.front();
    }
    return 1.0;
  }
  const double n = static_cast<double>(r_sorted.size());
  const double m = static_cast<double>(t_sorted.size());
  double best = 0.0;
  double best_x = r_sorted.front();
  // Only the rank frame's points can hold the first strict maximum: inside
  // a reference-only run |F_R - F_T| stays strictly below its value at the
  // point before the run or at the run's last value, and the walk emits
  // both.
  WalkRankFrame(r_sorted.data(), r_sorted.size(), t_sorted.data(),
                t_sorted.size(), [&](double x, size_t c_r, size_t c_t) {
                  const double d = std::fabs(static_cast<double>(c_r) / n -
                                             static_cast<double>(c_t) / m);
                  if (d > best) {
                    best = d;
                    best_x = x;
                  }
                });
  if (location != nullptr) *location = best_x;
  return best;
}

double Statistic(std::vector<double> r, std::vector<double> t,
                 double* location) {
  // Screen before sorting: a NaN observation has no rank. (Inf is fine
  // here — it has a rank; only Run/ValidateSample reject it.)
  for (const std::vector<double>* s : {&r, &t}) {
    for (double v : *s) {
      if (std::isnan(v)) {
        if (location != nullptr) *location = 0.0;
        return std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  SortDoubles(r.data(), r.size());
  SortDoubles(t.data(), t.size());
  return StatisticSorted(r, t, location);
}

Status ValidateSample(const std::vector<double>& sample, const char* name) {
  if (sample.empty()) {
    return Status::InvalidArgument(StrFormat("%s is empty", name));
  }
  if (!AllFinite(sample.data(), sample.size())) {
    return Status::InvalidArgument(
        StrFormat("%s contains a non-finite value", name));
  }
  return Status::OK();
}

Result<KsOutcome> RunSorted(const std::vector<double>& r_sorted,
                            const std::vector<double>& t_sorted,
                            double alpha) {
  MOCHE_RETURN_IF_ERROR(ValidateSample(r_sorted, "reference set"));
  MOCHE_RETURN_IF_ERROR(ValidateSample(t_sorted, "test set"));
  MOCHE_RETURN_IF_ERROR(ValidateAlpha(alpha));
  double location = 0.0;
  const double statistic = StatisticSorted(r_sorted, t_sorted, &location);
  KsOutcome out = internal::DecideUnchecked(statistic, r_sorted.size(),
                                            t_sorted.size(), alpha);
  out.location = location;
  return out;
}

Result<KsOutcome> Run(std::vector<double> r, std::vector<double> t,
                      double alpha) {
  // Validate before sorting so a bad sample costs no sort. RunSorted
  // re-validates; AllFinite is one cheap linear pass.
  MOCHE_RETURN_IF_ERROR(ValidateSample(r, "reference set"));
  MOCHE_RETURN_IF_ERROR(ValidateSample(t, "test set"));
  SortDoubles(r.data(), r.size());
  SortDoubles(t.data(), t.size());
  return RunSorted(r, t, alpha);
}

}  // namespace ks

namespace {

// The RemovalKs sweep over its q <= 2m + 1 rank-frame points: cum_r_d is
// C_R per point (as doubles), and the test side is prefix-summed in the
// loop from per-point counts:
//   cum_t_i = sum_{j<=i} (count_t[j] - removed[j])
//   d_i     = |cum_r_d[i] / n - double(cum_t_i) / m_rem|
// Returns max_i d_i. *best_index is the smallest i attaining it (first
// strict max), or left untouched when the max is 0.0. Counts stay below
// 2^52, so the int64 -> double conversion is exact. The prefix sum stays
// fused: a separate prefix pass followed by a plain sweep measured slower
// per re-test, because here the sum hides behind the sweep's divisions.
double SweepCounts(const double* cum_r_d, const int64_t* count_t,
                   const int64_t* removed, size_t q, double n, double m_rem,
                   size_t* best_index) {
  double best = 0.0;
  int64_t cum_t = 0;
  for (size_t i = 0; i < q; ++i) {
    cum_t += count_t[i] - removed[i];
    const double d =
        std::fabs(cum_r_d[i] / n - static_cast<double>(cum_t) / m_rem);
    if (d > best) {
      best = d;
      *best_index = i;
    }
  }
  return best;
}

}  // namespace

RemovalKs::RemovalKs(const std::vector<double>& r,
                     const std::vector<double>& t, double alpha)
    : alpha_(alpha), n_(r.size()), m_(t.size()) {
  MOCHE_DCHECK(ks::ValidateAlpha(alpha).ok());
  MOCHE_DCHECK(!r.empty());
  std::vector<double> rs = r;
  std::vector<double> ts = t;
  SortDoubles(rs.data(), rs.size());
  SortDoubles(ts.data(), ts.size());
  front_ = rs.empty() ? 0.0 : rs.front();
  // C_R never changes, so it is stored as double (exact — counts are far
  // below 2^53) and every CurrentOutcome streams it straight into the
  // sweep.
  size_t prev_c_t = 0;
  ks::WalkRankFrame(rs.data(), rs.size(), ts.data(), ts.size(),
                    [&](double x, size_t c_r, size_t c_t) {
                      values_.push_back(x);
                      cum_r_d_.push_back(static_cast<double>(c_r));
                      count_t_.push_back(static_cast<int64_t>(c_t - prev_c_t));
                      prev_c_t = c_t;
                    });
  removed_.assign(values_.size(), 0);
}

Status RemovalKs::RemoveValue(double value) {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) {
    return Status::InvalidArgument("value does not occur in the test set");
  }
  const size_t idx = static_cast<size_t>(it - values_.begin());
  if (removed_[idx] >= count_t_[idx]) {
    return Status::InvalidArgument(
        "all occurrences of this value in T are already removed");
  }
  ++removed_[idx];
  ++removed_total_;
  return Status::OK();
}

Status RemovalKs::UnremoveValue(double value) {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) {
    return Status::InvalidArgument("value does not occur in the test set");
  }
  const size_t idx = static_cast<size_t>(it - values_.begin());
  if (removed_[idx] == 0) {
    return Status::InvalidArgument("no removed occurrence of this value");
  }
  --removed_[idx];
  --removed_total_;
  return Status::OK();
}

void RemovalKs::Reset() {
  std::fill(removed_.begin(), removed_.end(), 0);
  removed_total_ = 0;
}

KsOutcome RemovalKs::CurrentOutcome() const {
  KsOutcome out;
  out.n = n_;
  out.m = m_ - removed_total_;
  if (removed_total_ >= m_) {
    // The removal set consumed all of T. Mirror StatisticSorted's
    // one-empty-sample convention (D = 1, reject, location = the smallest
    // reference value, where |F_R - F_empty| first reaches 1); the
    // threshold formula diverges at m = 0, so report the degenerate
    // threshold 0.
    out.statistic = 1.0;
    out.threshold = 0.0;
    out.reject = true;
    out.location = front_;
    return out;
  }
  const double n = static_cast<double>(n_);
  const double m_rem = static_cast<double>(m_ - removed_total_);
  // Same first-strict-max location semantics as StatisticSorted
  // (best_index is left alone when every |F_R - F_T| is zero;
  // StatisticSorted then reports R's smallest value, which need not be the
  // frame's smallest).
  size_t best_index = SIZE_MAX;
  const double best =
      SweepCounts(cum_r_d_.data(), count_t_.data(), removed_.data(),
                  values_.size(), n, m_rem, &best_index);
  out = ks::internal::DecideUnchecked(best, n_, m_ - removed_total_, alpha_);
  out.location = best_index == SIZE_MAX ? front_ : values_[best_index];
  return out;
}

bool RemovalKs::Passes() const { return !CurrentOutcome().reject; }

std::vector<double> RemovalKs::RemainingTest() const {
  std::vector<double> out;
  out.reserve(m_ - removed_total_);
  for (size_t i = 0; i < values_.size(); ++i) {
    for (int64_t c = 0; c < count_t_[i] - removed_[i]; ++c) {
      out.push_back(values_[i]);
    }
  }
  return out;
}

}  // namespace moche
