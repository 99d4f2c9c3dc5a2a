#include "core/cumulative.h"

#include <algorithm>

#include "ks/ks_test.h"
#include "ks/rank_walk.h"
#include "util/logging.h"
#include "util/sort.h"
#include "util/string_util.h"

namespace moche {

Result<CumulativeFrame> CumulativeFrame::Build(const std::vector<double>& r,
                                               const std::vector<double>& t) {
  // The in-place builder only DCHECKs its preconditions.
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(r, "reference set"));
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(t, "test set"));
  std::vector<double> rs = r;
  std::vector<double> ts = t;
  SortDoubles(rs.data(), rs.size());
  SortDoubles(ts.data(), ts.size());
  CumulativeFrame frame;
  BuildFromSortedUncheckedInto(rs, ts, &frame);
  return frame;
}

void CumulativeFrame::BuildFromSortedUncheckedInto(
    const std::vector<double>& r_sorted, const std::vector<double>& t_sorted,
    CumulativeFrame* out) {
  MOCHE_DCHECK(!r_sorted.empty() && !t_sorted.empty());
  MOCHE_DCHECK(std::is_sorted(r_sorted.begin(), r_sorted.end()));
  MOCHE_DCHECK(std::is_sorted(t_sorted.begin(), t_sorted.end()));

  out->n_ = r_sorted.size();
  out->m_ = t_sorted.size();
  // clear() keeps capacity and QBound() bounds q, so a warm frame never
  // reallocates mid-walk.
  out->values_.clear();
  out->cum_r_.clear();
  out->cum_t_.clear();
  out->values_.reserve(out->QBound());
  out->cum_r_.reserve(out->QBound() + 1);
  out->cum_t_.reserve(out->QBound() + 1);
  out->cum_r_.push_back(0);
  out->cum_t_.push_back(0);
  ks::WalkRankFrame(r_sorted.data(), r_sorted.size(), t_sorted.data(),
                    t_sorted.size(), [out](double x, size_t c_r, size_t c_t) {
                      out->values_.push_back(x);
                      out->cum_r_.push_back(static_cast<int64_t>(c_r));
                      out->cum_t_.push_back(static_cast<int64_t>(c_t));
                    });
}

Result<size_t> CumulativeFrame::IndexOfValue(double value) const {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) {
    return Status::NotFound(
        StrFormat("value %g not in the base vector", value));
  }
  return static_cast<size_t>(it - values_.begin()) + 1;  // 1-based
}

Result<std::vector<int64_t>> CumulativeFrame::CumulativeOf(
    const std::vector<double>& subset) const {
  std::vector<int64_t> counts(q() + 1, 0);
  for (double v : subset) {
    MOCHE_ASSIGN_OR_RETURN(const size_t idx, IndexOfValue(v));
    ++counts[idx];
  }
  // prefix-sum the per-value multiplicities into a cumulative vector
  for (size_t i = 1; i <= q(); ++i) counts[i] += counts[i - 1];
  return counts;
}

}  // namespace moche
