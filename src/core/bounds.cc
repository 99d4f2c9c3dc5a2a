#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ks/ks_test.h"
#include "util/logging.h"

namespace moche {

namespace {
// Absolute + relative slack absorbing the rounding difference between the
// Lemma 1 algebra and the direct KS comparison.
constexpr double kAbsTol = 1e-9;
constexpr double kRelTol = 1e-12;

double TolFor(double x) { return kAbsTol + kRelTol * std::fabs(x); }

// The Theorem 1 fast-filter scan over coordinates [begin, end) of the
// engine's coefficient arrays (ct_d = C_T[i], cr_d = C_R[i] as doubles):
//   gamma_i = ct_d[i] - scale * cr_d[i]
//   M_i     = max(M_{i-1}, gamma_i)    (prefix max, seeded by *running_max)
//   pass_i  = M_i - omega <= min(ct_d[i], hh_d)
//          && gamma_i + omega >= max(ct_d[i] + h_minus_m, 0.0)
//          && (gamma_i + omega) - (M_i - omega) >= 1.0
// with h_minus_m = h - m, so ct_d[i] + h_minus_m is the rigid lower bound
// h + C_T[i] - m (exact: every term is an integer below 2^53).
// Returns the first i with !pass_i, or `end` when every coordinate passes.
// On return *running_max is the prefix max of gamma over [begin, i]
// (inclusive of the failing coordinate), so the caller can run the exact
// integer-rounding path at i and resume at i + 1.
size_t Theorem1FilterScan(const double* ct_d, const double* cr_d,
                          size_t begin, size_t end, double scale,
                          double omega, double hh_d, double h_minus_m,
                          double* running_max) {
  double run = *running_max;
  for (size_t i = begin; i < end; ++i) {
    const double gamma = ct_d[i] - scale * cr_d[i];
    if (gamma > run) run = gamma;
    const double a = run - omega;
    const double b = gamma + omega;
    const double rigid_hi = ct_d[i] < hh_d ? ct_d[i] : hh_d;
    const double lo_sum = ct_d[i] + h_minus_m;
    const double rigid_lo = lo_sum > 0.0 ? lo_sum : 0.0;
    if (!(a <= rigid_hi && b >= rigid_lo && b - a >= 1.0)) {
      *running_max = run;
      return i;
    }
  }
  *running_max = run;
  return end;
}

// The Theorem 2 (Equation 5) fast-filter scan, same conventions:
//   pass_i = gamma_i + omega >= 0.0
//         && M_i - omega <= hh_d
//         && M_i - omega <= gamma_i + omega
size_t Theorem2FilterScan(const double* ct_d, const double* cr_d,
                          size_t begin, size_t end, double scale,
                          double omega, double hh_d, double* running_max) {
  double run = *running_max;
  for (size_t i = begin; i < end; ++i) {
    const double gamma = ct_d[i] - scale * cr_d[i];
    if (gamma > run) run = gamma;
    const double a = run - omega;
    const double b = gamma + omega;
    if (!(b >= 0.0 && a <= hh_d && a <= b)) {
      *running_max = run;
      return i;
    }
  }
  *running_max = run;
  return end;
}

}  // namespace

int64_t CeilTol(double x) {
  return static_cast<int64_t>(std::ceil(x - TolFor(x)));
}

int64_t FloorTol(double x) {
  return static_cast<int64_t>(std::floor(x + TolFor(x)));
}

BoundsEngine::BoundsEngine(const CumulativeFrame& frame, double alpha) {
  Reset(frame, alpha);
}

void BoundsEngine::Reset(const CumulativeFrame& frame, double alpha) {
  MOCHE_DCHECK(ks::ValidateAlpha(alpha).ok());
  frame_ = &frame;
  alpha_ = alpha;
  c_alpha_ = ks::internal::CriticalValueUnchecked(alpha);
  // Flatten the frame once: the Theorem 1/2 inner loops then stream
  // contiguous arrays (no per-element accessor calls, no repeated
  // int64 -> double conversions; all conversions are exact, counts are
  // far below 2^53). The arrays reserve QBound() + 1 entries and resize
  // keeps capacity, so a recycled engine's rebuild is allocation-free once
  // warm, for any window of the same size.
  const size_t q = frame.q();
  ct_d_.reserve(frame.QBound() + 1);
  cr_d_.reserve(frame.QBound() + 1);
  ct_d_.resize(q + 1);
  cr_d_.resize(q + 1);
  for (size_t i = 0; i <= q; ++i) {
    ct_d_[i] = static_cast<double>(frame.CT(i));
    cr_d_[i] = static_cast<double>(frame.CR(i));
  }
}

double BoundsEngine::Omega(size_t h) const {
  MOCHE_DCHECK(h < frame_->m());
  const double rem = static_cast<double>(frame_->m() - h);
  const double n = static_cast<double>(frame_->n());
  return c_alpha_ * std::sqrt(rem + rem * rem / n);
}

double BoundsEngine::Gamma(size_t i, size_t h) const {
  const double rem = static_cast<double>(frame_->m() - h);
  const double n = static_cast<double>(frame_->n());
  return ct_d_[i] - (rem / n) * cr_d_[i];
}

void BoundsEngine::ComputeBoundsInto(size_t h, std::vector<int64_t>* lower,
                                     std::vector<int64_t>* upper) const {
  const size_t q = frame_->q();
  const int64_t hh = static_cast<int64_t>(h);
  const int64_t m = static_cast<int64_t>(frame_->m());
  const double omega = Omega(h);
  const double rem = static_cast<double>(frame_->m() - h);
  const double scale = rem / static_cast<double>(frame_->n());

  lower->assign(q + 1, 0);
  upper->assign(q + 1, 0);
  double running_max_gamma = -std::numeric_limits<double>::infinity();
  for (size_t i = 1; i <= q; ++i) {
    const double gamma = ct_d_[i] - scale * cr_d_[i];
    if (gamma > running_max_gamma) running_max_gamma = gamma;
    const int64_t ct = frame_->CT(i);
    const int64_t lo = std::max(
        {CeilTol(running_max_gamma - omega), hh + ct - m, int64_t{0}});
    const int64_t hi = std::min({FloorTol(gamma + omega), ct, hh});
    (*lower)[i] = lo;
    (*upper)[i] = hi;
  }
}

bool BoundsEngine::ExistsQualified(size_t h) const {
  return ExistsQualifiedWithFailure(h, nullptr);
}

bool BoundsEngine::ExistsQualifiedWithFailure(size_t h,
                                              ScanFailure* failure) const {
  const size_t q = frame_->q();
  const int64_t hh = static_cast<int64_t>(h);
  const int64_t m = static_cast<int64_t>(frame_->m());
  const double hh_d = static_cast<double>(h);
  const double omega = Omega(h);
  const double rem = static_cast<double>(frame_->m() - h);
  const double scale = rem / static_cast<double>(frame_->n());

  // Fast filter: l_i <= u_i is certain — with no rounding work — when the
  // real interval [a, b] = [M_i - Omega, Gamma_i + Omega] spans at least
  // one integer (b - a >= 1; the CeilTol/FloorTol slack only widens it)
  // and neither side conflicts with the rigid integer bounds
  // (a <= rigid_hi implies ceil(a - tol) <= rigid_hi; b >= rigid_lo
  // likewise; both rigid bounds compare identically in double — the
  // conversions are exact). The rigid bounds never conflict with each
  // other (C_T[i] <= m and 0 <= h <= m). The scan stops at the first
  // coordinate it cannot certify; that coordinate takes the exact
  // CeilTol/FloorTol path below, and the scan resumes behind it —
  // decisions are bit-identical to computing l_i/u_i outright. The scan
  // and the exact path stay separate loops: fusing them measured ~1.7x
  // slower on the Theorem 2 check.
  const double h_minus_m = static_cast<double>(hh - m);
  const double* ct_d = ct_d_.data();
  const double* cr_d = cr_d_.data();
  double running_max_gamma = -std::numeric_limits<double>::infinity();
  size_t i = 1;
  while (i <= q) {
    const size_t stop = Theorem1FilterScan(ct_d, cr_d, i, q + 1, scale, omega,
                                           hh_d, h_minus_m, &running_max_gamma);
    if (stop > q) return true;
    // running_max_gamma includes Gamma(stop, h) — the scan's contract.
    const double gamma = ct_d[stop] - scale * cr_d[stop];
    const double a = running_max_gamma - omega;  // seeds l_i's ceiling
    const double b = gamma + omega;              // seeds u_i's floor
    const int64_t ct = frame_->CT(stop);
    const int64_t rigid_lo = std::max(hh + ct - m, int64_t{0});
    const int64_t rigid_hi = std::min(ct, hh);
    const int64_t lo = std::max(CeilTol(a), rigid_lo);
    const int64_t hi = std::min(FloorTol(b), rigid_hi);
    if (lo > hi) {
      if (failure != nullptr) {
        failure->fail = stop;
        // Re-derive the prefix argmax of Gamma at the failing coordinate
        // with the scalar loop's first-strict-greater semantics. Only the
        // failure path pays this O(stop) re-scan, and a failure ends the
        // whole check, so it happens at most once per call.
        double rm = -std::numeric_limits<double>::infinity();
        size_t argmax = 0;
        for (size_t j = 1; j <= stop; ++j) {
          const double g = ct_d[j] - scale * cr_d[j];
          if (g > rm) {
            rm = g;
            argmax = j;
          }
        }
        failure->argmax = argmax;
      }
      return false;
    }
    i = stop + 1;
  }
  return true;
}

bool BoundsEngine::NecessaryCondition(size_t h) const {
  const size_t q = frame_->q();
  const int64_t hh = static_cast<int64_t>(h);
  const double hh_d = static_cast<double>(h);
  const double omega = Omega(h);
  const double rem = static_cast<double>(frame_->m() - h);
  const double scale = rem / static_cast<double>(frame_->n());

  // Fast filter mirroring ExistsQualified: each Equation 5 clause is
  // certain to hold when its real-valued form holds with the slack to
  // spare (floor(b + tol) >= floor(b) >= 0 when b >= 0, and so on). The
  // scan stops at the first coordinate the filter cannot certify; the
  // three exact checks run there, and the scan resumes behind it.
  const double* ct_d = ct_d_.data();
  const double* cr_d = cr_d_.data();
  double running_max_gamma = -std::numeric_limits<double>::infinity();
  size_t i = 1;
  while (i <= q) {
    const size_t stop = Theorem2FilterScan(ct_d, cr_d, i, q + 1, scale, omega,
                                           hh_d, &running_max_gamma);
    if (stop > q) return true;
    const double gamma = ct_d[stop] - scale * cr_d[stop];
    const double a = running_max_gamma - omega;
    const double b = gamma + omega;
    // Equation 5a: 0 <= floor(Gamma + Omega)
    if (FloorTol(b) < 0) return false;
    // Equation 5b: ceil(M - Omega) <= h
    if (CeilTol(a) > hh) return false;
    // Equation 5c: M - Omega <= Gamma + Omega (real-valued, with slack)
    if (a > b + TolFor(gamma)) return false;
    i = stop + 1;
  }
  return true;
}

bool SizeScan::ExistsQualified(size_t h) {
  if (have_failure_) {
    // O(1) probe at the coordinates that sank the previous size:
    // Gamma(argmax, h) lower-bounds the prefix maximum M(fail, h) because
    // argmax <= fail, and CeilTol is monotone, so a crossing proven from
    // the probe alone implies l_fail > u_fail — the full scan would return
    // false too.
    const size_t fail = last_failure_.fail;
    const size_t amax = last_failure_.argmax;
    const int64_t hh = static_cast<int64_t>(h);
    const double omega = engine_.Omega(h);
    const double rem = static_cast<double>(engine_.frame_->m() - h);
    const double scale = rem / static_cast<double>(engine_.frame_->n());
    const double gamma_max =
        engine_.ct_d_[amax] - scale * engine_.cr_d_[amax];
    const double gamma_fail =
        engine_.ct_d_[fail] - scale * engine_.cr_d_[fail];
    const int64_t ct = engine_.frame_->CT(fail);
    const int64_t m = static_cast<int64_t>(engine_.frame_->m());
    const int64_t hi = std::min({FloorTol(gamma_fail + omega), ct, hh});
    // u_fail is exact; the three l_fail terms are lower bounds (the two
    // rigid ones exact, the Gamma one via the prefix argmax), so lo > hi
    // here is a proof, never a guess.
    const int64_t lo =
        std::max({CeilTol(gamma_max - omega), hh + ct - m, int64_t{0}});
    if (lo > hi) {
      ++probe_refutations_;
      return false;
    }
  }
  ++full_scans_;
  BoundsEngine::ScanFailure failure;
  const bool exists = engine_.ExistsQualifiedWithFailure(h, &failure);
  if (exists) {
    have_failure_ = false;
  } else {
    last_failure_ = failure;
    have_failure_ = true;
  }
  return exists;
}

}  // namespace moche
