#include "analysis/interval.hpp"

#include <algorithm>
#include <limits>

namespace scl::analysis {

namespace {

// The interval operators saturate at the int64 edges instead of wrapping:
// analysis inputs are untrusted (seeded-defect tests feed deliberately
// absurd magnitudes), and signed wraparound would be UB *and* could flip
// an out-of-bounds interval back into range, masking the very defect the
// analyzer exists to report. Saturation keeps lo <= hi and keeps the
// result a superset of the true range.
std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return a > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return r;
}

std::int64_t sat_sub(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) {
    return b < 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return r;
}

std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    return (a > 0) == (b > 0) ? std::numeric_limits<std::int64_t>::max()
                              : std::numeric_limits<std::int64_t>::min();
  }
  return r;
}

}  // namespace

Interval operator+(const Interval& a, const Interval& b) {
  return {sat_add(a.lo, b.lo), sat_add(a.hi, b.hi)};
}

Interval operator-(const Interval& a, const Interval& b) {
  return {sat_sub(a.lo, b.hi), sat_sub(a.hi, b.lo)};
}

Interval operator*(const Interval& a, const Interval& b) {
  const std::int64_t p0 = sat_mul(a.lo, b.lo);
  const std::int64_t p1 = sat_mul(a.lo, b.hi);
  const std::int64_t p2 = sat_mul(a.hi, b.lo);
  const std::int64_t p3 = sat_mul(a.hi, b.hi);
  return {std::min({p0, p1, p2, p3}), std::max({p0, p1, p2, p3})};
}

Interval interval_max(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval interval_min(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

}  // namespace scl::analysis
