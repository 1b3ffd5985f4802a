// Saturating integer interval arithmetic: the value domain every
// verifier pass evaluates expressions in.
//
// Passes 1-3 lower each codegen::LoopBounds string and pass 4 lowers the
// emitted kernel source into ir::Expr trees (analysis/ir/lower); both
// evaluate them with ir::eval_expr over these operators. Point intervals
// evaluate a bound at one sampled region origin and iteration distance;
// wide intervals bound a loop variable over its whole range.
#pragma once

#include <cstdint>

namespace scl::analysis {

/// Inclusive integer interval [lo, hi].
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  static Interval point(std::int64_t v) { return {v, v}; }

  bool is_point() const { return lo == hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Interval arithmetic that saturates at the int64 edges instead of
/// wrapping, so a result always contains the true range.
Interval operator+(const Interval& a, const Interval& b);
Interval operator-(const Interval& a, const Interval& b);
Interval operator*(const Interval& a, const Interval& b);
Interval interval_max(const Interval& a, const Interval& b);
Interval interval_min(const Interval& a, const Interval& b);

}  // namespace scl::analysis
