#include "analysis/ir/ir.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis::ir {

namespace {

constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// Saturating int64 helpers: the evaluator must stay defined even on the
/// pathological expressions it exists to diagnose.
std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return a > 0 ? std::numeric_limits<std::int64_t>::max()
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

void note_int32_escape(const Interval& v, bool* flag) {
  if (flag != nullptr && (v.lo < kInt32Min || v.hi > kInt32Max)) *flag = true;
}

}  // namespace

std::string Expr::to_string(const std::vector<std::string>& slots) const {
  const auto arg = [&](std::size_t i) { return args[i].to_string(slots); };
  switch (kind) {
    case Kind::kLiteral:
      return str_cat(value);
    case Kind::kVar:
      return slots[static_cast<std::size_t>(slot)];
    case Kind::kAdd:
      return str_cat("(", arg(0), " + ", arg(1), ")");
    case Kind::kSub:
      return str_cat("(", arg(0), " - ", arg(1), ")");
    case Kind::kMul:
      return str_cat("(", arg(0), " * ", arg(1), ")");
    case Kind::kNeg:
      return str_cat("-", arg(0));
    case Kind::kMin:
      return str_cat("min(", arg(0), ", ", arg(1), ")");
    case Kind::kMax:
      return str_cat("max(", arg(0), ", ", arg(1), ")");
    case Kind::kCast64:
      return str_cat("(long)", arg(0));
    case Kind::kDiv:
      return str_cat("(", arg(0), " / ", arg(1), ")");
    case Kind::kMod:
      return str_cat("(", arg(0), " % ", arg(1), ")");
  }
  return "<expr>";
}

namespace {

/// eval_expr's recursion. `wide` tracks whether the subtree is `long` on
/// the device: a kCast64 node is wide, and so is every operation with a
/// wide operand (C promotion), so those values never wrap an `int` and
/// are exempt from the 32-bit escape check.
Interval eval_impl(const Expr& expr, const SlotEnv& env,
                   bool* int32_overflow, bool* wide) {
  *wide = false;
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return Interval::point(expr.value);
    case Expr::Kind::kVar:
      return env.lookup(expr.slot);
    case Expr::Kind::kCast64: {
      bool arg_wide = false;
      const Interval v =
          eval_impl(expr.args[0], env, int32_overflow, &arg_wide);
      *wide = true;
      return v;
    }
    default:
      break;
  }
  bool a_wide = false;
  const Interval a = eval_impl(expr.args[0], env, int32_overflow, &a_wide);
  if (expr.kind == Expr::Kind::kNeg) {
    const Interval v{sat_mul(a.hi, -1), sat_mul(a.lo, -1)};
    *wide = a_wide;
    if (!*wide) note_int32_escape(v, int32_overflow);
    return v;
  }
  bool b_wide = false;
  const Interval b = eval_impl(expr.args[1], env, int32_overflow, &b_wide);
  Interval v;
  switch (expr.kind) {
    case Expr::Kind::kAdd:
      v = {sat_add(a.lo, b.lo), sat_add(a.hi, b.hi)};
      break;
    case Expr::Kind::kSub:
      v = {sat_add(a.lo, sat_mul(b.hi, -1)),
           sat_add(a.hi, sat_mul(b.lo, -1))};
      break;
    case Expr::Kind::kMul: {
      const std::int64_t p1 = sat_mul(a.lo, b.lo);
      const std::int64_t p2 = sat_mul(a.lo, b.hi);
      const std::int64_t p3 = sat_mul(a.hi, b.lo);
      const std::int64_t p4 = sat_mul(a.hi, b.hi);
      v = {std::min(std::min(p1, p2), std::min(p3, p4)),
           std::max(std::max(p1, p2), std::max(p3, p4))};
      break;
    }
    case Expr::Kind::kMin:
      v = {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
      break;
    case Expr::Kind::kMax:
      v = {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
      break;
    case Expr::Kind::kDiv:
    case Expr::Kind::kMod: {
      // The emitter's only use is the linear-cell decomposition of the
      // temporal-shift walk, whose divisor is a compile-time strip
      // extent; anything more general is outside the modeled language.
      if (b.lo != b.hi || b.lo <= 0) {
        throw Error(
            "non-constant or non-positive divisor in emitted expression");
      }
      const std::int64_t c = b.lo;
      if (expr.kind == Expr::Kind::kDiv) {
        // C truncating division is monotone in the numerator for a
        // positive divisor.
        v = {a.lo / c, a.hi / c};
      } else if (a.lo >= 0 && a.lo / c == a.hi / c) {
        // Same quotient block: remainder is monotone within it.
        v = {a.lo % c, a.hi % c};
      } else if (a.lo >= 0) {
        v = {0, c - 1};
      } else {
        v = {-(c - 1), c - 1};
      }
      break;
    }
    default:
      throw Error("malformed IR expression");
  }
  *wide = a_wide || b_wide;
  if (!*wide) note_int32_escape(v, int32_overflow);
  return v;
}

}  // namespace

void SlotEnv::unknown(int slot) const {
  const auto s = static_cast<std::size_t>(slot);
  if (names_ == nullptr || s >= names_->size()) {
    throw Error(str_cat("variable slot ", slot,
                        " outside the module's slot table"));
  }
  throw Error(
      str_cat("unknown variable '", (*names_)[s], "' in emitted expression"));
}

int Module::slot_of(std::string_view name) const {
  const auto it = std::find(slots.begin(), slots.end(), name);
  return it == slots.end() ? -1 : static_cast<int>(it - slots.begin());
}

Interval eval_expr(const Expr& expr, const SlotEnv& env,
                   bool* int32_overflow) {
  bool wide = false;
  return eval_impl(expr, env, int32_overflow, &wide);
}

}  // namespace scl::analysis::ir
