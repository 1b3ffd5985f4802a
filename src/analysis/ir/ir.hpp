// Kernel IR: a small statement-level intermediate representation of the
// OpenCL the code generator emits, plus the abstract-interpretation pass
// family (SCL4xx) that verifies it.
//
// The PR-2 verifier (SCL1xx-SCL3xx) checks the *design configuration* —
// pipe graph, re-derived halo bounds, resource charge — but never the
// generated text itself, so an emitter bug that produces out-of-bounds
// indexing or an unbalanced channel schedule ships silently. This layer
// closes that gap: the emitted kernel source is lowered (reusing the
// frontend lexer) into the structured IR below, and analysis/ir/dataflow
// runs interval abstract interpretation over it, proving properties of
// the *actual emitted expressions* instead of the formulas that were
// supposed to produce them.
//
// The IR models exactly the language subset the emitter produces:
// counted `for` loops over int induction variables, flat array stores and
// loads through expanded index macros, blocking pipe reads/writes, local
// scalar carriers (`float v`), and barriers. Anything outside the subset
// lowers to an opaque statement and is reported as SCL409 (analysis
// incomplete) rather than silently skipped.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/interval.hpp"

namespace scl::analysis::ir {

/// Integer expression tree over loop variables and kernel parameters.
/// Only the operators the emitter's index/bound language uses exist;
/// evaluation is interval arithmetic over analysis::Interval. Variables
/// are resolved to slots when the source is lowered (Module::slots holds
/// the names), so evaluation never touches a string.
struct Expr {
  enum class Kind {
    kLiteral,  ///< value
    kVar,      ///< slot
    kAdd,      ///< args[0] + args[1]
    kSub,      ///< args[0] - args[1]
    kMul,      ///< args[0] * args[1]
    kNeg,      ///< -args[0]
    kMin,      ///< min(args[0], args[1])
    kMax,      ///< max(args[0], args[1])
    kCast64,   ///< (long)args[0]: widens to 64-bit device arithmetic
    kDiv,      ///< args[0] / args[1] (C truncating; constant divisor > 0)
    kMod,      ///< args[0] % args[1] (C remainder; constant divisor > 0)
  };

  Kind kind = Kind::kLiteral;
  std::int64_t value = 0;
  int slot = -1;
  std::vector<Expr> args;

  static Expr literal(std::int64_t v) {
    Expr e;
    e.kind = Kind::kLiteral;
    e.value = v;
    return e;
  }
  static Expr var(int slot) {
    Expr e;
    e.kind = Kind::kVar;
    e.slot = slot;
    return e;
  }
  /// Unary and binary nodes. The operands are moved in; a braced
  /// std::vector initializer would deep-copy every subtree, quadratic
  /// work on the parser's left-deep index chains.
  static Expr make(Kind kind, Expr a) {
    Expr e;
    e.kind = kind;
    e.args.reserve(1);
    e.args.push_back(std::move(a));
    return e;
  }
  static Expr make(Kind kind, Expr a, Expr b) {
    Expr e;
    e.kind = kind;
    e.args.reserve(2);
    e.args.push_back(std::move(a));
    e.args.push_back(std::move(b));
    return e;
  }

  /// Renders the expression back to C-ish text (diagnostics only);
  /// `slots` is the owning module's slot -> name table.
  std::string to_string(const std::vector<std::string>& slots) const;
};

/// Flat evaluation environment: one optional interval per variable slot
/// of a module. Binding, unbinding and lookup are array accesses; the
/// slot names are only read to word the unknown-variable error.
class SlotEnv {
 public:
  /// One slot's state, saved and restored around a loop that rebinds it.
  struct Binding {
    Interval value;
    bool bound = false;
  };

  /// An environment over no slots (constant expressions only).
  SlotEnv() = default;
  /// An environment over `slots` (a Module::slots table, which must
  /// outlive it), with every slot unbound.
  explicit SlotEnv(const std::vector<std::string>& slots)
      : names_(&slots), bindings_(slots.size()) {}

  void bind(int slot, Interval value) {
    bindings_[static_cast<std::size_t>(slot)] = {value, true};
  }
  void unbind(int slot) {
    bindings_[static_cast<std::size_t>(slot)].bound = false;
  }
  Binding binding(int slot) const {
    return bindings_[static_cast<std::size_t>(slot)];
  }
  void restore(int slot, const Binding& saved) {
    bindings_[static_cast<std::size_t>(slot)] = saved;
  }
  /// Unbinds every slot.
  void clear() {
    for (Binding& b : bindings_) b.bound = false;
  }

  /// The interval bound to `slot`. Throws scl::Error naming the variable
  /// when the slot is unbound.
  const Interval& lookup(int slot) const {
    const auto s = static_cast<std::size_t>(slot);
    if (s >= bindings_.size() || !bindings_[s].bound) unknown(slot);
    return bindings_[s].value;
  }

 private:
  [[noreturn]] void unknown(int slot) const;

  const std::vector<std::string>* names_ = nullptr;
  std::vector<Binding> bindings_;
};

/// Interval evaluation of `expr` under `env`. Unbound variables throw
/// scl::Error (the analyzer reports SCL409 and skips the statement).
/// `int32_overflow`, when non-null, is set if any intermediate value can
/// escape the 32-bit signed range — the emitted arithmetic runs on
/// OpenCL `int`, so that is real wrap-around on the device. A kCast64
/// subtree widens to `long`: its result and every operation it feeds are
/// 64-bit on the device and exempt from the check (operands computed
/// *before* the cast are still `int` and still checked).
Interval eval_expr(const Expr& expr, const SlotEnv& env,
                   bool* int32_overflow = nullptr);

/// One array element access: `array[index]` after index-macro expansion.
/// The lowering resolves the name against the enclosing kernel once; the
/// analyzer only reads the resolved fields (the name is for diagnostics).
struct ArrayRef {
  std::string array;
  Expr index;
  int line = 0;
  int local = -1;       ///< Kernel::locals index of the first `__local`
                        ///< declaration of `array`, or -1
  bool global = false;  ///< `array` is a `__global` argument
  int output = -1;      ///< Kernel::global_outputs index of the first
                        ///< output named `array`, or -1
};

struct Stmt;
using StmtList = std::vector<Stmt>;

/// Structured-CFG statement. Loops carry their body; everything else is
/// a leaf. The emitter only produces reducible, counted loops, so the
/// loop tree *is* the CFG (one back-edge per loop, no gotos).
struct Stmt {
  enum class Kind {
    kLoop,       ///< for (int var = lo; var < hi; ++var) body   (or <=)
    kStore,      ///< store->array[store->index] = ...loads...
    kPipeWrite,  ///< write_pipe_block(pipe, &carrier)
    kPipeRead,   ///< read_pipe_block(pipe, &carrier)
    kBarrier,    ///< barrier(...)
    kOpaque,     ///< outside the modeled subset (reported as SCL409)
  };

  Kind kind = Kind::kOpaque;
  int line = 0;

  // kLoop
  int var = -1;  ///< slot of the induction variable
  Expr lo;
  Expr hi;
  bool inclusive = false;  ///< condition was `var <= hi` (the `it` loop)
  StmtList body;
  /// Static facts of the loop, derived once by the lowering:
  bool has_pipe_op = false;     ///< the body (at any depth) calls a pipe
  bool bounds_use_var = false;  ///< a nested loop's bounds read `var`

  // kStore
  std::optional<ArrayRef> store;
  std::vector<ArrayRef> loads;  ///< array reads on the right-hand side
                                ///< (also set for kPipeWrite carriers)

  // kPipeWrite / kPipeRead
  int pipe = -1;  ///< Module::pipes index of the first declaration of the
                  ///< named pipe, or -1 when it is never declared

  // kPipeWrite / kPipeRead: the pipe's name; kOpaque: the first token
  // (a short description for the SCL409 note).
  std::string text;
};

/// A local (`__local float name[size]`) buffer declaration.
struct Buffer {
  std::string name;
  Expr size;  ///< compile-time constant after macro expansion
  int line = 0;
};

/// One lowered `__kernel` function.
struct Kernel {
  std::string name;
  std::vector<std::string> int_params;      ///< r0..r2, pass_h
  std::vector<std::string> global_inputs;   ///< `__global const float*` args
  std::vector<std::string> global_outputs;  ///< `__global float*` args
  std::vector<Buffer> locals;
  StmtList body;
  int line = 0;
};

/// A `pipe float` declaration.
struct PipeChannel {
  std::string name;
  std::int64_t depth = 0;
  int line = 0;
};

/// The lowered compilation unit.
struct Module {
  std::vector<PipeChannel> pipes;
  std::vector<Kernel> kernels;
  /// Constructs the lowerer could not model (rendered into SCL409).
  std::vector<std::string> unmodeled;
  /// Slot -> name of every variable an expression or loop mentions; an
  /// Expr::kVar or Stmt::var holds an index into this table.
  std::vector<std::string> slots;

  /// The slot of `name`, or -1 when no expression or loop mentions it.
  int slot_of(std::string_view name) const;
};

inline const std::string& declared_name(const std::string& name) {
  return name;
}
inline const std::string& declared_name(const Buffer& b) { return b.name; }
inline const std::string& declared_name(const PipeChannel& p) {
  return p.name;
}

/// Index of the first declaration in `decls` named `name`, or -1. A name
/// declared twice resolves to its first declaration everywhere: the
/// lowering's references point there, and the analysis keeps its facts
/// there.
template <typename Decl>
int first_named(const std::vector<Decl>& decls, std::string_view name) {
  for (std::size_t i = 0; i < decls.size(); ++i) {
    if (declared_name(decls[i]) == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace scl::analysis::ir
