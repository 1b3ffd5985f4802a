#include "analysis/ir/lower.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <utility>

#include "frontend/lexer.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis::ir {

using scl::frontend::Token;
using scl::frontend::TokenKind;

namespace {

constexpr int kMaxMacroDepth = 16;

struct Macro {
  bool function_like = false;
  std::vector<std::string> params;
  std::vector<Token> body;
};

using MacroTable = std::map<std::string, Macro, std::less<>>;

/// The frontend lexer strips preprocessor lines, so macro definitions are
/// collected from the raw text first. The emitter only produces
/// single-line `#define NAME[(params)] body` forms.
MacroTable collect_macros(const std::string& source) {
  MacroTable macros;
  int line_no = 0;
  for (const std::string& raw : split(source, '\n')) {
    ++line_no;
    const std::string line = trim(raw);
    if (!starts_with(line, "#define ")) continue;
    std::size_t pos = 8;
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    std::string name;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_')) {
      name.push_back(line[pos++]);
    }
    if (name.empty()) continue;
    Macro macro;
    if (pos < line.size() && line[pos] == '(') {
      macro.function_like = true;
      ++pos;
      std::string param;
      while (pos < line.size() && line[pos] != ')') {
        const char c = line[pos++];
        if (c == ',') {
          if (!param.empty()) macro.params.push_back(std::move(param));
          param.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          param.push_back(c);
        }
      }
      if (!param.empty()) macro.params.push_back(std::move(param));
      if (pos < line.size()) ++pos;  // consume ')'
    }
    macro.body = scl::frontend::tokenize(line.substr(pos));
    if (!macro.body.empty() && macro.body.back().kind == TokenKind::kEnd) {
      macro.body.pop_back();
    }
    for (Token& t : macro.body) t.line = line_no;
    macros.emplace(std::move(name), std::move(macro));
  }
  return macros;
}

/// Appends the full macro expansion of tokens [begin, end) to `out`.
/// Substituted tokens inherit the use-site line so diagnostics point at
/// the access, not the #define. Object-like bodies are re-scanned in
/// place; a function-like use substitutes its arguments into one scratch
/// vector, which is then re-scanned (the C preprocessor's order).
void expand(const Token* begin, const Token* end, const MacroTable& macros,
            int depth, std::vector<Token>* out) {
  if (depth > kMaxMacroDepth) {
    throw Error("macro expansion exceeds depth limit (recursive #define?)");
  }
  for (const Token* t = begin; t != end; ++t) {
    const Token& tok = *t;
    if (tok.kind != TokenKind::kIdentifier) {
      out->push_back(tok);
      continue;
    }
    const auto it = macros.find(tok.text);
    if (it == macros.end()) {
      out->push_back(tok);
      continue;
    }
    const Macro& macro = it->second;
    const std::size_t first = out->size();
    if (!macro.function_like) {
      expand(macro.body.data(), macro.body.data() + macro.body.size(), macros,
             depth + 1, out);
    } else {
      if (t + 1 == end || !t[1].is("(")) {
        out->push_back(tok);  // name without call: leave verbatim
        continue;
      }
      // Comma-separated argument token ranges at depth 1.
      std::vector<std::pair<const Token*, const Token*>> args;
      const Token* arg_begin = t + 2;
      const Token* j = arg_begin;
      int nesting = 1;
      for (; j != end; ++j) {
        if (j->is("(")) ++nesting;
        if (j->is(")") && --nesting == 0) break;
        if (j->is(",") && nesting == 1) {
          args.emplace_back(arg_begin, j);
          arg_begin = j + 1;
        }
      }
      if (nesting != 0) {
        throw Error(str_cat("unterminated macro call '", tok.text,
                            "' at line ", tok.line));
      }
      args.emplace_back(arg_begin, j);
      if (args.size() != macro.params.size()) {
        throw Error(str_cat("macro '", tok.text, "' expects ",
                            macro.params.size(), " argument(s), got ",
                            args.size(), " at line ", tok.line));
      }
      std::vector<Token> body;
      body.reserve(macro.body.size() * 2);
      for (const Token& bt : macro.body) {
        const auto param =
            bt.kind == TokenKind::kIdentifier
                ? std::find(macro.params.begin(), macro.params.end(), bt.text)
                : macro.params.end();
        if (param == macro.params.end()) {
          body.push_back(bt);
        } else {
          const auto& [a, b] =
              args[static_cast<std::size_t>(param - macro.params.begin())];
          body.insert(body.end(), a, b);
        }
      }
      expand(body.data(), body.data() + body.size(), macros, depth + 1, out);
      t = j;  // the closing ')'
    }
    for (std::size_t k = first; k < out->size(); ++k) (*out)[k].line = tok.line;
  }
}

/// Cursor over the expanded token stream with the small helpers every
/// recursive-descent parser wants.
class Cursor {
 public:
  explicit Cursor(const std::vector<Token>* tokens) : tokens_(tokens) {}

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_->size() ? (*tokens_)[i] : end_token_;
  }
  const Token& next() {
    const Token& t = peek();
    if (pos_ < tokens_->size()) ++pos_;
    return t;
  }
  bool at_end() const {
    return pos_ >= tokens_->size() ||
           (*tokens_)[pos_].kind == TokenKind::kEnd;
  }
  bool consume(const char* text) {
    if (peek().is(text)) {
      next();
      return true;
    }
    return false;
  }
  void expect(const char* text) {
    if (!consume(text)) {
      throw Error(str_cat("expected '", text, "' but found '", peek().text,
                          "' at line ", peek().line));
    }
  }
  /// Skips one balanced (...) group, cursor on the opening paren.
  void skip_parens() {
    expect("(");
    int nesting = 1;
    while (nesting > 0) {
      if (at_end()) throw Error("unbalanced parentheses");
      const Token& t = next();
      if (t.is("(")) ++nesting;
      if (t.is(")")) --nesting;
    }
  }
  /// Skips to just past the next ';' (statement-level error recovery).
  void skip_statement() {
    while (!at_end() && !next().is(";")) {
    }
  }

 private:
  const std::vector<Token>* tokens_;
  std::size_t pos_ = 0;
  Token end_token_{TokenKind::kEnd, "", 0};
};

std::int64_t parse_int_literal(const Token& tok) {
  if (tok.kind != TokenKind::kNumber ||
      tok.text.find_first_of(".eEfF") != std::string::npos) {
    throw Error(str_cat("expected integer literal, found '", tok.text,
                        "' at line ", tok.line));
  }
  return std::strtoll(tok.text.c_str(), nullptr, 10);
}

/// Applies `fn` to every statement of `stmts`, loop bodies included.
template <typename Fn>
void for_each_stmt(StmtList& stmts, const Fn& fn) {
  for (Stmt& stmt : stmts) {
    fn(stmt);
    for_each_stmt(stmt.body, fn);
  }
}

bool expr_uses_slot(const Expr& expr, int slot) {
  if (expr.kind == Expr::Kind::kVar) return expr.slot == slot;
  return std::any_of(expr.args.begin(), expr.args.end(),
                     [&](const Expr& a) { return expr_uses_slot(a, slot); });
}

/// True when the bounds of some loop nested in `stmts` read `slot`.
bool nested_bounds_use_slot(const StmtList& stmts, int slot) {
  return std::any_of(stmts.begin(), stmts.end(), [&](const Stmt& stmt) {
    return stmt.kind == Stmt::Kind::kLoop &&
           (expr_uses_slot(stmt.lo, slot) || expr_uses_slot(stmt.hi, slot) ||
            nested_bounds_use_slot(stmt.body, slot));
  });
}

/// Recursive-descent lowering of the expanded token stream into a
/// Module. Every name the analyzer looks up per environment is resolved
/// here, once: variables to slot indices, array references to their
/// kernel's buffers and arguments, pipe calls to declarations, and each
/// loop's two static facts.
class Lowerer {
 public:
  /// Lowers a whole source: variables resolve into Module::slots.
  explicit Lowerer(const std::vector<Token>* tokens)
      : Lowerer(tokens, &module_.slots) {}
  /// Lowers a standalone expression: variables resolve into `slots`.
  Lowerer(const std::vector<Token>* tokens, std::vector<std::string>* slots)
      : cur_(tokens), slots_(slots) {}

  /// Lowers one integer expression that must span the whole token stream.
  Expr lower_expression() {
    Expr expr = parse_expr();
    if (!cur_.at_end()) {
      throw Error(str_cat("unexpected token '", cur_.peek().text,
                          "' after integer expression at line ",
                          cur_.peek().line));
    }
    return expr;
  }

  /// Lowers a whole kernel-source file.
  Module lower() {
    while (!cur_.at_end()) {
      const Token& tok = cur_.peek();
      if (tok.is("pipe")) {
        parse_pipe_decl();
        continue;
      }
      if (tok.is("__kernel")) {
        module_.kernels.push_back(parse_kernel());
        continue;
      }
      module_.unmodeled.push_back(str_cat("top-level construct '", tok.text,
                                          "' at line ", tok.line));
      cur_.skip_statement();
    }
    // Pipes resolve once the whole unit is read: a declaration may follow
    // the kernels that use it.
    for (Kernel& kernel : module_.kernels) {
      for_each_stmt(kernel.body, [&](Stmt& stmt) {
        if (stmt.kind == Stmt::Kind::kPipeRead ||
            stmt.kind == Stmt::Kind::kPipeWrite) {
          stmt.pipe = first_named(module_.pipes, stmt.text);
        }
      });
    }
    return std::move(module_);
  }

 private:
  /// A slot table holds a handful of names (at most 8 for the paper
  /// suite's emitted sources), so a linear search needs no second index.
  int slot(const std::string& name) {
    const auto it = std::find(slots_->begin(), slots_->end(), name);
    if (it != slots_->end()) return static_cast<int>(it - slots_->begin());
    slots_->push_back(name);
    return static_cast<int>(slots_->size()) - 1;
  }

  // ---- integer expressions ----------------------------------------------

  /// Integer expression parser (the emitted index/bound language):
  ///   expr   := term (('+' | '-') term)*
  ///   term   := factor (('*' | '/' | '%') factor)*
  ///   factor := INT | IDENT | '-' factor | '(' expr ')'
  ///           | '(' 'long' ')' factor | ('max' | 'min') '(' expr ',' expr ')'
  Expr parse_factor() {
    const Token& tok = cur_.peek();
    if (tok.is("-")) {
      cur_.next();
      return Expr::make(Expr::Kind::kNeg, parse_factor());
    }
    if (tok.is("(")) {
      // `(long)<factor>`: the emitter widens the flat global index to
      // 64-bit device arithmetic (see codegen's GIDX macro).
      if (cur_.peek(1).is("long") && cur_.peek(2).is(")")) {
        cur_.next();
        cur_.next();
        cur_.next();
        return Expr::make(Expr::Kind::kCast64, parse_factor());
      }
      cur_.next();
      Expr inner = parse_expr();
      cur_.expect(")");
      return inner;
    }
    if (tok.kind == TokenKind::kNumber) {
      cur_.next();
      return Expr::literal(parse_int_literal(tok));
    }
    if (tok.kind == TokenKind::kIdentifier) {
      cur_.next();
      if (tok.is("max") || tok.is("min")) {
        cur_.expect("(");
        Expr a = parse_expr();
        cur_.expect(",");
        Expr b = parse_expr();
        cur_.expect(")");
        return Expr::make(tok.is("max") ? Expr::Kind::kMax : Expr::Kind::kMin,
                          std::move(a), std::move(b));
      }
      return Expr::var(slot(tok.text));
    }
    throw Error(str_cat("unexpected token '", tok.text,
                        "' in integer expression at line ", tok.line));
  }

  Expr parse_term() {
    Expr value = parse_factor();
    for (;;) {
      Expr::Kind kind;
      if (cur_.peek().is("*")) {
        kind = Expr::Kind::kMul;
      } else if (cur_.peek().is("/")) {
        kind = Expr::Kind::kDiv;
      } else if (cur_.peek().is("%")) {
        kind = Expr::Kind::kMod;
      } else {
        return value;
      }
      cur_.next();
      value = Expr::make(kind, std::move(value), parse_factor());
    }
  }

  Expr parse_expr() {
    Expr value = parse_term();
    for (;;) {
      if (cur_.peek().is("+")) {
        cur_.next();
        value = Expr::make(Expr::Kind::kAdd, std::move(value), parse_term());
      } else if (cur_.peek().is("-")) {
        cur_.next();
        value = Expr::make(Expr::Kind::kSub, std::move(value), parse_term());
      } else {
        return value;
      }
    }
  }

  // ---- statements -------------------------------------------------------

  /// Scans right-hand-side tokens up to the terminating ';', collecting
  /// every `array[index]` element read. Float arithmetic between the
  /// reads is irrelevant to the dataflow checks and is skipped.
  std::vector<ArrayRef> scan_loads() {
    std::vector<ArrayRef> loads;
    while (!cur_.at_end() && !cur_.peek().is(";")) {
      const Token& tok = cur_.next();
      if (tok.kind == TokenKind::kIdentifier && cur_.peek().is("[")) {
        cur_.next();  // '['
        ArrayRef ref;
        ref.array = tok.text;
        ref.line = tok.line;
        ref.index = parse_expr();
        cur_.expect("]");
        loads.push_back(std::move(ref));
      }
    }
    cur_.consume(";");
    return loads;
  }

  Stmt parse_statement() {
    const Token& tok = cur_.peek();
    if (tok.is("for")) return parse_loop();
    if (tok.is("barrier")) {
      Stmt stmt;
      stmt.kind = Stmt::Kind::kBarrier;
      stmt.line = tok.line;
      cur_.next();
      cur_.skip_parens();
      cur_.consume(";");
      return stmt;
    }
    if (tok.is("write_pipe_block") || tok.is("read_pipe_block")) {
      return parse_pipe_call(tok.is("write_pipe_block"));
    }
    if (tok.is("float")) return parse_carrier_decl();
    if (tok.kind == TokenKind::kIdentifier && cur_.peek(1).is("[")) {
      return parse_store();
    }
    // Outside the modeled subset: record and resynchronize at ';'.
    Stmt stmt;
    stmt.kind = Stmt::Kind::kOpaque;
    stmt.line = tok.line;
    stmt.text = tok.text;
    module_.unmodeled.push_back(str_cat("statement starting with '", tok.text,
                                        "' at line ", tok.line));
    cur_.skip_statement();
    return stmt;
  }

  Stmt parse_loop() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kLoop;
    stmt.line = cur_.peek().line;
    cur_.expect("for");
    cur_.expect("(");
    cur_.expect("int");
    stmt.var = slot(cur_.next().text);
    cur_.expect("=");
    stmt.lo = parse_expr();
    cur_.expect(";");
    const std::string cond_var = cur_.next().text;
    if (cur_.consume("<")) {
      stmt.inclusive = false;
    } else if (cur_.consume("<=")) {
      stmt.inclusive = true;
    } else {
      throw Error(str_cat("unsupported loop condition on '", cond_var,
                          "' at line ", stmt.line));
    }
    stmt.hi = parse_expr();
    cur_.expect(";");
    // `++var` or `var++`.
    cur_.consume("+");
    cur_.consume("+");
    cur_.next();  // the variable (either order leaves it last or first)
    cur_.consume("+");
    cur_.consume("+");
    cur_.expect(")");
    if (cur_.consume("{")) {
      while (!cur_.consume("}")) {
        if (cur_.at_end()) {
          throw Error(str_cat("unterminated loop body at line ", stmt.line));
        }
        stmt.body.push_back(parse_statement());
      }
    } else {
      stmt.body.push_back(parse_statement());
    }
    stmt.has_pipe_op = std::any_of(
        stmt.body.begin(), stmt.body.end(), [](const Stmt& s) {
          return s.kind == Stmt::Kind::kPipeRead ||
                 s.kind == Stmt::Kind::kPipeWrite || s.has_pipe_op;
        });
    stmt.bounds_use_var = nested_bounds_use_slot(stmt.body, stmt.var);
    return stmt;
  }

  Stmt parse_pipe_call(bool is_write) {
    Stmt stmt;
    stmt.kind = is_write ? Stmt::Kind::kPipeWrite : Stmt::Kind::kPipeRead;
    stmt.line = cur_.peek().line;
    cur_.next();  // the call name
    cur_.expect("(");
    stmt.text = cur_.next().text;
    cur_.expect(",");
    cur_.consume("&");
    cur_.next();  // carrier variable
    cur_.expect(")");
    cur_.consume(";");
    return stmt;
  }

  /// `float v = <rhs>;` or `float v;` — the pipe-exchange carriers. The
  /// loads on the right-hand side are the dataflow-relevant part.
  Stmt parse_carrier_decl() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kStore;  // store to a scalar: no array target
    stmt.line = cur_.peek().line;
    cur_.expect("float");
    cur_.next();  // carrier name
    if (cur_.consume(";")) return stmt;
    if (cur_.consume("=")) {
      stmt.loads = scan_loads();
      return stmt;
    }
    stmt.kind = Stmt::Kind::kOpaque;
    module_.unmodeled.push_back(
        str_cat("float declaration at line ", stmt.line));
    cur_.skip_statement();
    return stmt;
  }

  Stmt parse_store() {
    Stmt stmt;
    stmt.kind = Stmt::Kind::kStore;
    const Token& target = cur_.next();
    stmt.line = target.line;
    ArrayRef ref;
    ref.array = target.text;
    ref.line = target.line;
    cur_.expect("[");
    ref.index = parse_expr();
    cur_.expect("]");
    stmt.store = std::move(ref);
    cur_.expect("=");
    stmt.loads = scan_loads();
    return stmt;
  }

  // ---- declarations -----------------------------------------------------

  void parse_pipe_decl() {
    const int line = cur_.next().line;  // 'pipe'
    cur_.expect("float");
    PipeChannel pipe;
    pipe.name = cur_.next().text;
    pipe.line = line;
    if (cur_.consume("__attribute__")) {
      // ((xcl_reqd_pipe_depth(N))): pull N out of the nested parens.
      cur_.expect("(");
      cur_.expect("(");
      cur_.next();  // xcl_reqd_pipe_depth
      cur_.expect("(");
      pipe.depth = parse_int_literal(cur_.next());
      cur_.expect(")");
      cur_.expect(")");
      cur_.expect(")");
    }
    cur_.consume(";");
    module_.pipes.push_back(std::move(pipe));
  }

  void parse_kernel_params(Kernel* kernel) {
    cur_.expect("(");
    while (!cur_.consume(")")) {
      if (cur_.at_end()) {
        throw Error(str_cat("unterminated parameter list of kernel '",
                            kernel->name, "'"));
      }
      const bool is_global = cur_.consume("__global");
      const bool is_const = cur_.consume("const");
      const std::string type = cur_.next().text;  // float | int
      const bool is_pointer = cur_.consume("*");
      cur_.consume("restrict");
      const std::string name = cur_.next().text;
      if (is_global && is_pointer) {
        (is_const ? kernel->global_inputs : kernel->global_outputs)
            .push_back(name);
      } else if (type == "int") {
        kernel->int_params.push_back(name);
      }
      cur_.consume(",");
    }
  }

  Kernel parse_kernel() {
    Kernel kernel;
    kernel.line = cur_.peek().line;
    cur_.expect("__kernel");
    while (cur_.consume("__attribute__")) cur_.skip_parens();
    cur_.expect("void");
    kernel.name = cur_.next().text;
    parse_kernel_params(&kernel);
    cur_.expect("{");
    while (!cur_.consume("}")) {
      if (cur_.at_end()) {
        throw Error(str_cat("kernel '", kernel.name, "' never closes"));
      }
      // Local buffer declarations precede the statements.
      if (cur_.peek().is("__local")) {
        cur_.next();
        cur_.expect("float");
        Buffer buffer;
        buffer.name = cur_.next().text;
        buffer.line = cur_.peek().line;
        cur_.expect("[");
        buffer.size = parse_expr();
        cur_.expect("]");
        cur_.consume(";");
        kernel.locals.push_back(std::move(buffer));
        continue;
      }
      kernel.body.push_back(parse_statement());
    }
    resolve_refs(&kernel);
    return kernel;
  }

  /// Binds every array reference of `kernel` to its buffers and
  /// arguments, after the whole kernel is read.
  static void resolve_refs(Kernel* kernel) {
    const auto resolve = [&](ArrayRef& ref) {
      ref.local = first_named(kernel->locals, ref.array);
      ref.output = first_named(kernel->global_outputs, ref.array);
      ref.global = ref.output >= 0 ||
                   first_named(kernel->global_inputs, ref.array) >= 0;
    };
    for_each_stmt(kernel->body, [&](Stmt& stmt) {
      if (stmt.store.has_value()) resolve(*stmt.store);
      for (ArrayRef& load : stmt.loads) resolve(load);
    });
  }

  Cursor cur_;
  Module module_;
  std::vector<std::string>* slots_;
};

}  // namespace

Module lower_kernel_source(const std::string& source) {
  const MacroTable macros = collect_macros(source);
  const std::vector<Token> raw = scl::frontend::tokenize(source);
  std::vector<Token> tokens;
  tokens.reserve(raw.size() * 2);
  expand(raw.data(), raw.data() + raw.size(), macros, 0, &tokens);
  return Lowerer(&tokens).lower();
}

Expr lower_expression(const std::string& text,
                      std::vector<std::string>* slots) {
  const std::vector<Token> tokens = scl::frontend::tokenize(text);
  return Lowerer(&tokens, slots).lower_expression();
}

}  // namespace scl::analysis::ir
