#include "frontend/ocl_import.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "frontend/lexer.hpp"
#include "stencil/formula.hpp"
#include "stencil/parser.hpp"
#include "support/error.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::frontend {

using scl::stencil::Offset;
using scl::stencil::StencilProgram;

namespace {

/// Parses the integer literal `text` found at `line`. Rejects literals
/// that do not fit std::int64_t or carry trailing characters with the
/// line-anchored import error (std::stoll alone would leak
/// std::out_of_range past the scl::Error contract).
std::int64_t parse_int_literal(const std::string& text, int line) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used > 0 && used == text.size()) return value;
  throw Error(str_cat("OpenCL import error at line ", line,
                      ": bad integer literal '", text, "'"));
}

// ---------------------------------------------------------------------------
// Expression AST (value expressions and affine index expressions share it).
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

struct Expr {
  enum class Kind { kNumber, kVar, kRead, kUnary, kBinary } kind;
  std::string spelling;          // kNumber: literal as written
  std::string var;               // kVar: identifier
  std::string array;             // kRead
  ExprPtr index;                 // kRead: index expression
  char op = 0;                   // kUnary('-') / kBinary(+ - * /)
  ExprPtr lhs, rhs;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct ArrayArg {
  std::string name;
  bool is_const = false;
};

struct KernelDef {
  std::string name;
  int line = 0;
  std::vector<ArrayArg> arrays;
  std::vector<std::string> int_params;
  std::map<std::string, int> ivars;  // induction var -> dimension
  std::map<std::string, ExprPtr> temporaries;
  std::string out_array;
  ExprPtr out_index;
  ExprPtr value;
};

class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  std::vector<KernelDef> parse_translation_unit() {
    std::vector<KernelDef> kernels;
    while (!peek().is("") || peek().kind != TokenKind::kEnd) {
      if (peek().kind == TokenKind::kEnd) break;
      kernels.push_back(parse_kernel());
    }
    if (kernels.empty()) fail("no __kernel function found");
    return kernels;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error(str_cat("OpenCL import error at line ", peek().line, ": ",
                        why));
  }

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool accept(const char* text) {
    if (peek().is(text)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(const char* text) {
    if (!accept(text)) {
      fail(str_cat("expected '", text, "', found '", peek().text, "'"));
    }
  }
  std::string expect_identifier(const char* what) {
    if (peek().kind != TokenKind::kIdentifier) {
      fail(str_cat("expected ", what, ", found '", peek().text, "'"));
    }
    return advance().text;
  }

  KernelDef parse_kernel() {
    // qualifiers before `void` (e.g. __kernel, attributes are unsupported)
    while (peek().is("__kernel") || peek().is("kernel")) advance();
    expect("void");
    KernelDef k;
    k.line = peek().line;
    k.name = expect_identifier("kernel name");
    expect("(");
    if (!peek().is(")")) {
      do {
        parse_param(&k);
      } while (accept(","));
    }
    expect(")");
    expect("{");
    parse_block(&k);
    return k;
  }

  void parse_param(KernelDef* k) {
    bool is_const = false;
    bool is_float = false;
    bool is_int = false;
    while (peek().kind == TokenKind::kIdentifier) {
      const std::string t = peek().text;
      if (t == "__global" || t == "global" || t == "restrict" ||
          t == "__restrict") {
        advance();
      } else if (t == "const") {
        is_const = true;
        advance();
      } else if (t == "float") {
        is_float = true;
        advance();
      } else if (t == "int" || t == "uint" || t == "size_t") {
        is_int = true;
        advance();
      } else {
        break;
      }
    }
    if (is_float) {
      const bool pointer = accept("*");
      while (peek().is("restrict") || peek().is("__restrict") ||
             peek().is("const")) {
        advance();
      }
      const std::string name = expect_identifier("parameter name");
      if (!pointer) fail("float scalar parameters are not supported");
      k->arrays.push_back(ArrayArg{name, is_const});
      return;
    }
    if (is_int) {
      k->int_params.push_back(expect_identifier("parameter name"));
      return;
    }
    fail(str_cat("unsupported parameter type near '", peek().text, "'"));
  }

  void parse_block(KernelDef* k) {
    while (!accept("}")) {
      if (peek().kind == TokenKind::kEnd) fail("unexpected end of input");
      parse_statement(k);
    }
  }

  void parse_statement(KernelDef* k) {
    if (accept("int")) {
      // int <v> = get_global_id(<d>);
      const std::string name = expect_identifier("variable name");
      expect("=");
      const std::string fn = expect_identifier("get_global_id");
      if (fn != "get_global_id") {
        fail("int locals may only be initialized from get_global_id()");
      }
      expect("(");
      if (peek().kind != TokenKind::kNumber) fail("dimension literal");
      const Token& literal = advance();
      const std::int64_t dim = parse_int_literal(literal.text, literal.line);
      expect(")");
      expect(";");
      if (dim < 0 || dim > 2) fail("get_global_id dimension must be 0..2");
      k->ivars[name] = static_cast<int>(dim);
      return;
    }
    if (accept("float")) {
      // float <t> = <expr>;
      const std::string name = expect_identifier("temporary name");
      expect("=");
      ExprPtr value = parse_expr(k);
      expect(";");
      if (k->temporaries.count(name) != 0) {
        fail(str_cat("temporary '", name, "' assigned twice"));
      }
      k->temporaries[name] = std::move(value);
      return;
    }
    if (accept("if")) {
      // The guard re-derives from the stencil radii; skip it verbatim.
      expect("(");
      int depth = 1;
      while (depth > 0) {
        if (peek().kind == TokenKind::kEnd) fail("unterminated guard");
        if (peek().is("(")) ++depth;
        if (peek().is(")")) --depth;
        advance();
      }
      if (accept("{")) {
        parse_block(k);
      } else {
        parse_statement(k);
      }
      return;
    }
    if (accept("return") || accept(";")) {
      accept(";");
      return;
    }
    // Array store: <ident>[<expr>] = <expr>;
    if (peek().kind == TokenKind::kIdentifier && peek(1).is("[")) {
      const std::string array = advance().text;
      expect("[");
      ExprPtr index = parse_expr(k);
      expect("]");
      expect("=");
      ExprPtr value = parse_expr(k);
      expect(";");
      if (!k->out_array.empty()) {
        fail("a kernel may contain exactly one array store");
      }
      k->out_array = array;
      k->out_index = std::move(index);
      k->value = std::move(value);
      return;
    }
    fail(str_cat("unsupported statement near '", peek().text, "'"));
  }

  ExprPtr parse_expr(KernelDef* k) { return parse_additive(k); }

  ExprPtr parse_additive(KernelDef* k) {
    ExprPtr lhs = parse_multiplicative(k);
    while (peek().is("+") || peek().is("-")) {
      const char op = advance().text[0];
      auto node = std::make_shared<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = op;
      node->lhs = std::move(lhs);
      node->rhs = parse_multiplicative(k);
      lhs = std::move(node);
    }
    return lhs;
  }

  ExprPtr parse_multiplicative(KernelDef* k) {
    ExprPtr lhs = parse_factor(k);
    while (peek().is("*") || peek().is("/")) {
      const char op = advance().text[0];
      auto node = std::make_shared<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = op;
      node->lhs = std::move(lhs);
      node->rhs = parse_factor(k);
      lhs = std::move(node);
    }
    return lhs;
  }

  ExprPtr parse_factor(KernelDef* k) {
    if (accept("-")) {
      auto node = std::make_shared<Expr>();
      node->kind = Expr::Kind::kUnary;
      node->op = '-';
      node->lhs = parse_factor(k);
      return node;
    }
    if (accept("(")) {
      ExprPtr inner = parse_expr(k);
      expect(")");
      return inner;
    }
    if (peek().kind == TokenKind::kNumber) {
      auto node = std::make_shared<Expr>();
      node->kind = Expr::Kind::kNumber;
      node->spelling = advance().text;
      return node;
    }
    if (peek().kind == TokenKind::kIdentifier) {
      const std::string name = advance().text;
      if (accept("[")) {
        auto node = std::make_shared<Expr>();
        node->kind = Expr::Kind::kRead;
        node->array = name;
        node->index = parse_expr(k);
        expect("]");
        return node;
      }
      auto node = std::make_shared<Expr>();
      node->kind = Expr::Kind::kVar;
      node->var = name;
      return node;
    }
    fail(str_cat("unsupported expression near '", peek().text, "'"));
  }

  const std::vector<Token>& tokens_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Affine-index recovery
// ---------------------------------------------------------------------------

/// Integer evaluation of an index expression under a variable binding.
std::int64_t eval_index(const Expr& e,
                        const std::map<std::string, std::int64_t>& env,
                        int line) {
  switch (e.kind) {
    case Expr::Kind::kNumber: {
      if (e.spelling.find('.') != std::string::npos ||
          e.spelling.find('f') != std::string::npos ||
          e.spelling.find('F') != std::string::npos) {
        throw Error(str_cat("OpenCL import error at line ", line,
                            ": float literal in array index"));
      }
      return parse_int_literal(e.spelling, line);
    }
    case Expr::Kind::kVar: {
      auto it = env.find(e.var);
      if (it == env.end()) {
        throw Error(str_cat("OpenCL import error at line ", line,
                            ": unknown identifier '", e.var,
                            "' in array index"));
      }
      return it->second;
    }
    case Expr::Kind::kUnary:
      return -eval_index(*e.lhs, env, line);
    case Expr::Kind::kBinary: {
      const std::int64_t a = eval_index(*e.lhs, env, line);
      const std::int64_t b = eval_index(*e.rhs, env, line);
      switch (e.op) {
        case '+':
          return a + b;
        case '-':
          return a - b;
        case '*':
          return a * b;
        case '/':
          throw Error(str_cat("OpenCL import error at line ", line,
                              ": division in array index"));
      }
      return 0;
    }
    case Expr::Kind::kRead:
      throw Error(str_cat("OpenCL import error at line ", line,
                          ": array read inside an array index"));
  }
  return 0;
}

/// Recovers the constant offset vector of an affine row-major index.
Offset recover_offsets(const Expr& index, const KernelDef& kernel,
                       const std::map<std::string, std::int64_t>& params,
                       int dims, const std::array<std::int64_t, 3>& extents) {
  // Row-major strides over the active dimensions.
  std::array<std::int64_t, 3> stride{1, 1, 1};
  for (int d = dims - 2; d >= 0; --d) {
    stride[static_cast<std::size_t>(d)] =
        stride[static_cast<std::size_t>(d + 1)] *
        extents[static_cast<std::size_t>(d + 1)];
  }

  auto eval_at = [&](const std::array<std::int64_t, 3>& iv) {
    std::map<std::string, std::int64_t> env = params;
    for (const auto& [name, dim] : kernel.ivars) {
      env[name] = iv[static_cast<std::size_t>(dim)];
    }
    return eval_index(index, env, kernel.line);
  };

  const std::int64_t base = eval_at({0, 0, 0});
  // Affinity + stride check: moving one cell along dimension d must move
  // the flat index by exactly the row-major stride, from two anchors.
  for (int d = 0; d < dims; ++d) {
    std::array<std::int64_t, 3> unit{0, 0, 0};
    unit[static_cast<std::size_t>(d)] = 1;
    const std::int64_t delta = eval_at(unit) - base;
    if (delta != stride[static_cast<std::size_t>(d)]) {
      throw Error(str_cat(
          "OpenCL import error at line ", kernel.line, ": index in kernel '",
          kernel.name, "' is not row-major affine (stride along dim ", d,
          " is ", delta, ", expected ", stride[static_cast<std::size_t>(d)],
          "; integer size arguments bind to the grid extents by position)"));
    }
    std::array<std::int64_t, 3> two{1, 1, 1};
    two[static_cast<std::size_t>(d)] = 2;
    const std::int64_t affine_check =
        eval_at(two) - eval_at({1, 1, 1});
    if (affine_check != delta) {
      throw Error(str_cat("OpenCL import error at line ", kernel.line,
                          ": non-affine array index in kernel '", kernel.name,
                          "'"));
    }
  }

  // Unflatten the base value into small per-dimension offsets.
  Offset off{0, 0, 0};
  std::int64_t rest = base;
  for (int d = 0; d < dims; ++d) {
    const std::int64_t s = stride[static_cast<std::size_t>(d)];
    const auto q = static_cast<std::int64_t>(std::llround(
        static_cast<double>(rest) / static_cast<double>(s)));
    if (std::abs(q) > 8) {
      throw Error(str_cat("OpenCL import error at line ", kernel.line,
                          ": stencil offset ", q, " along dim ", d,
                          " is implausibly large"));
    }
    off[static_cast<std::size_t>(d)] = static_cast<int>(q);
    rest -= q * s;
  }
  if (rest != 0) {
    throw Error(str_cat("OpenCL import error at line ", kernel.line,
                        ": array index has a constant remainder ", rest,
                        " that is not a stencil offset"));
  }
  return off;
}

// ---------------------------------------------------------------------------
// Formula rendering
// ---------------------------------------------------------------------------

std::string offsets_text(const Offset& off, int dims) {
  std::vector<std::string> parts;
  for (int d = 0; d < dims; ++d) {
    parts.push_back(std::to_string(off[static_cast<std::size_t>(d)]));
  }
  return "(" + join(parts, ",") + ")";
}

/// Renders a value expression as stencilcl formula text, resolving
/// temporaries and mapping array reads through `logical_name`.
std::string render_value(const Expr& e, const KernelDef& kernel,
                         const std::map<std::string, std::int64_t>& params,
                         int dims, const std::array<std::int64_t, 3>& extents,
                         const std::map<std::string, std::string>& logical) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return e.spelling;
    case Expr::Kind::kVar: {
      auto temp = kernel.temporaries.find(e.var);
      if (temp != kernel.temporaries.end()) {
        return "(" + render_value(*temp->second, kernel, params, dims,
                                  extents, logical) +
               ")";
      }
      throw Error(str_cat("OpenCL import error at line ", kernel.line,
                          ": identifier '", e.var,
                          "' is not a temporary or array read"));
    }
    case Expr::Kind::kRead: {
      auto name = logical.find(e.array);
      if (name == logical.end()) {
        throw Error(str_cat("OpenCL import error at line ", kernel.line,
                            ": read of unknown array '", e.array, "'"));
      }
      const Offset off =
          recover_offsets(*e.index, kernel, params, dims, extents);
      return "$" + name->second + offsets_text(off, dims);
    }
    case Expr::Kind::kUnary:
      return "(-" + render_value(*e.lhs, kernel, params, dims, extents,
                                 logical) +
             ")";
    case Expr::Kind::kBinary:
      return "(" +
             render_value(*e.lhs, kernel, params, dims, extents, logical) +
             " " + std::string(1, e.op) + " " +
             render_value(*e.rhs, kernel, params, dims, extents, logical) +
             ")";
  }
  return "";
}

void collect_reads(const Expr& e, const KernelDef& kernel,
                   std::map<std::string, int>* read_counts) {
  switch (e.kind) {
    case Expr::Kind::kRead:
      ++(*read_counts)[e.array];
      return;
    case Expr::Kind::kVar: {
      auto temp = kernel.temporaries.find(e.var);
      if (temp != kernel.temporaries.end()) {
        collect_reads(*temp->second, kernel, read_counts);
      }
      return;
    }
    case Expr::Kind::kUnary:
      collect_reads(*e.lhs, kernel, read_counts);
      return;
    case Expr::Kind::kBinary:
      collect_reads(*e.lhs, kernel, read_counts);
      collect_reads(*e.rhs, kernel, read_counts);
      return;
    case Expr::Kind::kNumber:
      return;
  }
}

}  // namespace

StencilProgram import_opencl(const std::string& source,
                             const OpenClImportOptions& options) {
  const auto span =
      support::obs::tracer().span("frontend/import_opencl", "frontend");
  if (support::obs::enabled()) {
    static auto& imports = support::obs::metrics().counter(
        "scl_ocl_imports_total", "naive OpenCL kernels imported");
    imports.increment();
  }
  const std::vector<Token> tokens = tokenize(source);
  Parser parser(tokens);
  const std::vector<KernelDef> kernels = parser.parse_translation_unit();

  // Dimensionality: max get_global_id dimension used anywhere.
  int dims = options.dims;
  if (dims == 0) {
    for (const KernelDef& k : kernels) {
      for (const auto& [name, dim] : k.ivars) {
        dims = std::max(dims, dim + 1);
      }
    }
  }
  if (dims < 1 || dims > 3) {
    throw Error("OpenCL import: could not infer dimensionality (no "
                "get_global_id uses?)");
  }

  // Validate per-kernel structure and gather read/write sets.
  std::set<std::string> written;
  std::map<std::string, int> total_reads;
  for (const KernelDef& k : kernels) {
    if (k.out_array.empty()) {
      throw Error(str_cat("OpenCL import: kernel '", k.name,
                          "' has no array store"));
    }
    if (static_cast<int>(k.ivars.size()) < dims) {
      throw Error(str_cat("OpenCL import: kernel '", k.name,
                          "' uses fewer induction variables than the ",
                          dims, "-D grid"));
    }
    if (written.count(k.out_array) != 0) {
      throw Error(str_cat("OpenCL import: array '", k.out_array,
                          "' is written by more than one kernel"));
    }
    written.insert(k.out_array);
    collect_reads(*k.value, k, &total_reads);
  }

  // Ping-pong unification: a kernel writing W while reading a never-written
  // array R (and not reading W itself) is the host-swapped double-buffer
  // pattern; W and R collapse into the logical field R. The unified read
  // array is the one with the most distinct accesses in that kernel.
  std::map<std::string, std::string> logical;  // physical array -> field
  for (const KernelDef& k : kernels) {
    std::map<std::string, int> kernel_reads;
    collect_reads(*k.value, k, &kernel_reads);
    if (kernel_reads.count(k.out_array) != 0) {
      logical[k.out_array] = k.out_array;  // in-place stage
      continue;
    }
    const std::string* best = nullptr;
    int best_count = 0;
    bool tie = false;
    for (const auto& [array, count] : kernel_reads) {
      if (written.count(array) != 0) continue;  // another stage's output
      if (count > best_count) {
        best = &array;
        best_count = count;
        tie = false;
      } else if (count == best_count) {
        tie = true;
      }
    }
    if (best == nullptr) {
      throw Error(str_cat(
          "OpenCL import: kernel '", k.name, "' writes '", k.out_array,
          "' but reads no never-written array to unify the ping-pong with"));
    }
    if (tie) {
      throw Error(str_cat("OpenCL import: ambiguous ping-pong pair for "
                          "kernel '",
                          k.name, "' (several candidate input arrays)"));
    }
    logical[k.out_array] = *best;
    logical[*best] = *best;
  }
  // Everything else read keeps its own name (constant fields included).
  for (const auto& [array, count] : total_reads) {
    if (logical.count(array) == 0) logical[array] = array;
  }

  // Field order: argument order of the kernels, first appearance wins.
  std::vector<std::string> field_names;
  auto add_field = [&](const std::string& physical) {
    auto it = logical.find(physical);
    if (it == logical.end()) return;
    if (std::find(field_names.begin(), field_names.end(), it->second) ==
        field_names.end()) {
      field_names.push_back(it->second);
    }
  };
  for (const KernelDef& k : kernels) {
    for (const ArrayArg& a : k.arrays) add_field(a.name);
  }

  std::vector<scl::stencil::Field> fields;
  for (const std::string& name : field_names) {
    auto spec = options.init_specs.find(name);
    fields.push_back(scl::stencil::make_field(
        name,
        spec != options.init_specs.end() ? spec->second
                                         : options.default_init));
  }

  // Build the stages in source order.
  std::vector<scl::stencil::Stage> stages;
  for (const KernelDef& k : kernels) {
    // Integer size parameters bind to the grid extents by position.
    std::map<std::string, std::int64_t> params;
    for (std::size_t i = 0; i < k.int_params.size(); ++i) {
      if (i >= 3) {
        throw Error(str_cat("OpenCL import: kernel '", k.name,
                            "' has more than three integer parameters"));
      }
      params[k.int_params[i]] = options.extents[i];
    }
    const Offset out_off =
        recover_offsets(*k.out_index, k, params, dims, options.extents);
    if (out_off != Offset{0, 0, 0}) {
      throw Error(str_cat("OpenCL import: kernel '", k.name,
                          "' stores at a shifted location; only "
                          "OUT[center] stores are supported"));
    }
    const std::string formula = render_value(*k.value, k, params, dims,
                                             options.extents, logical);
    const std::string& out_field = logical.at(k.out_array);
    const auto field_pos =
        std::find(field_names.begin(), field_names.end(), out_field);
    stages.push_back(scl::stencil::make_stage(
        k.name, static_cast<int>(field_pos - field_names.begin()), formula,
        field_names, dims));
  }

  return StencilProgram(
      options.name.empty() ? kernels.front().name : options.name, dims,
      options.extents, options.iterations, std::move(fields),
      std::move(stages));
}

}  // namespace scl::frontend
