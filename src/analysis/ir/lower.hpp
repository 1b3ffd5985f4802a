// Lowers emitted OpenCL kernel source into the analysis IR (ir.hpp).
//
// The generator's output is a disciplined subset of OpenCL-C: `#define`
// index macros, `pipe float` declarations, single-work-item kernels made
// of counted loop nests over flat array accesses and blocking pipe
// calls. The lowerer re-reads that text with the *frontend* lexer (the
// same tokenizer the OpenCL importer uses), expands the emitted macros,
// and builds the statement IR. It deliberately re-derives nothing from
// the design config — what is analyzed is what was emitted.
//
// Constructs outside the subset do not abort the lowering: they become
// ir::Stmt::kOpaque leaves / Module::unmodeled entries, which the
// dataflow pass reports as SCL409 so the analysis is never silently
// partial. Structurally broken text (unterminated kernels, unbalanced
// parentheses) throws scl::Error.
//
// The same integer-expression grammar is the verifier's only expression
// front end: passes 1-3 lower each codegen::LoopBounds string through
// lower_expression and evaluate it with ir::eval_expr.
#pragma once

#include <string>
#include <vector>

#include "analysis/ir/ir.hpp"

namespace scl::analysis::ir {

/// Lowers one emitted kernel-source file. Throws scl::Error when the
/// text cannot be tokenized or a kernel never closes.
Module lower_kernel_source(const std::string& source);

/// Lowers one standalone integer expression in the same language (a
/// codegen::LoopBounds string, say). Variables resolve into `slots`,
/// which the caller may pre-fill so that its own names keep fixed slots;
/// a name not yet in the table is appended. Throws scl::Error on a syntax
/// error or a token after the expression.
Expr lower_expression(const std::string& text,
                      std::vector<std::string>* slots);

}  // namespace scl::analysis::ir
