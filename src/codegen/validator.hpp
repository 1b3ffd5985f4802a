// Text-level validator for generated sources.
//
// Not a compiler: a fast character scan for two generator bugs that are
// properties of the raw text, which lowering cannot see. The host C++ is
// never lowered, and the kernel lowering drops comments (where a stray
// `$` would still be a generator bug):
//
//   SCL001  unbalanced delimiters          SCL002  unexpanded placeholder
//
// Pipe pairing (SCL010-SCL016) runs on the lowered kernel module instead
// (analysis::ir::check_pipe_pairing, wired up by core::verify_generated_ir).
#pragma once

#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace scl::codegen {

/// Checks a generated kernel translation unit (braces, parentheses,
/// brackets, placeholders). Returns the list of problems found (empty =
/// clean).
std::vector<support::Diagnostic> validate_kernel_source(
    const std::string& src);

/// Checks generated host source (braces, parentheses, placeholders).
std::vector<support::Diagnostic> validate_host_source(const std::string& src);

}  // namespace scl::codegen
