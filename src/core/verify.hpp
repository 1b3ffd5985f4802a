// Full three-pass design verification (see analysis/analyzer.hpp).
//
// The analysis library sits below core/, so it cannot call the resource
// estimator itself; this wrapper computes what the model charged a design
// and feeds it to the analyzer's resource cross-check. The emitted code
// gets the validator's text checks (verify_generated_sources) and the
// pass-4 IR verifier (verify_generated_ir).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "codegen/opencl_emitter.hpp"
#include "core/resource_estimator.hpp"
#include "support/diagnostics.hpp"
#include "support/error.hpp"

namespace scl::core {

/// Thrown when static verification reports error-severity diagnostics.
/// Carries the structured diagnostics so callers (the synthesis service,
/// the daemon wire protocol) can surface them instead of a flat string.
class VerificationError : public Error {
 public:
  VerificationError(const std::string& what,
                    std::vector<support::Diagnostic> diagnostics)
      : Error(what), diagnostics_(std::move(diagnostics)) {}

  const std::vector<support::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

 private:
  std::vector<support::Diagnostic> diagnostics_;
};

/// The analyzer's view of what the resource model charged `resources`.
analysis::ChargedResources charged_resources(const DesignResources& resources);

/// Runs all three analysis passes on one design: pipe graph, halo &
/// bounds, and the resource cross-check against `resources` (as computed
/// by estimate_design_resources for the same config).
support::DiagnosticEngine verify_design(
    const scl::stencil::StencilProgram& program,
    const sim::DesignConfig& config, const fpga::DeviceSpec& device,
    const DesignResources& resources);

/// Appends the generated-source validator's text checks for `code`
/// (SCL001 delimiters, SCL002 placeholders) to `diags`.
void verify_generated_sources(const codegen::GeneratedCode& code,
                              support::DiagnosticEngine* diags);

/// What the pass-4 IR verification covered (SynthesisReport bookkeeping
/// and the --analyze-json `ir` section).
struct IrVerifyStats {
  bool ran = false;
  std::int64_t kernels_lowered = 0;
  std::int64_t pipes_checked = 0;
  std::int64_t unmodeled_constructs = 0;
  std::int64_t errors = 0;
  std::int64_t warnings = 0;
};

/// Pass 4: lowers the emitted kernel source to the analysis IR and runs
/// the pipe-pairing checks (SCL010-SCL016) and the SCL4xx
/// abstract-interpretation checks (analysis/ir/dataflow) over it;
/// diagnostics are appended to `diags`.
IrVerifyStats verify_generated_ir(const scl::stencil::StencilProgram& program,
                                  const sim::DesignConfig& config,
                                  const codegen::GeneratedCode& code,
                                  support::DiagnosticEngine* diags);

}  // namespace scl::core
