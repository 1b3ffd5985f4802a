#include "core/verify.hpp"

#include <optional>

#include "analysis/ir/dataflow.hpp"
#include "codegen/validator.hpp"
#include "support/observability/observability.hpp"

namespace scl::core {

namespace {

support::obs::Counter& diagnostics_counter() {
  static auto& counter = support::obs::metrics().counter(
      "scl_analysis_diagnostics_total",
      "diagnostics reported by the design/source verifier passes");
  return counter;
}

}  // namespace

analysis::ChargedResources charged_resources(
    const DesignResources& resources) {
  analysis::ChargedResources charged;
  charged.pipe_count = resources.pipe_count;
  charged.buffer_elements = resources.buffer_elements_total;
  charged.pipe_fifo_elements = resources.pipe_fifo_elements_total;
  charged.total = resources.total;
  return charged;
}

support::DiagnosticEngine verify_design(
    const scl::stencil::StencilProgram& program,
    const sim::DesignConfig& config, const fpga::DeviceSpec& device,
    const DesignResources& resources) {
  const auto span =
      support::obs::tracer().span("analysis/verify_design", "analysis");
  const analysis::AnalysisInput input =
      analysis::make_analysis_input(program, config, device);
  const analysis::ChargedResources charged = charged_resources(resources);
  support::DiagnosticEngine diags = analysis::analyze(input, &charged);
  if (support::obs::enabled()) {
    diagnostics_counter().add(
        static_cast<std::int64_t>(diags.diagnostics().size()));
  }
  return diags;
}

void verify_generated_sources(const codegen::GeneratedCode& code,
                              support::DiagnosticEngine* diags) {
  const auto span =
      support::obs::tracer().span("analysis/verify_sources", "analysis");
  auto append = [&](std::vector<support::Diagnostic> issues,
                    const char* file) {
    for (support::Diagnostic& diag : issues) {
      if (diag.location.component == "source" &&
          diag.location.detail.empty()) {
        diag.location.detail = file;
      }
      support::Diagnostic& added =
          diags->add(std::move(diag.code), diag.severity,
                     std::move(diag.message));
      added.location = std::move(diag.location);
      added.notes = std::move(diag.notes);
    }
  };
  append(codegen::validate_kernel_source(code.kernel_source),
         "stencil_kernels.cl");
  append(codegen::validate_host_source(code.host_source), "stencil_host.cpp");
}

IrVerifyStats verify_generated_ir(const scl::stencil::StencilProgram& program,
                                  const sim::DesignConfig& config,
                                  const codegen::GeneratedCode& code,
                                  support::DiagnosticEngine* diags) {
  const auto span =
      support::obs::tracer().span("analysis/verify_ir", "analysis");
  IrVerifyStats stats;
  stats.ran = true;
  support::DiagnosticEngine local;
  const std::optional<analysis::ir::Module> module =
      analysis::ir::analyze_kernel_source(
          code.kernel_source, analysis::ir::make_ir_context(program, config),
          &local);
  if (module) {
    stats.kernels_lowered = static_cast<std::int64_t>(module->kernels.size());
    stats.pipes_checked = static_cast<std::int64_t>(module->pipes.size());
    stats.unmodeled_constructs =
        static_cast<std::int64_t>(module->unmodeled.size());
  }
  stats.errors = local.error_count();
  stats.warnings = local.warning_count();
  diags->merge(local);
  if (support::obs::enabled()) {
    diagnostics_counter().add(
        static_cast<std::int64_t>(local.diagnostics().size()));
  }
  return stats;
}

}  // namespace scl::core
