// Design verifier: semantic static analysis of a synthesized design.
//
// Three passes over a sim::Design + the code generator's view of it,
// reporting through support::DiagnosticEngine (codes SCL1xx pipe / SCL2xx
// bounds / SCL3xx resource; see support/diagnostics.hpp):
//
//   1. Pipe-graph analysis — builds the kernel x pipe channel graph,
//      checks every shared face that needs a halo has a delivering
//      channel, that channel endpoints are sane (adjacent, distinct,
//      in-range), that FIFO depths cover the per-(iteration, stage)
//      boundary-layer volume the symmetric exchange pushes before it
//      reads, and that undersized channels do not form a blocked-write
//      cycle (deadlock).
//   2. Halo & bounds interval analysis — re-derives the generated kernel's
//      loop-bound expressions (codegen/boundary_gen), lowers each string
//      once with pass 4's expression front end (ir::lower_expression) and
//      evaluates it over sampled region origins and fused-iteration
//      distances to prove burst reads stay inside the grid, burst writes
//      stay inside each field's updatable region, and every stage's
//      neighbor accesses stay inside the kernel's static local-buffer box.
//   3. Resource feasibility cross-check — independently recomputes the
//      design's buffer and pipe demands and compares them with what
//      core::estimate_design_resources charged, catching model/codegen
//      drift before a mis-modeled design wins the DSE.
//
// Pass 4 — kernel-IR dataflow analysis of the *emitted* OpenCL text
// (SCL4xx, plus the SCL010-SCL016 pipe pairing) — lives in analysis/ir/
// and is wired up by core::verify_generated_ir.
//
// The AnalysisInput is exposed (rather than hidden behind a one-shot
// entry point) so tests can seed defects — drop a pipe, shrink a FIFO,
// tamper with a bound expression — and assert the golden diagnostics.
#pragma once

#include <string>
#include <vector>

#include "codegen/boundary_gen.hpp"
#include "codegen/context.hpp"
#include "codegen/pipe_gen.hpp"
#include "support/diagnostics.hpp"

namespace scl::analysis {

/// The analyzed artifact: the design's code-generation context (tile
/// placements) plus the pipe channel list codegen would emit.
struct AnalysisInput {
  codegen::GenContext ctx;
  std::vector<codegen::PipeDecl> pipes;
};

/// Builds the analyzer's view of `config` exactly as codegen would see it.
/// Throws scl::Error when the config is malformed for the program.
AnalysisInput make_analysis_input(const scl::stencil::StencilProgram& program,
                                  const sim::DesignConfig& config,
                                  const fpga::DeviceSpec& device);

/// Pass 1: pipe channel graph (SCL101..SCL105).
void analyze_pipe_graph(const AnalysisInput& input,
                        support::DiagnosticEngine* diags);

/// Pass 2: halo & bounds interval analysis (SCL201..SCL209). Runs the
/// three check_* entry points below on every kernel's generated bounds.
/// A bound string that cannot be lowered, or that names a variable other
/// than r0..r2, pass_h and it, is reported as an SCL209 warning quoting
/// that string, and the check skips it.
void analyze_bounds(const AnalysisInput& input,
                    support::DiagnosticEngine* diags);

/// Pass 2 entry point for one explicit set of burst-read bounds, used by
/// analyze_bounds for every kernel and by tests to seed out-of-bounds
/// expressions directly.
void check_buffer_bounds(const AnalysisInput& input, int kernel,
                         const codegen::LoopBounds& bounds,
                         support::DiagnosticEngine* diags);

/// Pass 2 entry point for one field's burst-write bounds (SCL203).
/// analyze_bounds passes codegen::owned_bounds; tests seed tampered
/// expressions that escape the field's updatable region.
void check_owned_bounds(const AnalysisInput& input, int kernel, int field,
                        const codegen::LoopBounds& bounds,
                        support::DiagnosticEngine* diags);

/// Pass 2 entry point for one stage's compute bounds (SCL202): every
/// neighbor access (bounds ± stencil offset) must stay inside the
/// kernel's local-buffer box, dynamically and against the static array
/// extent. analyze_bounds passes codegen::stage_compute_bounds; tests
/// seed widened expressions.
void check_stage_accesses(const AnalysisInput& input, int kernel, int stage,
                          const codegen::LoopBounds& bounds,
                          support::DiagnosticEngine* diags);

/// What the resource model charged the design, as far as pass 3 needs it.
/// The analysis layer sits below core/, so the caller (core::verify_design)
/// supplies the numbers from core::estimate_design_resources.
struct ChargedResources {
  std::int64_t pipe_count = 0;        ///< directed FIFOs the model paid for
  std::int64_t buffer_elements = 0;   ///< local-buffer floats, all kernels
  std::int64_t pipe_fifo_elements = 0;  ///< FIFO storage floats, all kernels
  fpga::ResourceVector total;         ///< the design's full resource vector
};

/// Pass 3: resource-model consistency (SCL301..SCL310). Compares the
/// analyzer's independent recomputation of the design's buffer and pipe
/// demands against what the resource model charged.
void analyze_resources(const AnalysisInput& input,
                       const ChargedResources& charged,
                       support::DiagnosticEngine* diags);

/// Runs passes 1 and 2; adds pass 3 when `charged` is non-null.
support::DiagnosticEngine analyze(const AnalysisInput& input,
                                  const ChargedResources* charged = nullptr);

/// Convenience: build the input and run passes 1 and 2 on `config`. For
/// the full three-pass verification use core::verify_design, which also
/// supplies the resource model's charge.
support::DiagnosticEngine analyze_design(
    const scl::stencil::StencilProgram& program,
    const sim::DesignConfig& config, const fpga::DeviceSpec& device);

}  // namespace scl::analysis
