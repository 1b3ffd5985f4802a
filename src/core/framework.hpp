// The end-to-end synthesis framework (paper Figure 5).
//
// Input: a stencil program (the OpenCL algorithm, in our declarative form)
// plus user parameters (target device, kernel-count budget). The framework
//   1. extracts the stencil features,
//   2. runs the performance optimizer: baseline DSE, then the
//      heterogeneous DSE under the baseline's resource budget,
//   3. generates the optimized OpenCL kernel and host code,
//   4. "executes" both designs on the cycle-approximate device simulator
//      (the stand-in for the board measurement) and reports the speedup.
#pragma once

#include <optional>
#include <string>

#include "arch/family.hpp"
#include "codegen/opencl_emitter.hpp"
#include "core/features.hpp"
#include "core/optimizer.hpp"
#include "core/verify.hpp"
#include "sim/executor.hpp"
#include "stencil/program.hpp"
#include "support/diagnostics.hpp"

namespace scl::core {

/// Which design families the flow searches; the generated code and the
/// IR verification always follow the winning family.
enum class FamilySelection {
  kAuto,           ///< search both, emit the fewer-predicted-cycles winner
  kPipeTiling,     ///< the paper's spatial tiling family only
  kTemporalShift,  ///< the temporal-blocked shift-register family only
};

std::string to_string(FamilySelection family);

struct FrameworkOptions {
  OptimizerOptions optimizer;
  /// Family policy. kAuto breaks a predicted-cycles tie toward the
  /// pipe-tiling family (the paper's architecture, and the cheaper
  /// host-side sweep).
  FamilySelection family = FamilySelection::kAuto;
  /// Run the discrete-event simulation of both designs (timing-only).
  bool simulate = true;
  /// Emit OpenCL kernel + host sources for the heterogeneous design.
  bool generate_code = true;
  /// Statically verify the selected designs (pipe graph, halo & bounds,
  /// resource cross-check) and the generated sources; diagnostics land in
  /// SynthesisReport::analysis.
  bool analyze = true;
  /// Throw scl::Error when verification reports error diagnostics.
  /// Warnings never fail the flow. Tools that want to render the
  /// diagnostics themselves (--analyze) turn this off.
  bool fail_on_analysis_error = true;
};

struct SynthesisReport {
  StencilFeatures features;
  fpga::DeviceSpec device;  ///< target the flow ran against
  DesignPoint baseline;
  DesignPoint heterogeneous;

  /// Best temporal-shift design; populated when options.family admits
  /// the family and some temporal candidate fits the device budget.
  std::optional<DesignPoint> temporal;

  /// Family of the winning design — the one that is code-generated,
  /// IR-verified and reported as the flow's output.
  arch::DesignFamily selected_family = arch::DesignFamily::kPipeTiling;

  /// The winning design per selected_family.
  const DesignPoint& selected() const {
    return selected_family == arch::DesignFamily::kTemporalShift && temporal
               ? *temporal
               : heterogeneous;
  }

  /// DSE evaluation counters over both searches: candidates evaluated,
  /// pruned, throughput, wall-clock, worker threads.
  DseStats dse;

  /// The (cycles, BRAM18) Pareto front of the feasible designs the
  /// searches evaluated (Optimizer::retained_frontier()): the trade-off
  /// curve around the reported optimum. Deterministic for any thread
  /// count.
  std::vector<DesignPoint> frontier;

  // Measured (simulated) results; valid when options.simulate.
  sim::SimResult baseline_sim;
  sim::SimResult heterogeneous_sim;
  sim::SimResult temporal_sim;  ///< valid when `temporal` is populated
  double speedup = 0.0;  ///< baseline cycles / heterogeneous cycles

  // Generated sources; valid when options.generate_code.
  codegen::GeneratedCode code;

  /// Design-verification diagnostics over both selected designs and the
  /// generated sources; populated when options.analyze.
  support::DiagnosticEngine analysis;

  /// What the pass-4 kernel-IR verification covered; `ir.ran` is true
  /// when options.analyze and options.generate_code were both set.
  IrVerifyStats ir;

  /// Multi-line human-readable summary (Table 3-row style).
  std::string to_string() const;
};

class Framework {
 public:
  Framework(const scl::stencil::StencilProgram& program,
            FrameworkOptions options);

  /// Runs the full flow. Throws scl::ResourceError when no design fits.
  SynthesisReport synthesize() const;

  /// Evaluates a user-supplied configuration end to end (model +
  /// simulation), bypassing the DSE. Useful for sweeps.
  DesignPoint evaluate(const sim::DesignConfig& config) const {
    return optimizer_.evaluate(config);
  }

  const Optimizer& optimizer() const { return optimizer_; }

 private:
  const scl::stencil::StencilProgram* program_;
  FrameworkOptions options_;
  Optimizer optimizer_;
};

}  // namespace scl::core
