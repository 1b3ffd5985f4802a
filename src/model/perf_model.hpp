// Analytical performance model (paper §4, Eqs. 1–11).
//
// Predicts the execution latency of a design in clock cycles from the
// region count, burst global-memory transfers under evenly-shared
// bandwidth, per-iteration compute with C_element = II / N_PE, and the
// pipe-transfer latency partially hidden behind independent computation
// (the overlap ratio λ).
//
// Following the paper (§5.6), the model deliberately omits the sequential
// kernel-launch delay, burst setup latency, and barrier-wait dynamics the
// discrete-event simulator charges — so it *underestimates* the measured
// latency while ranking designs the same way. Reproducing that bias is
// part of reproducing Figure 7.
//
// Two evaluation modes:
//  * kRefined (default): per-kernel geometry — each kernel's own balanced
//    tile extents, and cone expansion only on its region-exterior faces.
//  * kPaperExact: Eq. 8/10 verbatim — the slowest kernel is modeled with
//    the maximum balancing factor and the full Δw expansion in every
//    dimension. Kept for ablation; it is distinctly more conservative.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/device.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"

namespace scl::model {

enum class ConeMode { kRefined, kPaperExact };

/// Predicted latency and its per-region decomposition for the slowest
/// kernel (all values in clock cycles, fractional).
struct Prediction {
  double total_cycles = 0.0;
  double total_ms = 0.0;
  std::int64_t n_region = 0;     ///< paper Eq. 2 (with the H/h fix)
  double l_mem = 0.0;            ///< Eq. 4: slowest kernel, one region
  double l_comp = 0.0;           ///< Eq. 7 with per-iteration overlap
  double l_share_exposed = 0.0;  ///< pipe time not hidden by computation
  double lambda = 0.0;           ///< average exposed-overlap ratio (Eq. 11)
  double l_tile = 0.0;           ///< slowest kernel's region latency
};

/// Re-entrancy contract: PerfModel holds only read-only references (the
/// program, the device spec, the mode) and predict() keeps all working
/// state on the stack — concurrent predict() calls on one instance, or on
/// per-worker instances sharing the same program, need no locking. The
/// parallel design-space exploration (core::EvaluationEngine) relies on
/// this; do not add mutable caches here without a lock.
class PerfModel {
 public:
  PerfModel(const scl::stencil::StencilProgram& program,
            fpga::DeviceSpec device, ConeMode mode = ConeMode::kRefined);

  /// Predicts the latency of `config` (Eq. 1: N_region * max_k L_tile_k).
  /// Pure and re-entrant (see the class contract above).
  Prediction predict(const sim::DesignConfig& config) const;

  /// Convenience: predicted cycles only.
  double predict_cycles(const sim::DesignConfig& config) const {
    return predict(config).total_cycles;
  }

  ConeMode mode() const { return mode_; }

 private:
  struct KernelGeometry;
  /// Eq. 3 components for one kernel. `stage_ii` carries the per-stage
  /// initiation intervals, hoisted by predict() — they depend only on
  /// (stage, unroll), never on the kernel position, so computing them
  /// once per prediction instead of once per kernel×iteration is a pure
  /// (bit-identical) speedup of the DSE hot path.
  void accumulate_kernel(const sim::DesignConfig& config,
                         const KernelGeometry& geo,
                         const std::vector<double>& stage_ii,
                         Prediction* out) const;

  const scl::stencil::StencilProgram* program_;
  fpga::DeviceSpec device_;
  ConeMode mode_;
};

}  // namespace scl::model
