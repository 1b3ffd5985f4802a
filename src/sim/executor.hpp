// Whole-application discrete-event simulation (the "measured" side of the
// reproduction — the stand-in for running the bitstream under SDAccel).
//
// Functional mode runs every region of every pass with real data against a
// pair of ping-ponged global field sets, exactly as the synthesized system
// double-buffers its DDR arrays between fused passes, and returns the final
// fields for comparison with the golden ReferenceExecutor.
//
// Timing-only mode exploits that regions with identical shape and grid-edge
// adjacency behave identically: it simulates one representative region per
// distinct shape (and per distinct pass length) and multiplies.
// Both modes, and both families, take the clock from RegionGrid's replica
// wave slots, so they agree at every replication factor.
#pragma once

#include <cstdint>
#include <optional>

#include "fpga/device.hpp"
#include "sim/design.hpp"
#include "sim/region.hpp"
#include "sim/tile_task.hpp"
#include "sim/timeline.hpp"
#include "stencil/program.hpp"
#include "stencil/state.hpp"

namespace scl::sim {

struct SimResult {
  /// Critical path: the sum over wave slots of each slot's slowest region.
  std::int64_t total_cycles = 0;
  double total_ms = 0.0;
  /// Per-phase cycles summed over every kernel of each wave slot's
  /// slowest region (at R = 1: of every region execution).
  PhaseBreakdown phases;
  std::int64_t region_executions = 0;
  std::int64_t cells_owned = 0;
  std::int64_t cells_redundant = 0;
  std::int64_t pipe_elements = 0;
  std::int64_t global_memory_bytes = 0;
  /// Final field contents (functional mode only).
  std::optional<scl::stencil::FieldSet> fields;

  /// Fraction of updated cells that were redundant cone overlap.
  double redundancy_ratio() const {
    const double total =
        static_cast<double>(cells_owned + cells_redundant);
    return total > 0 ? static_cast<double>(cells_redundant) / total : 0.0;
  }
};

/// Simulator knobs for ablation studies; the defaults model the paper's
/// proposed design.
struct SimTuning {
  /// §3.1 communication-latency hiding: pipe writes overlap the stage's
  /// independent computation. Off = every transferred element lands on
  /// the producer's critical path (λ = 1 in the paper's terms).
  bool latency_hiding = true;
};

/// Re-entrancy contract: an Executor holds only the immutable device spec
/// and tuning knobs; run() and trace_region() build all simulation state
/// (region grids, tile tasks, pipes, field sets) on the stack per call.
/// Concurrent timing-only runs on one instance — or on per-worker
/// instances, as the parallel DSE path uses them — are safe without
/// locking as long as the shared program and device are not mutated.
class Executor {
 public:
  explicit Executor(fpga::DeviceSpec device, SimTuning tuning = SimTuning{})
      : device_(std::move(device)), tuning_(tuning) {}

  const fpga::DeviceSpec& device() const { return device_; }

  /// Simulates `config` running `program` on the device. Functional mode
  /// is intended for small instances (it touches every cell of every
  /// region); timing-only handles the paper-scale inputs.
  SimResult run(const scl::stencil::StencilProgram& program,
                const DesignConfig& config, SimMode mode) const;

  /// Simulates one representative (interior, full-size) region pass and
  /// returns its per-kernel event trace. Timing-only.
  RegionTrace trace_region(const scl::stencil::StencilProgram& program,
                           const DesignConfig& config) const;

 private:
  struct RegionOutcome {
    std::int64_t cycles = 0;
    PhaseBreakdown phases;
    std::int64_t cells_owned = 0;
    std::int64_t cells_redundant = 0;
    std::int64_t pipe_elements = 0;
    std::int64_t bytes = 0;
  };

  RegionOutcome run_region(const scl::stencil::StencilProgram& program,
                           const DesignConfig& config,
                           const StepTables& tables, const RegionPlan& plan,
                           std::int64_t pass_iterations, SimMode mode,
                           const scl::stencil::FieldSet* global_in,
                           scl::stencil::FieldSet* global_out,
                           std::vector<TraceEvent>* trace = nullptr) const;

  /// Adds `passes` repetitions of one pass: each slot's slowest region
  /// joins the critical path, every region's work joins the totals.
  static void accumulate_waves(const std::vector<RegionGrid::WaveSlot>& slots,
                               const std::vector<RegionOutcome>& outcomes,
                               std::int64_t passes, SimResult* result);

  SimResult run_pipe_tiling(const scl::stencil::StencilProgram& program,
                            const DesignConfig& config, SimMode mode) const;

  /// Temporal-shift family (arch/family.hpp): models the single-kernel
  /// deep pipeline — per strip, one walk of the padded strip through the
  /// T-deep cascade at the walk II, overlapped with the streaming
  /// global-memory traffic, plus launch and pipeline fill/drain. No
  /// pipes, no barriers. Functional mode executes the design's spatial
  /// twin for bit-exact field contents (the cascade computes the same
  /// update schedule) while the timing numbers stay the cascade's.
  SimResult run_temporal(const scl::stencil::StencilProgram& program,
                         const DesignConfig& config, SimMode mode) const;

  fpga::DeviceSpec device_;
  SimTuning tuning_;
};

}  // namespace scl::sim
