// Region decomposition (paper §4.1) and the replica wave schedule.
//
// The input grid is covered by regions; one region holds the K = prod(K_d)
// tiles processed concurrently by the K synthesized kernels, and regions
// are processed sequentially. The time dimension is cut into passes of h
// fused iterations (the last pass may be shorter when h does not divide H).
//
// R replicas sweep a pass in wave slots, as the replicated host does: each
// slot runs one region per replica and ends when the slowest finishes, so
// a pass's critical path is the sum of its slots' slowest regions (at
// R = 1, of all its regions).
//
// For timing simulation the decomposition also exposes the *distinct*
// region shapes: two regions behave identically iff they have the same
// extents and the same grid-edge adjacency (a region flush against the
// grid border has its cone expansions clipped, so it does less work).
// Simulating one representative per shape and multiplying by the count is
// what makes paper-scale inputs (1024^3 cells, 1024 iterations) tractable.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/design.hpp"
#include "stencil/geometry.hpp"
#include "stencil/program.hpp"

namespace scl::sim {

using scl::stencil::Box;
using scl::stencil::Face;

/// One tile (= one OpenCL kernel's workload) inside a region.
struct TilePlacement {
  std::array<int, 3> coord{0, 0, 0};  ///< position in the K_d tile grid
  int kernel_index = 0;               ///< launch order within the region
  Box box;                            ///< owned cells; may be empty in
                                      ///< remainder regions
  /// exterior[d][side]: this face borders the region boundary (cone
  /// expansion) rather than a sibling tile (pipe exchange).
  std::array<std::array<bool, 2>, 3> exterior{};

  bool face_is_exterior(const Face& f) const {
    return exterior[static_cast<std::size_t>(f.dim)][f.dir < 0 ? 0 : 1];
  }
};

/// A region and its tile partition.
struct RegionPlan {
  Box box;
  std::vector<TilePlacement> tiles;
  /// True per dim/side when the region touches the grid border there.
  std::array<std::array<bool, 2>, 3> at_grid_edge{};
};

class RegionGrid {
 public:
  RegionGrid(const scl::stencil::StencilProgram& program,
             const DesignConfig& config);

  /// Spatial regions per pass.
  std::int64_t regions_per_pass() const { return regions_per_pass_; }

  /// Temporal passes: ceil(H / h).
  std::int64_t passes() const { return passes_; }

  /// Fused iterations in the final pass (== h when h divides H).
  std::int64_t last_pass_iterations() const { return last_pass_iterations_; }

  /// Total region executions over the whole run (paper's N_region).
  std::int64_t total_region_executions() const {
    return regions_per_pass_ * passes_;
  }

  /// Every spatial region, row-major. Intended for functional simulation
  /// at small scale.
  std::vector<RegionPlan> all_regions() const;

  /// Distinct region shapes with multiplicities (for timing simulation).
  struct ShapeCount {
    RegionPlan plan;
    std::int64_t count = 0;
  };
  std::vector<ShapeCount> distinct_shapes() const;

  /// The dimension with the most region rows (ties toward dimension 0):
  /// its rows are strip-partitioned into R blocks of waves() rows, and
  /// replica p runs row p*waves() + w in wave w.
  int replication_dim() const { return replication_dim_; }
  std::int64_t waves() const { return waves_; }

  /// One wave slot of a pass (or `count` identical ones): per replica the
  /// region or shape it runs, -1 past the grid edge.
  struct WaveSlot {
    std::vector<std::int64_t> runs;
    std::int64_t count = 0;
  };
  /// kRegion: runs index all_regions(), every slot listed once.
  /// kShape: runs index distinct_shapes(), identical slots merged.
  enum class SlotUnit { kRegion, kShape };
  std::vector<WaveSlot> wave_slots(SlotUnit unit) const;

 private:
  /// One class of identical segments along a dimension.
  struct SegmentClass {
    std::int64_t lo = 0;  ///< representative start coordinate
    std::int64_t extent = 0;
    std::int64_t count = 0;
    bool touches_low = false;
    bool touches_high = false;
  };

  RegionPlan make_region(const std::array<std::int64_t, 3>& lo,
                         const std::array<std::int64_t, 3>& extent) const;

  const scl::stencil::StencilProgram* program_;
  DesignConfig config_;
  std::array<std::int64_t, 3> region_counts_{1, 1, 1};
  std::array<std::vector<SegmentClass>, 3> classes_;
  std::array<std::vector<std::int64_t>, 3> class_of_;  ///< segment -> class
  int replication_dim_ = 0;
  std::int64_t waves_ = 0;
  std::int64_t regions_per_pass_ = 0;
  std::int64_t passes_ = 0;
  std::int64_t last_pass_iterations_ = 0;
};

}  // namespace scl::sim
