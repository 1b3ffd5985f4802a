#include "sim/region.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/math.hpp"

namespace scl::sim {

using scl::stencil::Index;
using scl::stencil::StencilProgram;

RegionGrid::RegionGrid(const StencilProgram& program,
                       const DesignConfig& config)
    : program_(&program), config_(config) {
  config.validate(program);

  const Box grid = program.grid_box();
  regions_per_pass_ = 1;
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const std::int64_t w = grid.extent(d);
    const std::int64_t r = config.region_extent(d);
    const std::int64_t n = ceil_div(w, r);
    region_counts_[ds] = n;
    regions_per_pass_ *= n;

    // Build segment classes, merging segments that behave identically. A
    // segment's timing depends on the grid border when anything the
    // region computes can be clipped by it: the cone margins reach
    // iter_radii * h beyond the region, and compute boxes are clipped by
    // the updatable region, which is inset by up to the stage read radius.
    // Segments farther than that "reach" from both borders and with equal
    // extent are interchangeable; everything nearer gets its own class.
    std::vector<SegmentClass>& classes = classes_[ds];
    std::vector<std::int64_t>& class_of = class_of_[ds];
    auto extent_at = [&](std::int64_t i) {
      return std::min(r, w - i * r);
    };
    const std::int64_t reach_low =
        program.iter_radii()[ds][0] * config.fused_iterations +
        program.max_stage_radii()[ds][0];
    const std::int64_t reach_high =
        program.iter_radii()[ds][1] * config.fused_iterations +
        program.max_stage_radii()[ds][1];
    std::int64_t generic_count = 0;
    std::int64_t generic_lo = -1;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t lo = i * r;
      const std::int64_t extent = extent_at(i);
      const bool generic =
          lo >= reach_low && lo + extent <= w - reach_high && extent == r;
      class_of.push_back(generic ? -1 : std::ssize(classes));  // generic: below
      if (generic) {
        ++generic_count;
        if (generic_lo < 0) generic_lo = lo;
      } else {
        classes.push_back({lo, extent, 1, lo == 0, lo + extent >= w});
      }
    }
    if (generic_count > 0) {
      std::replace(class_of.begin(), class_of.end(), std::int64_t{-1},
                   static_cast<std::int64_t>(classes.size()));
      classes.push_back({generic_lo, r, generic_count, false, false});
    }
    if (n > region_counts_[static_cast<std::size_t>(replication_dim_)]) {
      replication_dim_ = d;
    }
  }
  waves_ = ceil_div(region_counts_[static_cast<std::size_t>(replication_dim_)],
                    static_cast<std::int64_t>(config.replication));

  passes_ = ceil_div(program.iterations(), config.fused_iterations);
  last_pass_iterations_ =
      program.iterations() - config.fused_iterations * (passes_ - 1);
}

RegionPlan RegionGrid::make_region(
    const std::array<std::int64_t, 3>& lo,
    const std::array<std::int64_t, 3>& extent) const {
  RegionPlan plan;
  const Box grid = program_->grid_box();
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    plan.box.lo[ds] = lo[ds];
    plan.box.hi[ds] = lo[ds] + extent[ds];
    plan.at_grid_edge[ds][0] = lo[ds] == grid.lo[ds];
    plan.at_grid_edge[ds][1] = lo[ds] + extent[ds] >= grid.hi[ds];
  }

  // Partition the region among the K_d x K_d x K_d tile grid using the
  // balanced extents, clipping at the region end (remainder regions can
  // leave trailing tiles empty).
  std::array<std::vector<std::int64_t>, 3> starts;
  std::array<std::vector<std::int64_t>, 3> ends;
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const auto extents = config_.tile_extents(d);
    std::int64_t cursor = plan.box.lo[ds];
    for (const std::int64_t e : extents) {
      starts[ds].push_back(std::min(cursor, plan.box.hi[ds]));
      cursor += e;
      ends[ds].push_back(std::min(cursor, plan.box.hi[ds]));
    }
  }

  int kernel_index = 0;
  for (int t0 = 0; t0 < config_.parallelism[0]; ++t0) {
    for (int t1 = 0; t1 < config_.parallelism[1]; ++t1) {
      for (int t2 = 0; t2 < config_.parallelism[2]; ++t2) {
        TilePlacement tile;
        tile.coord = {t0, t1, t2};
        tile.kernel_index = kernel_index++;
        const std::array<int, 3> coords{t0, t1, t2};
        for (int d = 0; d < 3; ++d) {
          const auto ds = static_cast<std::size_t>(d);
          const auto c = static_cast<std::size_t>(coords[ds]);
          tile.box.lo[ds] = starts[ds][c];
          tile.box.hi[ds] = ends[ds][c];
          // A face is exterior when it lies on the region boundary — by
          // tile coordinate, or because clipping in a remainder region
          // left no sibling beyond it to feed the halo pipes.
          tile.exterior[ds][0] = coords[ds] == 0 ||
                                 tile.box.lo[ds] <= plan.box.lo[ds];
          tile.exterior[ds][1] = coords[ds] == config_.parallelism[ds] - 1 ||
                                 tile.box.hi[ds] >= plan.box.hi[ds];
        }
        if (tile.box.empty()) {
          // An empty tile exchanges nothing; marking every face exterior
          // keeps the pipe wiring symmetric with its clipped neighbors.
          for (auto& flags : tile.exterior) flags = {true, true};
        }
        plan.tiles.push_back(tile);
      }
    }
  }
  return plan;
}

std::vector<RegionPlan> RegionGrid::all_regions() const {
  std::vector<RegionPlan> out;
  out.reserve(static_cast<std::size_t>(regions_per_pass_));
  const Box grid = program_->grid_box();
  for (std::int64_t i0 = 0; i0 < region_counts_[0]; ++i0) {
    for (std::int64_t i1 = 0; i1 < region_counts_[1]; ++i1) {
      for (std::int64_t i2 = 0; i2 < region_counts_[2]; ++i2) {
        std::array<std::int64_t, 3> lo;
        std::array<std::int64_t, 3> extent;
        const std::array<std::int64_t, 3> idx{i0, i1, i2};
        for (int d = 0; d < 3; ++d) {
          const auto ds = static_cast<std::size_t>(d);
          const std::int64_t r = config_.region_extent(d);
          lo[ds] = idx[ds] * r;
          extent[ds] = std::min(r, grid.extent(d) - lo[ds]);
        }
        out.push_back(make_region(lo, extent));
      }
    }
  }
  return out;
}

std::vector<RegionGrid::ShapeCount> RegionGrid::distinct_shapes() const {
  std::vector<ShapeCount> out;
  for (const SegmentClass& c0 : classes_[0]) {
    for (const SegmentClass& c1 : classes_[1]) {
      for (const SegmentClass& c2 : classes_[2]) {
        ShapeCount sc;
        sc.count = c0.count * c1.count * c2.count;
        sc.plan = make_region({c0.lo, c1.lo, c2.lo},
                              {c0.extent, c1.extent, c2.extent});
        out.push_back(std::move(sc));
      }
    }
  }
  return out;
}

std::vector<RegionGrid::WaveSlot> RegionGrid::wave_slots(
    SlotUnit unit) const {
  const bool by_shape = unit == SlotUnit::kShape;
  const auto replicas = static_cast<std::size_t>(config_.replication);
  // Each dimension's sweep as slots of its own: what each replica indexes
  // there. Only the replicated dimension differs (row p*waves + w).
  std::array<std::vector<WaveSlot>, 3> steps;
  std::array<std::int64_t, 3> sizes{};
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const bool replicated = d == replication_dim_;
    sizes[ds] = by_shape ? std::ssize(classes_[ds]) : region_counts_[ds];
    for (std::int64_t i = 0; i < (replicated ? waves_ : sizes[ds]); ++i) {
      WaveSlot step{std::vector<std::int64_t>(replicas, i), 1};
      if (by_shape && !replicated) {
        step.count = classes_[ds][static_cast<std::size_t>(i)].count;
      }
      for (std::size_t p = 0; replicated && p < replicas; ++p) {
        const std::int64_t row = static_cast<std::int64_t>(p) * waves_ + i;
        step.runs[p] = row >= region_counts_[ds] ? -1
                       : by_shape ? class_of_[ds][static_cast<std::size_t>(row)]
                                  : row;
      }
      const auto same =
          by_shape ? std::find_if(steps[ds].begin(), steps[ds].end(),
                                  [&](const WaveSlot& s) {
                                    return s.runs == step.runs;
                                  })
                   : steps[ds].end();
      if (same != steps[ds].end()) {
        same->count += step.count;
      } else {
        steps[ds].push_back(std::move(step));
      }
    }
  }

  std::vector<WaveSlot> out;
  for (const WaveSlot& s0 : steps[0]) {
    for (const WaveSlot& s1 : steps[1]) {
      for (const WaveSlot& s2 : steps[2]) {
        WaveSlot& slot = out.emplace_back(
            WaveSlot{std::vector<std::int64_t>(replicas, -1),
                     s0.count * s1.count * s2.count});
        for (std::size_t p = 0; p < replicas; ++p) {
          if (std::min({s0.runs[p], s1.runs[p], s2.runs[p]}) < 0) continue;
          slot.runs[p] =
              (s0.runs[p] * sizes[1] + s1.runs[p]) * sizes[2] + s2.runs[p];
        }
      }
    }
  }
  return out;
}

}  // namespace scl::sim
