#include "model/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/temporal_layout.hpp"
#include "fpga/hls.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace scl::model {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::stencil::StencilProgram;

/// Static per-kernel geometry: balanced tile extents plus which sides see
/// cone expansion (exterior) vs pipe halos (shared).
struct PerfModel::KernelGeometry {
  std::array<double, 3> extent{1.0, 1.0, 1.0};
  /// Per dim/side: cone radius on that side (0 for pipe-shared sides).
  std::array<std::array<double, 2>, 3> cone_radius{};
  /// Per dim/side: true when the side exchanges strips through a pipe.
  std::array<std::array<bool, 2>, 3> shared{};
};

PerfModel::PerfModel(const StencilProgram& program, fpga::DeviceSpec device,
                     ConeMode mode)
    : program_(&program), device_(std::move(device)), mode_(mode) {
  // The pipe-face radii depend only on the program: which mutable fields
  // a stage reads toward each face, and how far its output reaches out
  // of the opposite one. Derive them once instead of per prediction.
  face_radii_.resize(static_cast<std::size_t>(program.stage_count()));
  for (int s = 0; s < program.stage_count(); ++s) {
    const scl::stencil::Stage& stage = program.stage(s);
    StageFaceRadii& faces = face_radii_[static_cast<std::size_t>(s)];
    for (int d = 0; d < program.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (int side = 0; side < 2; ++side) {
        const auto ss = static_cast<std::size_t>(side);
        for (int f = 0; f < program.field_count(); ++f) {
          if (program.is_constant_field(f)) continue;
          const bool read_toward = std::any_of(
              stage.reads.begin(), stage.reads.end(), [&](const auto& read) {
                const int off = read.offset[ds];
                return read.field == f &&
                       ((side == 0 && off < 0) || (side == 1 && off > 0));
              });
          if (read_toward) {
            faces.recv[ds][ss].push_back(
                static_cast<double>(program.field_read_radii(f)[ds][ss]));
          }
        }
        faces.send[ds][ss] = static_cast<double>(
            program.field_read_radii(stage.output_field)[ds][1 - ss]);
      }
    }
  }
}

void PerfModel::accumulate_kernel(const DesignConfig& config,
                                  const KernelGeometry& geo,
                                  const std::vector<double>& stage_cpe,
                                  Prediction* out) const {
  const StencilProgram& prog = *program_;
  // C_element over a full iteration: every stage touches every cell once,
  // so the per-cell cost is the sum of the per-stage IIs over N_PE. The
  // per-stage II / N_PE arrive precomputed in `stage_cpe` (see predict()).
  const double h = static_cast<double>(config.fused_iterations);
  const double k = static_cast<double>(config.total_kernels());
  // Fair share of the replica's bank-group bandwidth, capped by the
  // kernel's own AXI-master ceiling. At R = 1 on a single-bank device
  // replica_bytes_per_cycle is exactly mem_bytes_per_cycle, so the DDR
  // expression is unchanged bit for bit.
  const double bw_share =
      std::min(device_.mem_port_bytes_per_cycle,
               device_.replica_bytes_per_cycle(config.replication) / k);
  const double bytes = StencilProgram::element_bytes();
  const double cpipe = static_cast<double>(device_.pipe_cycles_per_element);

  // --- Eq. 5/6: burst global-memory transfers -----------------------------
  double read_cells = 1.0;
  double write_cells = 1.0;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    double margin = 0.0;
    for (int side = 0; side < 2; ++side) {
      const auto ss = static_cast<std::size_t>(side);
      margin += geo.cone_radius[ds][ss] * h;
      if (geo.shared[ds][ss]) {
        margin += static_cast<double>(prog.max_stage_radii()[ds][ss]);
      }
    }
    read_cells *= geo.extent[ds] + margin;
    write_cells *= geo.extent[ds];
  }
  const double l_read =
      read_cells * static_cast<double>(prog.field_count()) * bytes / bw_share;
  const double l_write = write_cells *
                         static_cast<double>(prog.mutable_field_count()) *
                         bytes / bw_share;
  const double l_mem = l_read + l_write;

  // --- Eq. 7-11: fused compute with pipe overlap ---------------------------
  //
  // Per-stage accounting: every stage walks the iteration's cells once at
  // its own II, receives the boundary strips its dependent cells read
  // (waiting for the last element of the slowest pipe, less the stage's
  // own independent computation that runs meanwhile), and pushes its
  // output strips (hidden behind the same computation, Eq. 11).
  double l_comp = 0.0;
  double l_share_exposed = 0.0;
  double l_iter_sum = 0.0;
  // The pipe-shared faces as (dim, side), in dimension-then-side order.
  std::array<std::array<std::size_t, 2>, 6> shared_faces{};
  std::size_t n_shared = 0;
  for (std::size_t d = 0; d < static_cast<std::size_t>(prog.dims()); ++d) {
    for (std::size_t side = 0; side < 2; ++side) {
      if (geo.shared[d][side]) shared_faces[n_shared++] = {d, side};
    }
  }
  for (std::int64_t i = 1; i <= config.fused_iterations; ++i) {
    const double remaining = h - static_cast<double>(i);
    std::array<double, 3> iter_extent{1.0, 1.0, 1.0};
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      iter_extent[ds] =
          geo.extent[ds] + (geo.cone_radius[ds][0] + geo.cone_radius[ds][1]) *
                               remaining;
    }
    double cells = 1.0;
    for (int d = 0; d < prog.dims(); ++d) {
      cells *= iter_extent[static_cast<std::size_t>(d)];
    }

    std::array<double, 3> tangential_area{1.0, 1.0, 1.0};
    for (int d = 0; d < prog.dims(); ++d) {
      for (int t = 0; t < prog.dims(); ++t) {
        if (t != d) {
          tangential_area[static_cast<std::size_t>(d)] *=
              iter_extent[static_cast<std::size_t>(t)];
        }
      }
    }

    for (int s = 0; s < prog.stage_count(); ++s) {
      const StageFaceRadii& faces = face_radii_[static_cast<std::size_t>(s)];
      const double comp_s = stage_cpe[static_cast<std::size_t>(s)] * cells;

      // Receive tail: per shared face, the strips this stage's dependent
      // cells wait for arrive serialized at C_pipe per element; different
      // faces use different pipes, so the waits overlap (max).
      double recv_tail = 0.0;
      // Send volume: this stage's output strips (one per shared face).
      double send_elems = 0.0;
      for (std::size_t f = 0; f < n_shared; ++f) {
        const auto [ds, ss] = shared_faces[f];
        const double area = tangential_area[ds];
        double face_elems = 0.0;
        for (const double radius : faces.recv[ds][ss]) {
          face_elems += radius * area;
        }
        recv_tail = std::max(recv_tail, cpipe * face_elems);
        send_elems += faces.send[ds][ss] * area;
      }
      const double exposed = std::max(0.0, recv_tail - comp_s) +
                             std::max(0.0, cpipe * send_elems - comp_s);
      l_comp += comp_s + exposed;
      l_share_exposed += exposed;
      l_iter_sum += comp_s;
    }
  }

  const double l_tile = l_mem + l_comp;  // Eq. 3 with L_launch = 0 (§5.6)
  if (l_tile > out->l_tile) {
    out->l_tile = l_tile;
    out->l_mem = l_mem;
    out->l_comp = l_comp;
    out->l_share_exposed = l_share_exposed;
    out->lambda =
        l_iter_sum > 0.0 ? l_share_exposed / l_iter_sum : 0.0;  // Eq. 11
  }
}

Prediction PerfModel::predict(const DesignConfig& config) const {
  const StencilProgram& prog = *program_;
  config.validate(prog);

  Prediction out;
  // Eq. 2 with the H/h fix: passes times spatial regions. With spatial
  // replication the critical path sees ceil(regions/R) of them: never
  // more than the simulator's wave slots (sim/region.hpp), and exact at
  // R = 1 where ceil_div(s, 1) == s.
  std::int64_t spatial_regions = 1;
  for (int d = 0; d < prog.dims(); ++d) {
    spatial_regions *= ceil_div(prog.grid_box().extent(d),
                                config.region_extent(d));
  }
  out.n_region = ceil_div(prog.iterations(), config.fused_iterations) *
                 ceil_div(spatial_regions,
                          static_cast<std::int64_t>(config.replication));

  if (config.family == arch::DesignFamily::kTemporalShift) {
    // Temporal-shift family (Zohouri FPGA'18): one strip streams through
    // the T-deep cascade per region execution. The stage groups are
    // separate hardware stations of one pipeline, so the walk's II is the
    // *max* per-stage II, not the sum — that is the family's compute
    // advantage — and memory transfers overlap the walk (streaming), so
    // the region latency is max(L_comp, L_mem), not the sum. The walk
    // always covers the full padded strip (redundant T x radius halo),
    // which is the family's redundant-compute cost, plus the drain of the
    // deepest store.
    const arch::TemporalLayout layout =
        arch::make_temporal_layout(prog, config);
    double ii_walk = 1.0;
    for (int s = 0; s < prog.stage_count(); ++s) {
      ii_walk = std::max(
          ii_walk, static_cast<double>(
                       fpga::estimate_stage(prog.stage(s), config.unroll).ii));
    }
    const std::int64_t v = layout.vector_width;
    out.l_comp = ii_walk * static_cast<double>(ceil_div(layout.cells, v) +
                                               layout.max_store_delay);
    const double bw_share =
        std::min(device_.mem_port_bytes_per_cycle,
                 device_.replica_bytes_per_cycle(config.replication));
    const double bytes = StencilProgram::element_bytes();
    out.l_mem =
        (static_cast<double>(layout.cells * prog.field_count()) +
         static_cast<double>(layout.owned_cells *
                             prog.mutable_field_count())) *
        bytes / bw_share;
    out.l_tile = std::max(out.l_comp, out.l_mem);
    out.total_cycles = static_cast<double>(out.n_region) * out.l_tile;
    out.total_ms = device_.cycles_to_ms(out.total_cycles);
    return out;
  }

  // Per-stage cycles per cell (II / N_PE) depend only on (stage,
  // unroll): hoist them out of the kernel-position × iteration loops in
  // accumulate_kernel.
  std::vector<double> stage_cpe(static_cast<std::size_t>(prog.stage_count()));
  for (int s = 0; s < prog.stage_count(); ++s) {
    stage_cpe[static_cast<std::size_t>(s)] =
        static_cast<double>(
            fpga::estimate_stage(prog.stage(s), config.unroll).ii) /
        static_cast<double>(config.unroll);
  }

  const auto& radii = prog.iter_radii();
  if (mode_ == ConeMode::kPaperExact) {
    // Eq. 8/10 verbatim: one representative "slowest" kernel with the
    // maximum balancing factor and the full Δw expansion per dimension.
    KernelGeometry geo;
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      double fmax = 1.0;
      for (int t = 0; t < config.parallelism[ds]; ++t) {
        fmax = std::max(fmax, config.balance_factor(d, t));
      }
      geo.extent[ds] =
          static_cast<double>(config.tile_size[ds]) * fmax;
      geo.cone_radius[ds][0] = static_cast<double>(radii[ds][0]);
      geo.cone_radius[ds][1] = static_cast<double>(radii[ds][1]);
      if (config.kind == DesignKind::kHeterogeneous &&
          config.parallelism[ds] > 1) {
        geo.shared[ds][0] = geo.shared[ds][1] = true;
      }
    }
    accumulate_kernel(config, geo, stage_cpe, &out);
  } else {
    // Refined: evaluate kernel positions with their own balanced extents
    // and exterior faces, and keep the slowest (Eq. 1's max_k). Interior
    // positions beyond the first are never slower than position 1 (which
    // holds the largest balanced extent), so per dimension only the two
    // corners and the widest interior position need evaluation — this is
    // what keeps the model cheap enough to drive the design-space search.
    std::array<std::vector<std::int64_t>, 3> extents;
    std::array<std::vector<int>, 3> positions;
    for (int d = 0; d < 3; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      extents[ds] = config.tile_extents(d);
      positions[ds].push_back(0);
      if (config.parallelism[ds] > 2) positions[ds].push_back(1);
      if (config.parallelism[ds] > 1) {
        positions[ds].push_back(config.parallelism[ds] - 1);
      }
    }
    for (const int c0 : positions[0]) {
      for (const int c1 : positions[1]) {
        for (const int c2 : positions[2]) {
          const std::array<int, 3> coord{c0, c1, c2};
          KernelGeometry geo;
          for (int d = 0; d < prog.dims(); ++d) {
            const auto ds = static_cast<std::size_t>(d);
            geo.extent[ds] = static_cast<double>(
                extents[ds][static_cast<std::size_t>(coord[ds])]);
            const bool low_edge = coord[ds] == 0;
            const bool high_edge = coord[ds] == config.parallelism[ds] - 1;
            const bool pipes = config.kind == DesignKind::kHeterogeneous;
            geo.shared[ds][0] = pipes && !low_edge;
            geo.shared[ds][1] = pipes && !high_edge;
            geo.cone_radius[ds][0] =
                geo.shared[ds][0] ? 0.0 : static_cast<double>(radii[ds][0]);
            geo.cone_radius[ds][1] =
                geo.shared[ds][1] ? 0.0 : static_cast<double>(radii[ds][1]);
          }
          accumulate_kernel(config, geo, stage_cpe, &out);
        }
      }
    }
  }

  out.total_cycles = static_cast<double>(out.n_region) * out.l_tile;
  out.total_ms = device_.cycles_to_ms(out.total_cycles);
  return out;
}

}  // namespace scl::model
