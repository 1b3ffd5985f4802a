#include "sim/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "arch/temporal_layout.hpp"
#include "fpga/hls.hpp"
#include "ocl/memory.hpp"
#include "ocl/pipe.hpp"
#include "ocl/runtime.hpp"
#include "support/error.hpp"
#include "support/observability/observability.hpp"
#include "support/strings.hpp"

namespace scl::sim {

using scl::stencil::Face;
using scl::stencil::FieldSet;
using scl::stencil::StencilProgram;

Executor::RegionOutcome Executor::run_region(
    const StencilProgram& program, const DesignConfig& config,
    const StepTables& tables, const RegionPlan& plan,
    std::int64_t pass_iterations, SimMode mode, const FieldSet* global_in,
    FieldSet* global_out, std::vector<TraceEvent>* trace) const {
  // One region is executed by one replica; its memory channel is the
  // replica's share of the (possibly banked) device bandwidth. Exact
  // no-op at R=1 on single-bank parts.
  ocl::GlobalMemory memory(device_.replica_bytes_per_cycle(config.replication),
                           device_.mem_port_bytes_per_cycle);

  // The baseline design has no pipes: every tile computes an independent
  // overlapped cone, so all faces behave as region-exterior.
  std::vector<TilePlacement> tiles = plan.tiles;
  if (config.kind == DesignKind::kBaseline) {
    for (TilePlacement& t : tiles) {
      for (auto& dim_flags : t.exterior) dim_flags = {true, true};
    }
  }

  // Index tiles by coordinate for neighbor lookup.
  auto coord_key = [&](int c0, int c1, int c2) {
    return (c0 * config.parallelism[1] + c1) * config.parallelism[2] + c2;
  };
  std::vector<const TilePlacement*> by_coord(
      static_cast<std::size_t>(config.total_kernels()), nullptr);
  for (const TilePlacement& t : tiles) {
    by_coord[static_cast<std::size_t>(
        coord_key(t.coord[0], t.coord[1], t.coord[2]))] = &t;
  }
  // The sibling across `t`'s interior face (d, side).
  auto neighbor = [&](const TilePlacement& t, std::size_t ds,
                      int side) -> const TilePlacement& {
    std::array<int, 3> nc = t.coord;
    nc[ds] += side == 0 ? -1 : +1;
    return *by_coord[static_cast<std::size_t>(coord_key(nc[0], nc[1], nc[2]))];
  };

  // One directed pipe per (tile, interior face) of the heterogeneous
  // design, indexed by kernel * 6 + face id, with the boxes of the strips
  // it carries. FIFOs are sized to hold at least the widest strip so the
  // symmetric send phases cannot deadlock.
  struct Link {
    std::unique_ptr<ocl::Pipe> pipe;
    StripBoxes strips;
  };
  std::vector<Link> links;
  auto link_of = [&](int kernel, int d, int side) -> Link& {
    return links[static_cast<std::size_t>(kernel * 6 + d * 2 + side)];
  };
  if (config.kind == DesignKind::kHeterogeneous) {
    links.resize(static_cast<std::size_t>(config.total_kernels() * 6));
    for (const TilePlacement& t : tiles) {
      for (int d = 0; d < program.dims(); ++d) {
        const auto ds = static_cast<std::size_t>(d);
        for (int side = 0; side < 2; ++side) {
          if (t.exterior[ds][static_cast<std::size_t>(side)]) continue;
          const TilePlacement& nb = neighbor(t, ds, side);
          const Face face{d, side == 0 ? -1 : +1};
          const std::int64_t strip =
              max_face_strip_elements(program, t, nb, face, pass_iterations);
          const std::int64_t depth =
              std::max(device_.pipe_fifo_depth, strip);
          Link& link = link_of(t.kernel_index, d, side);
          link.pipe = std::make_unique<ocl::Pipe>(
              str_cat("pipe_k", t.kernel_index, "_d", d, side == 0 ? "n" : "p"),
              depth, device_.pipe_cycles_per_element);
          // The receiver sees this face mirrored.
          link.strips = pipe_strip_boxes(program, nb, t, Face{d, -face.dir},
                                         pass_iterations);
        }
      }
    }
  }

  ocl::Runtime runtime;
  std::vector<std::shared_ptr<TileTask>> tasks;
  for (const TilePlacement& t : tiles) {
    TileTaskParams params;
    params.program = &program;
    params.tables = &tables;
    params.mode = mode;
    params.kind = config.kind;
    params.tile = t;
    params.fused_iterations = pass_iterations;
    params.launch_offset =
        (t.kernel_index + 1) * device_.kernel_launch_cycles;
    params.memory = &memory;
    params.memory_sharers = static_cast<int>(config.total_kernels());
    params.latency_hiding = tuning_.latency_hiding;
    params.trace = trace;
    params.global_in = global_in;
    params.global_out = global_out;
    if (config.kind == DesignKind::kHeterogeneous) {
      for (int d = 0; d < program.dims(); ++d) {
        const auto ds = static_cast<std::size_t>(d);
        for (int side = 0; side < 2; ++side) {
          const auto ss = static_cast<std::size_t>(side);
          if (t.exterior[ds][ss]) continue;
          const Link& out = link_of(t.kernel_index, d, side);
          // My incoming pipe across this face is the neighbor's outgoing
          // pipe across the mirrored face.
          const Link& in = link_of(neighbor(t, ds, side).kernel_index, d,
                                   side == 0 ? 1 : 0);
          params.out_pipes[ds][ss] = out.pipe.get();
          params.out_strips[ds][ss] = &out.strips;
          params.in_pipes[ds][ss] = in.pipe.get();
          params.in_strips[ds][ss] = &in.strips;
        }
      }
    }
    auto task = std::make_shared<TileTask>(std::move(params));
    tasks.push_back(task);
    runtime.add_task(task);
  }

  runtime.run_all();

  RegionOutcome outcome;
  outcome.cycles = runtime.completion_cycles();
  for (const auto& task : tasks) {
    PhaseBreakdown p = task->phases();
    p.barrier_wait = outcome.cycles - task->clock();
    outcome.phases += p;
    outcome.cells_owned += task->cells_owned();
    outcome.cells_redundant += task->cells_redundant();
  }
  for (const Link& link : links) {
    if (link.pipe != nullptr) {
      outcome.pipe_elements += link.pipe->total_written();
    }
  }
  outcome.bytes = memory.total_bytes();
  return outcome;
}

void Executor::accumulate_waves(
    const std::vector<RegionGrid::WaveSlot>& slots,
    const std::vector<RegionOutcome>& outcomes, std::int64_t passes,
    SimResult* result) {
  for (const RegionGrid::WaveSlot& slot : slots) {
    const std::int64_t times = slot.count * passes;
    const RegionOutcome* slowest = nullptr;
    for (const std::int64_t run : slot.runs) {
      if (run < 0) continue;
      const RegionOutcome& o = outcomes[static_cast<std::size_t>(run)];
      if (slowest == nullptr || o.cycles > slowest->cycles) slowest = &o;
      result->cells_owned += o.cells_owned * times;
      result->cells_redundant += o.cells_redundant * times;
      result->pipe_elements += o.pipe_elements * times;
      result->global_memory_bytes += o.bytes * times;
    }
    result->total_cycles += slowest->cycles * times;
    result->phases += slowest->phases * times;
  }
}

SimResult Executor::run_temporal(const StencilProgram& program,
                                 const DesignConfig& config,
                                 SimMode mode) const {
  const arch::TemporalLayout layout =
      arch::make_temporal_layout(program, config);
  const RegionGrid grid(program, config);
  SimResult result;
  result.region_executions = grid.total_region_executions();

  // Walk timing. The cascade's stage groups are separate pipeline
  // stations, so the walk advances at the *max* per-stage II; V cells
  // enter per tick. The emitted kernel walks the full padded strip no
  // matter how the grid clipped the strip's owned box (stores clamp into
  // the owned box instead of shortening the loop), so compute and
  // transfer volumes are identical for every region execution.
  std::int64_t ii_walk = 1;
  for (int s = 0; s < program.stage_count(); ++s) {
    ii_walk = std::max(
        ii_walk, fpga::estimate_stage(program.stage(s), config.unroll).ii);
  }
  const std::int64_t fill_drain =
      fpga::estimate_program(program, config.unroll).depth;
  const std::int64_t comp =
      ii_walk * (ceil_div(layout.cells,
                          static_cast<std::int64_t>(layout.vector_width)) +
                 layout.max_store_delay);
  const double bw_share =
      std::min(device_.mem_port_bytes_per_cycle,
               device_.replica_bytes_per_cycle(config.replication));
  const std::int64_t read_bytes =
      layout.cells * program.field_count() * StencilProgram::element_bytes();
  const std::int64_t write_bytes = layout.owned_cells *
                                   program.mutable_field_count() *
                                   StencilProgram::element_bytes();
  const auto mem = static_cast<std::int64_t>(
      std::ceil(static_cast<double>(read_bytes + write_bytes) / bw_share));
  const std::int64_t walk = comp + fill_drain;
  const std::int64_t exposed = std::max<std::int64_t>(0, mem - comp);
  RegionOutcome strip;  // every strip execution; only the owned box varies
  strip.cycles =
      device_.kernel_launch_cycles + std::max(comp, mem) + fill_drain;
  strip.bytes = read_bytes + write_bytes;
  strip.phases.launch = device_.kernel_launch_cycles;
  strip.phases.mem_read =
      exposed * read_bytes / std::max<std::int64_t>(1, strip.bytes);
  strip.phases.mem_write = exposed - strip.phases.mem_read;

  std::vector<RegionOutcome> outcomes;
  for (const auto& shape : grid.distinct_shapes()) {
    RegionOutcome& o = outcomes.emplace_back(strip);
    o.cells_owned = shape.plan.box.volume();
    o.cells_redundant = layout.cells - o.cells_owned;
    o.phases.compute_own =
        layout.cells > 0 ? walk * o.cells_owned / layout.cells : walk;
    o.phases.compute_redundant = walk - o.phases.compute_own;
  }
  accumulate_waves(grid.wave_slots(RegionGrid::SlotUnit::kShape), outcomes,
                   grid.passes(), &result);

  if (mode == SimMode::kFunctional) {
    // The cascade applies exactly the reference update schedule (taps read
    // the previous committed state, boundary cells pass through), so the
    // spatial twin — a single-tile baseline over the same strips — yields
    // bit-identical field contents.
    result.fields =
        run_pipe_tiling(program, arch::spatial_twin(config), mode).fields;
  }
  return result;
}

RegionTrace Executor::trace_region(const StencilProgram& program,
                                   const DesignConfig& config) const {
  SCL_CHECK(config.family == arch::DesignFamily::kPipeTiling,
            "trace_region models the pipe-tiling family; the temporal "
            "cascade has no per-kernel event timeline");
  const RegionGrid grid(program, config);
  // Prefer the most common shape (the interior, full-size region).
  const auto shapes = grid.distinct_shapes();
  SCL_CHECK(!shapes.empty(), "no regions to trace");
  const auto pick = std::max_element(
      shapes.begin(), shapes.end(),
      [](const auto& a, const auto& b) { return a.count < b.count; });
  const StepTables tables(program, config.unroll);
  RegionTrace trace;
  const RegionOutcome outcome = run_region(
      program, config, tables, pick->plan, config.fused_iterations,
      SimMode::kTimingOnly, nullptr, nullptr, &trace.events);
  trace.region_cycles = outcome.cycles;
  return trace;
}

SimResult Executor::run_pipe_tiling(const StencilProgram& program,
                                    const DesignConfig& config,
                                    SimMode mode) const {
  const RegionGrid grid(program, config);
  const StepTables tables(program, config.unroll);
  SimResult result;
  result.region_executions = grid.total_region_executions();

  const bool functional = mode == SimMode::kFunctional;
  std::vector<RegionPlan> plans;
  if (functional) {
    plans = grid.all_regions();
  } else {
    for (auto& shape : grid.distinct_shapes()) {
      plans.push_back(std::move(shape.plan));
    }
  }
  const auto slots = grid.wave_slots(functional ? RegionGrid::SlotUnit::kRegion
                                                : RegionGrid::SlotUnit::kShape);
  FieldSet current = functional ? scl::stencil::make_initial_state(
                                      program, program.grid_box())
                                : FieldSet{};
  FieldSet next = current;
  // Timing-only runs the full-length passes once and repeats them.
  const std::int64_t full_passes =
      grid.passes() -
      (grid.last_pass_iterations() == config.fused_iterations ? 0 : 1);
  std::vector<RegionOutcome> outcomes(plans.size());
  for (std::int64_t pass = 0; pass < grid.passes();) {
    const bool full = pass < full_passes;
    const std::int64_t h =
        full ? config.fused_iterations : grid.last_pass_iterations();
    const std::int64_t repeat = full && !functional ? full_passes : 1;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      outcomes[i] = run_region(program, config, tables, plans[i], h, mode,
                               functional ? &current : nullptr,
                               functional ? &next : nullptr);
    }
    accumulate_waves(slots, outcomes, repeat, &result);
    std::swap(current, next);
    pass += repeat;
  }
  if (functional) result.fields = std::move(current);
  return result;
}

SimResult Executor::run(const StencilProgram& program,
                        const DesignConfig& config, SimMode mode) const {
  const auto span = support::obs::tracer().span("sim/run", "sim");
  const auto sim_start = std::chrono::steady_clock::now();
  SimResult result = config.family == arch::DesignFamily::kTemporalShift
                         ? run_temporal(program, config, mode)
                         : run_pipe_tiling(program, config, mode);
  result.total_ms =
      device_.cycles_to_ms(static_cast<double>(result.total_cycles));
  if (support::obs::enabled()) {
    // Simulator wall time next to the modeled device cycles: the gap
    // between "how long the simulation took" and "how long the design
    // would run" is the simulator's own overhead, the analogue of the
    // paper's predicted-vs-measured comparison for our pipeline.
    static auto& runs = support::obs::metrics().counter(
        "scl_sim_runs_total", "device simulations executed");
    static auto& modeled = support::obs::metrics().counter(
        "scl_sim_modeled_cycles_total",
        "device cycles accumulated by the discrete-event simulation");
    static auto& wall = support::obs::metrics().histogram(
        "scl_sim_wall_ms", support::obs::default_latency_ms_buckets(),
        "host wall time of one simulation run");
    runs.increment();
    modeled.add(result.total_cycles);
    wall.observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - sim_start)
                     .count());
  }
  return result;
}

}  // namespace scl::sim
