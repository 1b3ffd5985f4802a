// Randomized end-to-end property tests.
//
// For dozens of seeds, construct a random-but-valid stencil program
// (random dimensionality, field count, stage graph, axis-aligned offsets
// up to radius 8 on grids wide enough to hold them, contraction-bounded
// coefficients) and a random design point on a random device: the family
// (pipe-tiling or temporal-shift), the replication factor R from 1 up to
// the device's bank count, and the family's own knobs (kind, fusion
// depth, parallelism, tile or strip sizes, balancing). Then require:
//
//   * the functionally-simulated accelerator matches the golden reference
//     executor bit-exactly on every field;
//   * the timing-only fast path reports the functional run's clock;
//   * the replica wave schedule never gets longer as R grows.
//
// This sweeps corners the hand-written tests cannot enumerate: wide halos
// and strips, asymmetric per-side radii, stages reading fields written
// later in the iteration (cross-iteration versions through the pipes),
// constant fields, zero-radius stages, remainder regions and passes, idle
// replicas past the grid edge, and all combinations thereof.
#include <gtest/gtest.h>

#include "arch/family.hpp"
#include "fpga/device.hpp"
#include "sim/executor.hpp"
#include "stencil/formula.hpp"
#include "stencil/parser.hpp"
#include "stencil/reference.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace scl::sim {
namespace {

using scl::stencil::Field;
using scl::stencil::Index;
using scl::stencil::Offset;
using scl::stencil::Stage;
using scl::stencil::StencilProgram;

std::string offset_text(const Offset& off, int dims) {
  std::vector<std::string> parts;
  for (int d = 0; d < dims; ++d) {
    parts.push_back(std::to_string(off[static_cast<std::size_t>(d)]));
  }
  return "(" + scl::join(parts, ",") + ")";
}

StencilProgram random_program(scl::Rng& rng) {
  const int dims = static_cast<int>(rng.uniform_int(1, 3));
  const int field_count = static_cast<int>(rng.uniform_int(1, 3));
  const int stage_count =
      static_cast<int>(rng.uniform_int(1, field_count));

  // Mostly radius <= 2, one program in four up to 8 (wide halos and
  // strips); every extent leaves an interior beyond both halos.
  const int max_r = rng.uniform_int(0, 3) == 0
                        ? static_cast<int>(rng.uniform_int(3, 8))
                        : 2;
  std::array<std::int64_t, 3> extents{1, 1, 1};
  for (int d = 0; d < dims; ++d) {
    extents[static_cast<std::size_t>(d)] =
        rng.uniform_int(2 * max_r + 6, 2 * max_r + 16);
  }
  const std::int64_t iterations = rng.uniform_int(3, 7);

  std::vector<std::string> names;
  std::vector<Field> fields;
  for (int f = 0; f < field_count; ++f) {
    names.push_back(scl::str_cat("f", f));
    fields.push_back(scl::stencil::make_field(
        names.back(),
        scl::str_cat("affine ", rng.uniform_int(1, 9), " ",
                     rng.uniform_int(1, 9), " ", rng.uniform_int(1, 9), " ",
                     rng.uniform_int(0, 9), " ", rng.uniform_int(31, 97))));
  }

  // Distinct output fields (a field is written by at most one stage);
  // remaining fields stay constant.
  std::vector<int> outputs;
  for (int f = 0; f < field_count; ++f) outputs.push_back(f);
  for (int f = field_count - 1; f > 0; --f) {
    std::swap(outputs[static_cast<std::size_t>(f)],
              outputs[static_cast<std::size_t>(rng.uniform_int(0, f))]);
  }

  std::vector<Stage> stages;
  for (int s = 0; s < stage_count; ++s) {
    const int terms = static_cast<int>(rng.uniform_int(2, 5));
    // Contraction-bounded coefficients keep every field finite forever,
    // so float comparisons never meet NaN.
    const double budget = 0.95 / terms;
    std::vector<std::string> parts;
    for (int t = 0; t < terms; ++t) {
      const int field = static_cast<int>(rng.uniform_int(0, field_count - 1));
      Offset off{0, 0, 0};
      const int axis = static_cast<int>(rng.uniform_int(0, dims - 1));
      off[static_cast<std::size_t>(axis)] =
          static_cast<int>(rng.uniform_int(-max_r, max_r));
      const double coeff =
          budget * rng.uniform_double(0.3, 1.0) *
          (rng.uniform_int(0, 4) == 0 ? -1.0 : 1.0);
      parts.push_back(scl::str_cat(scl::format_fixed(coeff, 4), "f * $",
                                   names[static_cast<std::size_t>(field)],
                                   offset_text(off, dims)));
    }
    stages.push_back(scl::stencil::make_stage(
        scl::str_cat("s", s), outputs[static_cast<std::size_t>(s)],
        scl::join(parts, " + "), names, dims));
  }

  return StencilProgram(scl::str_cat("random", rng.next_u64() % 1000), dims,
                        extents, iterations, std::move(fields),
                        std::move(stages));
}

DesignConfig random_tiling_config(scl::Rng& rng,
                                  const StencilProgram& program) {
  DesignConfig c;
  c.kind = rng.uniform_int(0, 1) == 0 ? DesignKind::kBaseline
                                      : DesignKind::kHeterogeneous;
  c.fused_iterations =
      rng.uniform_int(1, std::min<std::int64_t>(4, program.iterations()));
  c.unroll = static_cast<int>(rng.uniform_int(1, 4));
  for (int d = 0; d < program.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    c.parallelism[ds] = static_cast<int>(rng.uniform_int(1, 3));
    c.tile_size[ds] = rng.uniform_int(3, program.grid_box().extent(d));
    if (c.kind == DesignKind::kHeterogeneous && c.parallelism[ds] >= 3 &&
        c.tile_size[ds] > 2 && rng.uniform_int(0, 1) == 1) {
      c.edge_shrink[ds] = rng.uniform_int(1, 2);
    }
  }
  return c;
}

/// One deep cascade over full-extent strips along the last dimension; the
/// temporal degree divides the iteration count.
DesignConfig random_temporal_config(scl::Rng& rng,
                                    const StencilProgram& program) {
  DesignConfig c;
  c.family = arch::DesignFamily::kTemporalShift;
  do {
    c.fused_iterations =
        rng.uniform_int(1, std::min<std::int64_t>(4, program.iterations()));
  } while (program.iterations() % c.fused_iterations != 0);
  c.unroll = static_cast<int>(rng.uniform_int(1, 4));
  const int sd = program.dims() - 1;
  for (int d = 0; d < sd; ++d) {
    c.tile_size[static_cast<std::size_t>(d)] = program.grid_box().extent(d);
  }
  c.tile_size[static_cast<std::size_t>(sd)] =
      rng.uniform_int(1, program.grid_box().extent(sd));
  return c;
}

DesignConfig random_config(scl::Rng& rng, const StencilProgram& program,
                           const fpga::DeviceSpec& device) {
  const bool temporal = rng.uniform_int(0, 1) == 1;
  const int replication =
      static_cast<int>(rng.uniform_int(1, device.memory.banks));
  for (int attempt = 0; attempt < 64; ++attempt) {
    DesignConfig c = temporal ? random_temporal_config(rng, program)
                              : random_tiling_config(rng, program);
    c.replication = replication;
    try {
      c.validate(program);
      return c;
    } catch (const scl::Error&) {
      continue;  // rare: shrink constraints; re-roll
    }
  }
  throw scl::Error("could not draw a valid random config");
}

/// Wave slots per pass of the replica schedule.
std::int64_t slots_per_pass(const StencilProgram& program,
                            const DesignConfig& config) {
  std::int64_t slots = 0;
  for (const auto& slot : RegionGrid(program, config).wave_slots(
           RegionGrid::SlotUnit::kShape)) {
    slots += slot.count;
  }
  return slots;
}

class RandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProperty, TiledDesignsMatchReferenceBitExact) {
  scl::Rng rng(GetParam());
  const StencilProgram program = random_program(rng);
  const fpga::DeviceSpec device = fpga::find_device(
      rng.uniform_int(0, 1) == 0 ? "xc7vx690t" : "xcu280");
  const DesignConfig config = random_config(rng, program, device);

  SCOPED_TRACE(scl::str_cat("program: ", program.name(), " dims ",
                            program.dims(), " stages ", program.stage_count(),
                            " | ", arch::to_string(config.family), " ",
                            config.summary(program.dims()), " R ",
                            config.replication, " on ", device.name));

  const Executor exec(device);
  const SimResult result =
      exec.run(program, config, SimMode::kFunctional);
  ASSERT_TRUE(result.fields.has_value());

  scl::stencil::ReferenceExecutor ref(program);
  ref.run(program.iterations());
  for (int f = 0; f < program.field_count(); ++f) {
    std::int64_t mismatches = 0;
    scl::stencil::for_each_cell(program.grid_box(), [&](const Index& p) {
      if ((*result.fields)[static_cast<std::size_t>(f)].at(p) !=
          ref.field(f).at(p)) {
        ++mismatches;
      }
    });
    EXPECT_EQ(mismatches, 0) << "field " << f;
  }

  // The timing fast path must agree with the functional run's clock.
  const SimResult timing = exec.run(program, config, SimMode::kTimingOnly);
  EXPECT_EQ(timing.total_cycles, result.total_cycles);
  EXPECT_EQ(timing.phases.total(), result.phases.total());

  // More replicas never lengthen the wave schedule, up to the widest HBM
  // part's bank count.
  DesignConfig wider = config;
  wider.replication = 1;
  std::int64_t previous = slots_per_pass(program, wider);
  for (++wider.replication; wider.replication <= 32; ++wider.replication) {
    const std::int64_t slots = slots_per_pass(program, wider);
    EXPECT_LE(slots, previous) << "R " << wider.replication;
    previous = slots;
  }
}

TEST_P(RandomProperty, RoundTripThroughStencilFormat) {
  scl::Rng rng(GetParam() ^ 0x9E3779B97F4A7C15ULL);
  const StencilProgram program = random_program(rng);
  const StencilProgram reparsed =
      scl::stencil::parse_program(scl::stencil::program_to_text(program));
  scl::stencil::ReferenceExecutor a(program);
  scl::stencil::ReferenceExecutor b(reparsed);
  a.run(program.iterations());
  b.run(program.iterations());
  for (int f = 0; f < program.field_count(); ++f) {
    EXPECT_TRUE(a.field(f).equals_on(b.field(f), program.grid_box()))
        << "field " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProperty,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace scl::sim
