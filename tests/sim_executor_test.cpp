// Functional correctness of the tiled designs against the golden reference,
// plus timing-path invariants. These are the load-bearing tests of the
// whole reproduction: if the overlapped cones, the validity calculus, or
// the pipe protocol were wrong anywhere, the bit-exact comparisons here
// would fail.
#include <gtest/gtest.h>

#include <utility>

#include "arch/family.hpp"
#include "fpga/device.hpp"
#include "golden_file.hpp"
#include "pinned_designs.hpp"
#include "sim/executor.hpp"
#include "stencil/kernels.hpp"
#include "stencil/reference.hpp"
#include "support/strings.hpp"

namespace scl::sim {
namespace {

using scl::stencil::BenchmarkInfo;
using scl::stencil::FieldSet;
using scl::stencil::ReferenceExecutor;
using scl::stencil::StencilProgram;
using scl::stencil::for_each_cell;
using scl::stencil::Index;

fpga::DeviceSpec test_device() { return fpga::virtex7_690t(); }

/// Runs `config` functionally and requires every field to match the
/// reference executor bit-exactly on the whole grid.
void expect_bit_exact(const StencilProgram& program,
                      const DesignConfig& config) {
  const Executor exec(test_device());
  const SimResult result = exec.run(program, config, SimMode::kFunctional);
  ASSERT_TRUE(result.fields.has_value());

  ReferenceExecutor ref(program);
  ref.run(program.iterations());

  for (int f = 0; f < program.field_count(); ++f) {
    std::int64_t mismatches = 0;
    Index first{-1, -1, -1};
    for_each_cell(program.grid_box(), [&](const Index& p) {
      const float got = (*result.fields)[static_cast<std::size_t>(f)].at(p);
      const float want = ref.field(f).at(p);
      if (got != want && mismatches++ == 0) first = p;
    });
    EXPECT_EQ(mismatches, 0)
        << program.name() << " field " << f << " ("
        << program.field(f).name << ") first mismatch at " << first[0] << ","
        << first[1] << "," << first[2] << " under " << config.summary(program.dims());
  }
}

DesignConfig make_config(DesignKind kind, int dims, std::int64_t h,
                         std::array<int, 3> par,
                         std::array<std::int64_t, 3> tile,
                         std::array<std::int64_t, 3> shrink = {0, 0, 0}) {
  DesignConfig c;
  c.kind = kind;
  c.fused_iterations = h;
  for (int d = 0; d < 3; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    c.parallelism[ds] = d < dims ? par[ds] : 1;
    c.tile_size[ds] = d < dims ? tile[ds] : 1;
    c.edge_shrink[ds] = d < dims ? shrink[ds] : 0;
  }
  return c;
}

// --- directed functional tests ---------------------------------------------

TEST(FunctionalTest, BaselineJacobi2dSingleTile) {
  const auto p = scl::stencil::make_jacobi2d(16, 16, 6);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 3, {1, 1, 1},
                                  {16, 16, 1}));
}

TEST(FunctionalTest, BaselineJacobi2dFourTilesFused) {
  const auto p = scl::stencil::make_jacobi2d(24, 24, 8);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 4, {2, 2, 1},
                                  {12, 12, 1}));
}

TEST(FunctionalTest, HeteroJacobi2dFourTilesFused) {
  const auto p = scl::stencil::make_jacobi2d(24, 24, 8);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 4, {2, 2, 1},
                                  {12, 12, 1}));
}

TEST(FunctionalTest, HeteroJacobi2dBalanced) {
  const auto p = scl::stencil::make_jacobi2d(32, 32, 9);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {4, 4, 1},
                                  {8, 8, 1}, {2, 2, 0}));
}

TEST(FunctionalTest, RemainderRegionsAndRemainderPass) {
  // 26 is not divisible by the region extent 16, 7 not by h=3.
  const auto p = scl::stencil::make_jacobi2d(26, 26, 7);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 3, {2, 2, 1},
                                  {8, 8, 1}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {2, 2, 1},
                                  {8, 8, 1}));
}

TEST(FunctionalTest, EmptyTilesInRemainderRegion) {
  // Second region column has extent 4 < one tile, so trailing tiles clip
  // to empty and their neighbors' faces turn exterior.
  const auto p = scl::stencil::make_jacobi2d(20, 20, 4);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 2, {2, 2, 1},
                                  {4, 4, 1}));
}

TEST(FunctionalTest, Jacobi1dDeepFusion) {
  const auto p = scl::stencil::make_jacobi1d(64, 12);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 1, 6, {4, 1, 1},
                                  {8, 1, 1}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 1, 6, {4, 1, 1},
                                  {8, 1, 1}));
}

TEST(FunctionalTest, Jacobi3dBothDesigns) {
  const auto p = scl::stencil::make_jacobi3d(12, 12, 12, 4);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 3, 2, {2, 2, 2},
                                  {6, 6, 6}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 3, 2, {2, 2, 2},
                                  {6, 6, 6}));
}

TEST(FunctionalTest, HotspotConstantPowerField) {
  const auto p = scl::stencil::make_hotspot2d(20, 20, 6);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {2, 2, 1},
                                  {10, 10, 1}));
}

TEST(FunctionalTest, MultiStageFdtd2d) {
  const auto p = scl::stencil::make_fdtd2d(24, 24, 6);
  expect_bit_exact(p, make_config(DesignKind::kBaseline, 2, 3, {2, 2, 1},
                                  {12, 12, 1}));
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 2, 3, {2, 2, 1},
                                  {12, 12, 1}));
}

TEST(FunctionalTest, MultiStageFdtd3d) {
  const auto p = scl::stencil::make_fdtd3d(10, 10, 10, 4);
  expect_bit_exact(p, make_config(DesignKind::kHeterogeneous, 3, 2, {2, 2, 1},
                                  {5, 5, 10}));
}

// --- property sweep over all benchmarks x design points --------------------

struct SweepCase {
  const char* benchmark;
  DesignKind kind;
  std::int64_t h;
  std::array<int, 3> par;
  std::array<std::int64_t, 3> shrink;
};

class FunctionalSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FunctionalSweep, MatchesReferenceBitExact) {
  const SweepCase& sc = GetParam();
  const BenchmarkInfo& info = scl::stencil::find_benchmark(sc.benchmark);
  // Small instance: ~18 cells per active dimension, 3..8 iterations.
  std::array<std::int64_t, 3> extents{1, 1, 1};
  std::array<std::int64_t, 3> tile{1, 1, 1};
  for (int d = 0; d < info.dims; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    extents[ds] = 18;
    tile[ds] = 18 / (2 * sc.par[ds]) * 2;  // two regions-ish per dim
    if (tile[ds] < 1) tile[ds] = 1;
  }
  const std::int64_t iterations = sc.h * 2 + 1;  // force a remainder pass
  const StencilProgram p = info.make_scaled(extents, iterations);
  expect_bit_exact(p, make_config(sc.kind, info.dims, sc.h, sc.par, tile,
                                  sc.shrink));
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  const char* benchmarks[] = {"Jacobi-1D",  "Jacobi-2D",  "Jacobi-3D",
                              "HotSpot-2D", "HotSpot-3D", "FDTD-2D",
                              "FDTD-3D"};
  for (const char* b : benchmarks) {
    const int dims = scl::stencil::find_benchmark(b).dims;
    for (const DesignKind kind :
         {DesignKind::kBaseline, DesignKind::kHeterogeneous}) {
      for (const std::int64_t h : {1, 2, 3}) {
        std::array<int, 3> par{1, 1, 1};
        for (int d = 0; d < dims; ++d) par[static_cast<std::size_t>(d)] = 2;
        cases.push_back({b, kind, h, par, {0, 0, 0}});
      }
    }
    // A balanced heterogeneous point (needs K_d >= 3).
    std::array<int, 3> par3{1, 1, 1};
    par3[0] = 3;
    cases.push_back({b, DesignKind::kHeterogeneous, 2, par3, {1, 0, 0}});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, FunctionalSweep,
                         ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& param_info) {
                           const SweepCase& sc = param_info.param;
                           std::string name = sc.benchmark;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           name += sc.kind == DesignKind::kBaseline ? "_base"
                                                                    : "_het";
                           name += "_h" + std::to_string(sc.h);
                           name += "_k" + std::to_string(sc.par[0]);
                           if (sc.shrink[0] > 0) name += "_bal";
                           return name;
                         });

// --- timing-path invariants --------------------------------------------------

TEST(TimingTest, TimingOnlyMatchesFunctionalCycleCount) {
  // Cycle accounting has no data dependence, so the timing-only fast path
  // (one representative region per shape) must reproduce the functional
  // run's total exactly.
  const auto p = scl::stencil::make_jacobi2d(26, 26, 7);
  for (const DesignKind kind :
       {DesignKind::kBaseline, DesignKind::kHeterogeneous}) {
    const DesignConfig c =
        make_config(kind, 2, 3, {2, 2, 1}, {8, 8, 1});
    const Executor exec(test_device());
    const SimResult functional = exec.run(p, c, SimMode::kFunctional);
    const SimResult timing = exec.run(p, c, SimMode::kTimingOnly);
    EXPECT_EQ(functional.total_cycles, timing.total_cycles)
        << to_string(kind);
    EXPECT_EQ(functional.cells_owned, timing.cells_owned);
    EXPECT_EQ(functional.cells_redundant, timing.cells_redundant);
    EXPECT_EQ(functional.pipe_elements, timing.pipe_elements);
    EXPECT_EQ(functional.global_memory_bytes, timing.global_memory_bytes);
  }
}

TEST(TimingTest, HeteroEliminatesIntraRegionRedundancy) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 16);
  const Executor exec(test_device());
  const DesignConfig base =
      make_config(DesignKind::kBaseline, 2, 8, {2, 2, 1}, {32, 32, 1});
  const DesignConfig het =
      make_config(DesignKind::kHeterogeneous, 2, 8, {2, 2, 1}, {32, 32, 1});
  const SimResult rb = exec.run(p, base, SimMode::kTimingOnly);
  const SimResult rh = exec.run(p, het, SimMode::kTimingOnly);
  EXPECT_LT(rh.cells_redundant, rb.cells_redundant);
  EXPECT_GT(rh.pipe_elements, 0);
  EXPECT_EQ(rb.pipe_elements, 0);
  // Owned updates are identical: every cell of every iteration.
  EXPECT_EQ(rh.cells_owned, rb.cells_owned);
}

TEST(TimingTest, HeteroBeatsBaselineOnDeepFusion) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 32);
  const Executor exec(test_device());
  const DesignConfig base =
      make_config(DesignKind::kBaseline, 2, 8, {2, 2, 1}, {16, 16, 1});
  const DesignConfig het =
      make_config(DesignKind::kHeterogeneous, 2, 8, {2, 2, 1}, {16, 16, 1});
  const SimResult rb = exec.run(p, base, SimMode::kTimingOnly);
  const SimResult rh = exec.run(p, het, SimMode::kTimingOnly);
  EXPECT_LT(rh.total_cycles, rb.total_cycles);
}

TEST(TimingTest, SingleTileDesignsTie) {
  // With one tile per region there are no pipes and no overlap to remove:
  // both designs must take exactly the same time.
  const auto p = scl::stencil::make_jacobi2d(32, 32, 8);
  const Executor exec(test_device());
  const DesignConfig base =
      make_config(DesignKind::kBaseline, 2, 4, {1, 1, 1}, {16, 16, 1});
  DesignConfig het = base;
  het.kind = DesignKind::kHeterogeneous;
  EXPECT_EQ(exec.run(p, base, SimMode::kTimingOnly).total_cycles,
            exec.run(p, het, SimMode::kTimingOnly).total_cycles);
}

TEST(TimingTest, MoreFusionReducesMemoryTraffic) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 32);
  const Executor exec(test_device());
  const DesignConfig h2 =
      make_config(DesignKind::kHeterogeneous, 2, 2, {2, 2, 1}, {16, 16, 1});
  const DesignConfig h8 =
      make_config(DesignKind::kHeterogeneous, 2, 8, {2, 2, 1}, {16, 16, 1});
  EXPECT_GT(exec.run(p, h2, SimMode::kTimingOnly).global_memory_bytes,
            exec.run(p, h8, SimMode::kTimingOnly).global_memory_bytes);
}

TEST(TimingTest, LaunchDelayAppearsInBreakdown) {
  const auto p = scl::stencil::make_jacobi2d(32, 32, 4);
  const Executor exec(test_device());
  const DesignConfig c =
      make_config(DesignKind::kBaseline, 2, 2, {2, 2, 1}, {16, 16, 1});
  const SimResult r = exec.run(p, c, SimMode::kTimingOnly);
  EXPECT_GT(r.phases.launch, 0);
  EXPECT_GT(r.phases.mem_read, 0);
  EXPECT_GT(r.phases.mem_write, 0);
  EXPECT_GT(r.phases.compute_own, 0);
  EXPECT_GT(r.phases.barrier_wait, 0);  // staggered launches leave waiters
}

TEST(TimingTest, ModestBalancingReducesBarrierWait) {
  // Needs regions with interior corners (multiple regions per pass) so the
  // edge tiles actually carry cone work that balancing can offload.
  const auto p = scl::stencil::make_jacobi2d(288, 288, 24);
  const Executor exec(test_device());
  const DesignConfig flat =
      make_config(DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1});
  const DesignConfig balanced = make_config(
      DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1}, {2, 2, 0});
  const SimResult rf = exec.run(p, flat, SimMode::kTimingOnly);
  const SimResult rb = exec.run(p, balanced, SimMode::kTimingOnly);
  EXPECT_LT(rb.phases.barrier_wait, rf.phases.barrier_wait);
  EXPECT_LT(rb.total_cycles, rf.total_cycles);
}

TEST(TimingTest, OverBalancingBackfires) {
  // Shrinking the edge tiles too far makes the grown interior tiles the
  // critical path every iteration — the optimizer must pick the factor,
  // not max it out.
  const auto p = scl::stencil::make_jacobi2d(288, 288, 24);
  const Executor exec(test_device());
  const DesignConfig modest = make_config(
      DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1}, {2, 2, 0});
  const DesignConfig extreme = make_config(
      DesignKind::kHeterogeneous, 2, 8, {3, 3, 1}, {32, 32, 1}, {12, 12, 0});
  EXPECT_LT(exec.run(p, modest, SimMode::kTimingOnly).total_cycles,
            exec.run(p, extreme, SimMode::kTimingOnly).total_cycles);
}

TEST(TimingTest, RedundancyGrowsWithDimension) {
  // The paper's explanation for why 3-D stencils gain more: cone overlap
  // grows exponentially with dimensionality.
  const Executor exec(test_device());
  const auto p2 = scl::stencil::make_jacobi2d(64, 64, 8);
  const auto p3 = scl::stencil::make_jacobi3d(16, 16, 16, 8);
  const DesignConfig c2 =
      make_config(DesignKind::kBaseline, 2, 4, {2, 2, 1}, {16, 16, 1});
  const DesignConfig c3 =
      make_config(DesignKind::kBaseline, 3, 4, {2, 2, 2}, {8, 8, 8});
  EXPECT_GT(exec.run(p3, c3, SimMode::kTimingOnly).redundancy_ratio(),
            exec.run(p2, c2, SimMode::kTimingOnly).redundancy_ratio());
}

TEST(TimingTest, PaperScaleTimingOnlyIsTractable) {
  // Jacobi-2D at the paper's full input scale (2048^2, 1024 iterations)
  // must simulate via shape-dedup in well under a second.
  const auto p = scl::stencil::make_jacobi2d(2048, 2048, 1024);
  const Executor exec(test_device());
  DesignConfig c =
      make_config(DesignKind::kBaseline, 2, 32, {4, 4, 1}, {128, 128, 1});
  c.unroll = 8;
  const SimResult r = exec.run(p, c, SimMode::kTimingOnly);
  EXPECT_GT(r.total_cycles, 0);
  EXPECT_EQ(r.region_executions, 32 * 16);
  // Every interior cell updated once per iteration.
  EXPECT_EQ(r.cells_owned, 2046ll * 2046ll * 1024ll);
}

// --- replica wave schedule ---------------------------------------------------

/// The replica probe: Jacobi-2D 64x48, 8 iterations, h = 2. Pipe-tiling
/// designs cut 4 x 3 regions of 16^2 (baseline: one 16^2 tile;
/// heterogeneous: 2x2 tiles of 8^2); the temporal cascade cuts 6 strips
/// of 8 along dimension 1.
enum class Probe { kBaseline, kHeterogeneous, kTemporal };

DesignConfig probe_config(Probe probe, int replication) {
  DesignConfig c =
      probe == Probe::kHeterogeneous
          ? make_config(DesignKind::kHeterogeneous, 2, 2, {2, 2, 1}, {8, 8, 1})
          : make_config(DesignKind::kBaseline, 2, 2, {1, 1, 1}, {16, 16, 1});
  if (probe == Probe::kTemporal) {
    c.family = arch::DesignFamily::kTemporalShift;
    c.tile_size = {64, 8, 1};
  }
  c.replication = replication;
  return c;
}

StencilProgram probe_program() {
  return scl::stencil::find_benchmark("Jacobi-2D").make_scaled({64, 48, 1},
                                                                8);
}

TEST(ReplicaWaveTest, TemporalCriticalPathFollowsTheHostWaves) {
  // The replicated host sweeps ceil(6 / R) strip waves per pass.
  const StencilProgram p = probe_program();
  const Executor exec(fpga::find_device("xcu280"));
  const std::pair<int, std::int64_t> expected[] = {
      {1, 105744}, {2, 52872}, {4, 35248}, {8, 17624}};
  for (const auto& [r, cycles] : expected) {
    const DesignConfig c = probe_config(Probe::kTemporal, r);
    EXPECT_EQ(exec.run(p, c, SimMode::kFunctional).total_cycles, cycles)
        << "R " << r;
    EXPECT_EQ(exec.run(p, c, SimMode::kTimingOnly).total_cycles, cycles)
        << "R " << r;
  }
}

TEST(ReplicaWaveTest, FunctionalAndTimingClocksAgreeAtEveryReplication) {
  const StencilProgram p = probe_program();
  const Executor exec(fpga::find_device("xcu280"));
  for (const Probe probe :
       {Probe::kBaseline, Probe::kHeterogeneous, Probe::kTemporal}) {
    for (const int r : {1, 2, 4, 8, 16}) {
      const DesignConfig c = probe_config(probe, r);
      const SimResult functional = exec.run(p, c, SimMode::kFunctional);
      const SimResult timing = exec.run(p, c, SimMode::kTimingOnly);
      SCOPED_TRACE(testing::Message() << "probe " << static_cast<int>(probe)
                                      << " R " << r);
      EXPECT_EQ(functional.total_cycles, timing.total_cycles);
      EXPECT_EQ(functional.phases.total(), timing.phases.total());
      EXPECT_EQ(functional.cells_owned, timing.cells_owned);
      EXPECT_EQ(functional.global_memory_bytes, timing.global_memory_bytes);
    }
  }
}

TEST(ReplicaWaveTest, PipeTilingGainsUntilOneWave) {
  // 4 region rows: R = 1, 2 run 4, 2 waves; from R = 4 on one wave.
  const StencilProgram p = probe_program();
  const Executor exec(fpga::find_device("xcu280"));
  auto cycles = [&](int r) {
    return exec.run(p, probe_config(Probe::kBaseline, r),
                    SimMode::kTimingOnly)
        .total_cycles;
  };
  EXPECT_EQ(cycles(1), 192544);
  EXPECT_LT(cycles(2), cycles(1));
  EXPECT_LT(cycles(4), cycles(2));
  EXPECT_EQ(cycles(8), cycles(4));
  EXPECT_EQ(cycles(16), cycles(4));
}

// --- golden SimResult counters ----------------------------------------------

std::string render_sim_counters(const scl::testing_support::PinnedDesign& d,
                                const SimResult& r) {
  const PhaseBreakdown& ph = r.phases;
  return str_cat(d.kernel, " ", d.device, " ", d.space,
                 " total_cycles=", r.total_cycles, " launch=", ph.launch,
                 " mem_read=", ph.mem_read, " mem_write=", ph.mem_write,
                 " compute_own=", ph.compute_own,
                 " compute_redundant=", ph.compute_redundant,
                 " pipe_transfer=", ph.pipe_transfer,
                 " pipe_stall=", ph.pipe_stall,
                 " barrier_wait=", ph.barrier_wait,
                 " region_executions=", r.region_executions,
                 " cells_owned=", r.cells_owned,
                 " cells_redundant=", r.cells_redundant,
                 " pipe_elements=", r.pipe_elements,
                 " global_memory_bytes=", r.global_memory_bytes, "\n");
}

TEST(SimGoldenTest, TimingCountersMatchTheGoldenFile) {
  // Every SimResult counter of the timing-only simulation of the paper
  // suite's per-space winners on a DDR and an HBM part. Any change to the
  // simulator's clock or accounting shows up here line by line.
  std::string out;
  for (const scl::testing_support::PinnedDesign& d :
       scl::testing_support::kPinnedDesigns) {
    const StencilProgram program =
        scl::stencil::find_benchmark(d.kernel).make_paper_scale();
    const Executor exec(fpga::find_device(d.device));
    out += render_sim_counters(
        d, exec.run(program, d.config, SimMode::kTimingOnly));
  }
  scl::testing_support::expect_matches_golden(SCL_SIM_GOLDEN_PATH, out);
}

}  // namespace
}  // namespace scl::sim
