#include <gtest/gtest.h>

#include "analysis/ir/dataflow.hpp"
#include "analysis/ir/lower.hpp"
#include "codegen/boundary_gen.hpp"
#include "codegen/context.hpp"
#include "codegen/opencl_emitter.hpp"
#include "codegen/pipe_gen.hpp"
#include "codegen/validator.hpp"
#include "stencil/kernels.hpp"
#include "support/math.hpp"
#include "support/strings.hpp"

namespace scl::codegen {
namespace {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;

/// The pipe-pairing diagnostics (SCL010-SCL016) of a kernel source: the
/// source is lowered to the analysis IR and the pairing check runs on it.
std::vector<scl::support::Diagnostic> pairing_issues(const std::string& src) {
  scl::support::DiagnosticEngine diags;
  scl::analysis::ir::check_pipe_pairing(
      scl::analysis::ir::lower_kernel_source(src), &diags);
  return diags.diagnostics();
}

DesignConfig hetero2d(std::int64_t h, int k, std::int64_t w,
                      std::int64_t shrink = 0) {
  DesignConfig c;
  c.kind = DesignKind::kHeterogeneous;
  c.fused_iterations = h;
  c.parallelism = {k, k, 1};
  c.tile_size = {w, w, 1};
  c.edge_shrink = {shrink, shrink, 0};
  return c;
}

// --- GenContext --------------------------------------------------------------

TEST(GenContextTest, TilesAreRegionRelative) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GenContext ctx =
      GenContext::create(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  ASSERT_EQ(ctx.kernel_count(), 4);
  EXPECT_EQ(ctx.tile(0).box.lo[0], 0);
  EXPECT_EQ(ctx.tile(0).box.hi[0], 32);
  EXPECT_EQ(ctx.tile(3).box.lo[0], 32);
  EXPECT_EQ(ctx.tile(3).box.hi[1], 64);
}

TEST(GenContextTest, BaselineFacesAllExterior) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  DesignConfig c = hetero2d(8, 2, 32);
  c.kind = DesignKind::kBaseline;
  const GenContext ctx = GenContext::create(p, c, fpga::virtex7_690t());
  for (int k = 0; k < ctx.kernel_count(); ++k) {
    for (int d = 0; d < 2; ++d) {
      EXPECT_TRUE(ctx.tile(k).exterior[static_cast<std::size_t>(d)][0]);
      EXPECT_TRUE(ctx.tile(k).exterior[static_cast<std::size_t>(d)][1]);
    }
  }
}

TEST(GenContextTest, NeighborLookup) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GenContext ctx =
      GenContext::create(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  // Kernel layout is row-major over (c0, c1): k0=(0,0), k1=(0,1), ...
  EXPECT_EQ(ctx.neighbor_index(ctx.tile(0), 1, 1), 1);
  EXPECT_EQ(ctx.neighbor_index(ctx.tile(0), 0, 1), 2);
  EXPECT_EQ(ctx.neighbor_index(ctx.tile(0), 0, 0), -1);  // off the grid
}

// --- boundary generator -------------------------------------------------------

TEST(BoundaryGenTest, SharedFaceClipsAtTileEdge) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GenContext ctx =
      GenContext::create(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  // Kernel 0's high faces are shared: the bound must not contain the
  // cone term "(pass_h - it)".
  const LoopBounds b = stage_compute_bounds(ctx, 0, 0);
  EXPECT_EQ(b.hi[0].find("pass_h"), std::string::npos);
  // Its low faces are region-exterior: the cone term must appear.
  EXPECT_NE(b.lo[0].find("pass_h - it"), std::string::npos);
}

TEST(BoundaryGenTest, BoundsClampToUpdatableRegion) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GenContext ctx =
      GenContext::create(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  const LoopBounds b = stage_compute_bounds(ctx, 0, 0);
  // Jacobi's updatable region starts at 1 and ends at N-1.
  EXPECT_NE(b.lo[0].find("max("), std::string::npos);
  EXPECT_NE(b.lo[0].find(", 1)"), std::string::npos);
  EXPECT_NE(b.hi[0].find("min("), std::string::npos);
  EXPECT_NE(b.hi[0].find("255"), std::string::npos);
}

TEST(BoundaryGenTest, MultiStageResidualWidensIntermediateStages) {
  // FDTD's ey stage shrinks only on the low side of dim 0; on every other
  // exterior side its cone bound must carry a +1 residual so the hz stage
  // can consume it.
  const auto p = scl::stencil::make_fdtd2d(256, 256, 64);
  const GenContext ctx =
      GenContext::create(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  const LoopBounds ey = stage_compute_bounds(ctx, 0, 0);
  // dim0 low side: shrink 1, residual 0.
  EXPECT_NE(ey.lo[0].find("1 * (pass_h - it) + 0"), std::string::npos);
  // dim1 low side: shrink 0, residual 1.
  EXPECT_NE(ey.lo[1].find("1 * (pass_h - it) + 1"), std::string::npos);
}

// --- pipe generator ------------------------------------------------------------

TEST(PipeGenTest, BaselineHasNoPipes) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  DesignConfig c = hetero2d(8, 2, 32);
  c.kind = DesignKind::kBaseline;
  const GenContext ctx = GenContext::create(p, c, fpga::virtex7_690t());
  EXPECT_TRUE(enumerate_pipes(ctx).empty());
}

TEST(PipeGenTest, TwoPipesPerAdjacentPair) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GenContext ctx =
      GenContext::create(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  // 2x2 tiles: 4 adjacent pairs, 2 directed pipes each.
  const auto pipes = enumerate_pipes(ctx);
  EXPECT_EQ(pipes.size(), 8u);
  int k0_to_k1 = 0, k1_to_k0 = 0;
  for (const PipeDecl& pd : pipes) {
    if (pd.from_kernel == 0 && pd.to_kernel == 1) ++k0_to_k1;
    if (pd.from_kernel == 1 && pd.to_kernel == 0) ++k1_to_k0;
  }
  EXPECT_EQ(k0_to_k1, 1);
  EXPECT_EQ(k1_to_k0, 1);
}

TEST(PipeGenTest, DepthsArePowersOfTwo) {
  const auto p = scl::stencil::make_jacobi3d(128, 128, 128, 32);
  DesignConfig c;
  c.kind = DesignKind::kHeterogeneous;
  c.fused_iterations = 8;
  c.parallelism = {2, 2, 2};
  c.tile_size = {16, 16, 16};
  const GenContext ctx = GenContext::create(p, c, fpga::virtex7_690t());
  for (const PipeDecl& pd : enumerate_pipes(ctx)) {
    EXPECT_TRUE(scl::is_power_of_two(pd.depth)) << pd.name << " " << pd.depth;
    EXPECT_GE(pd.depth, fpga::virtex7_690t().pipe_fifo_depth);
  }
}

TEST(PipeGenTest, DeclarationsCarryXilinxDepthAttribute) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GenContext ctx =
      GenContext::create(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  const std::string decls = render_pipe_declarations(enumerate_pipes(ctx));
  EXPECT_EQ(scl::count_occurrences(decls, "pipe float "), 8u);
  EXPECT_EQ(scl::count_occurrences(decls, "xcl_reqd_pipe_depth"), 8u);
}

// --- full emission -------------------------------------------------------------

class EmitterTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EmitterTest, GeneratesStructurallyValidCode) {
  const auto& info = scl::stencil::find_benchmark(GetParam());
  std::array<std::int64_t, 3> extents{1, 1, 1};
  DesignConfig c;
  c.kind = DesignKind::kHeterogeneous;
  c.fused_iterations = 4;
  for (int d = 0; d < info.dims; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    extents[ds] = 128;
    c.parallelism[ds] = 2;
    c.tile_size[ds] = 32;
  }
  const auto p = info.make_scaled(extents, 64);
  const GeneratedCode code =
      generate_opencl(p, c, fpga::virtex7_690t());

  for (const auto& issue : validate_kernel_source(code.kernel_source)) {
    ADD_FAILURE() << GetParam() << " kernel: " << issue.message;
  }
  for (const auto& issue : pairing_issues(code.kernel_source)) {
    ADD_FAILURE() << GetParam() << " pipes: " << issue.message;
  }
  for (const auto& issue : validate_host_source(code.host_source)) {
    ADD_FAILURE() << GetParam() << " host: " << issue.message;
  }
  // One __kernel function per tile.
  EXPECT_EQ(scl::count_occurrences(code.kernel_source, "__kernel "),
            static_cast<std::size_t>(code.kernel_count));
  // Host creates one cl_kernel per compute unit.
  EXPECT_EQ(scl::count_occurrences(code.host_source, "clCreateKernel"),
            static_cast<std::size_t>(code.kernel_count));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EmitterTest,
                         ::testing::Values("Jacobi-1D", "Jacobi-2D",
                                           "Jacobi-3D", "HotSpot-2D",
                                           "HotSpot-3D", "FDTD-2D",
                                           "FDTD-3D"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string n = param_info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(EmitterTest, HeteroKernelUsesPipeBuiltins) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GeneratedCode code =
      generate_opencl(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  EXPECT_GT(scl::count_occurrences(code.kernel_source, "write_pipe_block("),
            0u);
  EXPECT_GT(scl::count_occurrences(code.kernel_source, "read_pipe_block("),
            0u);
  EXPECT_EQ(code.pipe_count, 8);
}

TEST(EmitterTest, BaselineKernelHasNoPipes) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  DesignConfig c = hetero2d(8, 2, 32);
  c.kind = DesignKind::kBaseline;
  const GeneratedCode code = generate_opencl(p, c, fpga::virtex7_690t());
  EXPECT_EQ(scl::count_occurrences(code.kernel_source, "_pipe_block("), 0u);
  EXPECT_EQ(code.pipe_count, 0);
  for (const auto& issue : validate_kernel_source(code.kernel_source)) {
    ADD_FAILURE() << issue.message;
  }
  for (const auto& issue : pairing_issues(code.kernel_source)) {
    ADD_FAILURE() << issue.message;
  }
}

TEST(EmitterTest, FormulaAppearsWithLocalBufferIndexing) {
  const auto p = scl::stencil::make_jacobi2d(256, 256, 64);
  const GeneratedCode code =
      generate_opencl(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  EXPECT_NE(code.kernel_source.find("0.2f"), std::string::npos);
  EXPECT_NE(code.kernel_source.find("buf_A[K0_IDX(i0, i1)]"),
            std::string::npos);
  // Double-buffered Jacobi writes through the shadow array.
  EXPECT_NE(code.kernel_source.find("buf_A_new"), std::string::npos);
}

TEST(EmitterTest, HostDrivesRegionSweepWithPingPong) {
  const auto p = scl::stencil::make_hotspot2d(256, 256, 64);
  const GeneratedCode code =
      generate_opencl(p, hetero2d(8, 2, 32), fpga::virtex7_690t());
  EXPECT_NE(code.host_source.find("pass_parity"), std::string::npos);
  EXPECT_NE(code.host_source.find("kRegionExtent0"), std::string::npos);
  // The constant power field gets one buffer, temp gets a ping-pong pair.
  EXPECT_NE(code.host_source.find("temp_b"), std::string::npos);
  EXPECT_EQ(code.host_source.find("power_b"), std::string::npos);
  EXPECT_NE(code.host_source.find("clEnqueueTask"), std::string::npos);
}

// --- validator ------------------------------------------------------------------

TEST(ValidatorTest, DetectsUnbalancedBraces) {
  const auto issues = validate_kernel_source("void f() { {");
  EXPECT_FALSE(issues.empty());
}

TEST(ValidatorTest, DetectsLeftoverPlaceholder) {
  const auto issues = validate_kernel_source("float x = $A(0);");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("placeholder"), std::string::npos);
}

TEST(ValidatorTest, DetectsOrphanPipes) {
  const std::string src =
      "pipe float p_a __attribute__((xcl_reqd_pipe_depth(16)));\n"
      "__kernel void f() { float v; write_pipe_block(p_b, &v); }\n";
  const auto issues = pairing_issues(src);
  bool undeclared = false, unwritten = false;
  for (const auto& i : issues) {
    if (i.message.find("p_b") != std::string::npos) undeclared = true;
    if (i.message.find("p_a") != std::string::npos) unwritten = true;
  }
  EXPECT_TRUE(undeclared);
  EXPECT_TRUE(unwritten);
}

TEST(ValidatorTest, CleanSourcePasses) {
  // Point-to-point pairing: one kernel writes the pipe, another reads it.
  const std::string src =
      "pipe float p __attribute__((xcl_reqd_pipe_depth(16)));\n"
      "__kernel void k0() { float v; write_pipe_block(p, &v); }\n"
      "__kernel void k1() { float v; read_pipe_block(p, &v); }\n";
  EXPECT_TRUE(validate_kernel_source(src).empty());
  EXPECT_TRUE(pairing_issues(src).empty());
}

TEST(ValidatorTest, DetectsSameKernelReadWrite) {
  // Usage is attributed per kernel, so a kernel talking to itself through
  // a pipe does not pass as "used both ways".
  const std::string src =
      "pipe float p __attribute__((xcl_reqd_pipe_depth(16)));\n"
      "__kernel void k0() { float v; write_pipe_block(p, &v); "
      "read_pipe_block(p, &v); }\n";
  const auto issues = pairing_issues(src);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].code, "SCL016");
  EXPECT_NE(issues[0].message.find("same"), std::string::npos);
}

TEST(ValidatorTest, DetectsOrphanDeclaredPipes) {
  // Declared but used in neither direction: both orphan codes fire.
  const std::string src =
      "pipe float p __attribute__((xcl_reqd_pipe_depth(16)));\n"
      "__kernel void k0() { }\n";
  const auto issues = pairing_issues(src);
  bool unwritten = false, unread = false;
  for (const auto& i : issues) {
    if (i.code == "SCL010") unwritten = true;
    if (i.code == "SCL011") unread = true;
  }
  EXPECT_TRUE(unwritten);
  EXPECT_TRUE(unread);
}

TEST(ValidatorTest, DetectsUndeclaredPipeUse) {
  const std::string src =
      "__kernel void k0() { float v; write_pipe_block(ghost_w, &v); }\n"
      "__kernel void k1() { float v; read_pipe_block(ghost_r, &v); }\n";
  const auto issues = pairing_issues(src);
  bool write_undeclared = false, read_undeclared = false;
  for (const auto& i : issues) {
    if (i.code == "SCL012") write_undeclared = true;
    if (i.code == "SCL013") read_undeclared = true;
  }
  EXPECT_TRUE(write_undeclared);
  EXPECT_TRUE(read_undeclared);
}

TEST(ValidatorTest, DetectsMultipleWritersAndReaders) {
  const std::string src =
      "pipe float p __attribute__((xcl_reqd_pipe_depth(16)));\n"
      "__kernel void k0() { float v; write_pipe_block(p, &v); }\n"
      "__kernel void k1() { float v; write_pipe_block(p, &v); }\n"
      "__kernel void k2() { float v; read_pipe_block(p, &v); }\n"
      "__kernel void k3() { float v; read_pipe_block(p, &v); }\n";
  const auto issues = pairing_issues(src);
  bool writers = false, readers = false;
  for (const auto& i : issues) {
    if (i.code == "SCL014") writers = true;
    if (i.code == "SCL015") readers = true;
  }
  EXPECT_TRUE(writers);
  EXPECT_TRUE(readers);
  // Wording, severity and location of the pairing diagnostics.
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].message, "pipe 'p' written by multiple kernels: k0, k1");
  EXPECT_EQ(issues[1].message, "pipe 'p' read by multiple kernels: k2, k3");
  for (const auto& i : issues) {
    EXPECT_EQ(i.severity, scl::support::Severity::kError);
    EXPECT_EQ(i.location.component, "pipe");
    EXPECT_EQ(i.location.detail, "p");
    EXPECT_EQ(i.location.line, -1);
  }
}

TEST(ValidatorTest, DiagnosticsCarryStableCodes) {
  const auto braces = validate_kernel_source("void f() { {");
  ASSERT_FALSE(braces.empty());
  EXPECT_EQ(braces[0].code, "SCL001");
  const auto placeholder = validate_kernel_source("float x = $A(0);");
  ASSERT_FALSE(placeholder.empty());
  EXPECT_EQ(placeholder[0].code, "SCL002");
  EXPECT_EQ(placeholder[0].severity, scl::support::Severity::kError);
}

}  // namespace
}  // namespace scl::codegen
