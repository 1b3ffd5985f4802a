// Tests for the design verifier: the diagnostics engine, the interval
// evaluation of lowered bound expressions, golden diagnostics on seeded
// broken designs, and the clean-design guarantee over every bundled
// benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/interval.hpp"
#include "analysis/ir/ir.hpp"
#include "analysis/ir/lower.hpp"
#include "core/resource_estimator.hpp"
#include "core/verify.hpp"
#include "fpga/device.hpp"
#include "stencil/kernels.hpp"
#include "golden_file.hpp"
#include "pinned_designs.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace scl::analysis {
namespace {

using scl::sim::DesignConfig;
using scl::sim::DesignKind;
using scl::support::DiagnosticEngine;
using scl::support::Severity;

DesignConfig hetero2d(std::int64_t h, int k, std::int64_t tile) {
  DesignConfig config;
  config.kind = DesignKind::kHeterogeneous;
  config.fused_iterations = h;
  config.parallelism = {k, k, 1};
  config.tile_size = {tile, tile, 1};
  return config;
}

AnalysisInput jacobi2d_input() {
  static const scl::stencil::StencilProgram program =
      scl::stencil::make_jacobi2d(256, 256, 64);
  return make_analysis_input(program, hetero2d(4, 2, 32),
                             fpga::virtex7_690t());
}

bool has_code(const DiagnosticEngine& diags, const char* code) {
  const auto& all = diags.diagnostics();
  return std::any_of(all.begin(), all.end(), [&](const auto& d) {
    return d.code == code;
  });
}

// --- diagnostics engine -----------------------------------------------------

TEST(DiagnosticsTest, CountsAndSeverities) {
  DiagnosticEngine diags;
  EXPECT_TRUE(diags.empty());
  diags.error("SCL101", "missing channel");
  diags.warning("SCL104", "orphan pipe");
  EXPECT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags.error_count(), 1);
  EXPECT_EQ(diags.warning_count(), 1);
  EXPECT_TRUE(diags.has_errors());
}

TEST(DiagnosticsTest, RenderTextIncludesLocationAndNotes) {
  DiagnosticEngine diags;
  auto& diag = diags.error("SCL102", "FIFO too small");
  diag.location = {"pipe", "p_k0_k1", -1};
  diag.notes.push_back("required 64 elements");
  const std::string text = diags.render_text();
  EXPECT_NE(text.find("SCL102"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("p_k0_k1"), std::string::npos);
  EXPECT_NE(text.find("note: required 64 elements"), std::string::npos);
}

TEST(DiagnosticsTest, RenderJsonMatchesDocumentedSchema) {
  DiagnosticEngine diags;
  auto& diag = diags.error("SCL201", "burst \"escapes\" grid");
  diag.location = {"kernel", "stencil_k0", 12};
  diag.notes.push_back("lower bound: r0 - 1");
  diags.warning("SCL106", "depth not a power of two");
  const std::string json = diags.render_json();
  // Top-level keys of the documented schema.
  EXPECT_NE(json.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  // Per-diagnostic keys.
  for (const char* key :
       {"\"code\"", "\"severity\"", "\"message\"", "\"location\"",
        "\"component\"", "\"detail\"", "\"line\"", "\"notes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Quotes inside messages must be escaped.
  EXPECT_NE(json.find("burst \\\"escapes\\\" grid"), std::string::npos);
  EXPECT_EQ(json.find("burst \"escapes\""), std::string::npos);
}

TEST(DiagnosticsTest, MergePreservesOrder) {
  DiagnosticEngine a;
  a.error("SCL101", "first");
  DiagnosticEngine b;
  b.warning("SCL104", "second");
  a.merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.diagnostics()[0].code, "SCL101");
  EXPECT_EQ(a.diagnostics()[1].code, "SCL104");
}

// --- interval evaluation of lowered bound expressions -----------------------

/// Lowers `text` through the verifier's expression front end and evaluates
/// it with `bindings` bound by name.
Interval eval_text(const std::string& text,
                   const std::vector<std::pair<std::string, Interval>>&
                       bindings) {
  std::vector<std::string> slots;
  for (const auto& binding : bindings) slots.push_back(binding.first);
  const ir::Expr expr = ir::lower_expression(text, &slots);
  ir::SlotEnv env(slots);
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    env.bind(static_cast<int>(i), bindings[i].second);
  }
  return ir::eval_expr(expr, env);
}

TEST(IntervalTest, EvaluatesAffineClampExpressions) {
  const std::vector<std::pair<std::string, Interval>> env = {
      {"r0", Interval::point(128)}, {"dt", Interval::point(3)}};
  EXPECT_EQ(eval_text("max(0, r0 - 2 * dt)", env), Interval::point(122));
  EXPECT_EQ(eval_text("min(256, (r0 + 32) + 1 * dt)", env),
            Interval::point(163));
  EXPECT_EQ(eval_text("-3 + r0", env), Interval::point(125));
}

TEST(IntervalTest, WideIntervalsPropagate) {
  const std::vector<std::pair<std::string, Interval>> env = {
      {"x", Interval{0, 10}}};
  EXPECT_EQ(eval_text("2 * x + 1", env), (Interval{1, 21}));
  EXPECT_EQ(eval_text("max(5, x)", env), (Interval{5, 10}));
}

TEST(IntervalTest, RejectsUnknownVariableAndSyntaxErrors) {
  EXPECT_THROW(eval_text("mystery + 1", {}), Error);
  std::vector<std::string> slots;
  EXPECT_THROW(ir::lower_expression("max(1,", &slots), Error);
  EXPECT_THROW(ir::lower_expression("1 ? 2 : 3", &slots), Error);
}

// Analysis inputs are untrusted (seeded-defect tests feed absurd
// magnitudes); wrapping at the int64 edges would be UB and could flip an
// out-of-bounds interval back into range, masking the defect.
TEST(IntervalTest, ArithmeticSaturatesAtInt64Edges) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const Interval top = Interval::point(kMax);
  const Interval bottom = Interval::point(kMin);
  EXPECT_EQ(top + Interval::point(1), Interval::point(kMax));
  EXPECT_EQ(bottom + Interval::point(-1), Interval::point(kMin));
  EXPECT_EQ(bottom - Interval::point(1), Interval::point(kMin));
  EXPECT_EQ(top - Interval::point(-1), Interval::point(kMax));
  EXPECT_EQ(top * Interval::point(2), Interval::point(kMax));
  EXPECT_EQ(top * Interval::point(-2), Interval::point(kMin));
  EXPECT_EQ(bottom * Interval::point(2), Interval::point(kMin));
  EXPECT_EQ(bottom * Interval::point(-2), Interval::point(kMax));
  // Saturation must keep lo <= hi on mixed-sign wide intervals.
  const Interval wide{kMin, kMax};
  const Interval squared = wide * wide;
  EXPECT_LE(squared.lo, squared.hi);
  EXPECT_EQ(squared.hi, kMax);
}

TEST(IntervalTest, OverlongLiteralSaturatesInsteadOfWrapping) {
  // 2^63 - 1 is the largest parseable value; one digit more must clamp,
  // not wrap negative.
  const Interval v = eval_text("99999999999999999999999", {});
  EXPECT_EQ(v, Interval::point(std::numeric_limits<std::int64_t>::max()));
  const Interval product =
      eval_text("9223372036854775807 * 9223372036854775807", {});
  EXPECT_EQ(product,
            Interval::point(std::numeric_limits<std::int64_t>::max()));
}

// --- golden diagnostics on seeded broken designs ----------------------------

TEST(AnalyzerTest, UndersizedFifoDepthIsReported) {
  AnalysisInput input = jacobi2d_input();
  ASSERT_FALSE(input.pipes.empty());
  input.pipes[0].depth = 1;  // far below one exchange phase's strip volume
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  EXPECT_TRUE(has_code(diags, "SCL102"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, AllFifosUndersizedDeadlocks) {
  AnalysisInput input = jacobi2d_input();
  for (auto& pipe : input.pipes) pipe.depth = 1;
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  // Symmetric blocked writes between adjacent kernels form a cycle.
  EXPECT_TRUE(has_code(diags, "SCL102"));
  EXPECT_TRUE(has_code(diags, "SCL103"));
}

TEST(AnalyzerTest, MissingHaloChannelIsReported) {
  AnalysisInput input = jacobi2d_input();
  ASSERT_FALSE(input.pipes.empty());
  input.pipes.erase(input.pipes.begin());  // drop one delivering channel
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  EXPECT_TRUE(has_code(diags, "SCL101"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, MalformedPipeEndpointsAreReported) {
  AnalysisInput input = jacobi2d_input();
  codegen::PipeDecl self;
  self.from_kernel = 0;
  self.to_kernel = 0;
  self.name = "p_k0_k0";
  self.depth = 512;
  input.pipes.push_back(self);
  codegen::PipeDecl diagonal;
  diagonal.from_kernel = 0;
  diagonal.to_kernel = 3;  // coords (0,0) and (1,1): not face-adjacent
  diagonal.name = "p_k0_k3";
  diagonal.depth = 512;
  input.pipes.push_back(diagonal);
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  std::int64_t malformed = 0;
  for (const auto& diag : diags.diagnostics()) {
    if (diag.code == "SCL105") ++malformed;
  }
  EXPECT_EQ(malformed, 2);
}

TEST(AnalyzerTest, NonPowerOfTwoDepthWarns) {
  AnalysisInput input = jacobi2d_input();
  ASSERT_FALSE(input.pipes.empty());
  input.pipes[0].depth = 1000;  // large enough, but not a power of two
  DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  EXPECT_TRUE(has_code(diags, "SCL106"));
  EXPECT_FALSE(has_code(diags, "SCL102"));
}

TEST(AnalyzerTest, BurstBoundsOutsideGridAreReported) {
  const AnalysisInput input = jacobi2d_input();
  codegen::LoopBounds bounds;
  bounds.lo = {"r0 - 5", "0", "0"};
  bounds.hi = {"r0 + 300", "1", "1"};  // grid is 256 wide
  DiagnosticEngine diags;
  check_buffer_bounds(input, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL201"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, UnparsableBoundDowngradesToWarning) {
  const AnalysisInput input = jacobi2d_input();
  codegen::LoopBounds bounds;
  bounds.lo = {"r0 ? 0 : 1", "0", "0"};
  bounds.hi = {"r0 + 1", "1", "1"};
  DiagnosticEngine diags;
  check_buffer_bounds(input, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL209"));
  EXPECT_FALSE(diags.has_errors());
}

TEST(AnalyzerTest, Scl209QuotesTheBoundThatFailed) {
  // Only one bound of each set is outside the language; the warning must
  // quote that one, not its valid partner.
  const AnalysisInput input = jacobi2d_input();
  const std::string bad = "r0 ? 1 : 2";
  const auto expect_quoted = [&](const DiagnosticEngine& diags,
                                 const char* check) {
    ASSERT_TRUE(has_code(diags, "SCL209")) << check;
    for (const auto& diag : diags.diagnostics()) {
      EXPECT_NE(diag.message.find("'" + bad + "'"), std::string::npos)
          << check << ": " << diag.message;
    }
  };

  codegen::LoopBounds burst = codegen::buffer_bounds(input.ctx, 0);
  burst.hi[0] = bad;
  DiagnosticEngine buffer_diags;
  check_buffer_bounds(input, 0, burst, &buffer_diags);
  expect_quoted(buffer_diags, "buffer");

  codegen::LoopBounds owned = codegen::owned_bounds(input.ctx, 0, 0);
  owned.lo[0] = bad;
  DiagnosticEngine owned_diags;
  check_owned_bounds(input, 0, 0, owned, &owned_diags);
  expect_quoted(owned_diags, "owned");

  codegen::LoopBounds stage = codegen::stage_compute_bounds(input.ctx, 0, 0);
  stage.hi[0] = bad;
  DiagnosticEngine stage_diags;
  check_stage_accesses(input, 0, 0, stage, &stage_diags);
  expect_quoted(stage_diags, "stage");
}

TEST(AnalyzerTest, OwnedWriteOutsideUpdatableRegionIsReported) {
  const AnalysisInput input = jacobi2d_input();
  // Jacobi's border is Dirichlet: the updatable region starts at 1, so a
  // burst write covering [0, 10) along dim 0 touches boundary cells.
  codegen::LoopBounds bounds;
  bounds.lo = {"0", "1", "0"};
  bounds.hi = {"10", "2", "1"};
  DiagnosticEngine diags;
  check_owned_bounds(input, 0, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL203"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, HealthyOwnedBoundsStayClean) {
  const AnalysisInput input = jacobi2d_input();
  DiagnosticEngine diags;
  check_owned_bounds(input, 0, 0, codegen::owned_bounds(input.ctx, 0, 0),
                     &diags);
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

TEST(AnalyzerTest, StageAccessOutsideBufferBoxIsReported) {
  const AnalysisInput input = jacobi2d_input();
  // Compute bounds widened far past the kernel's local-buffer box: the
  // ±1 neighbor reads then land outside both the dynamic window and the
  // static array extent.
  codegen::LoopBounds bounds;
  bounds.lo = {"r0 - 200", "1", "0"};
  bounds.hi = {"r0 + 300", "2", "1"};
  DiagnosticEngine diags;
  check_stage_accesses(input, 0, 0, bounds, &diags);
  EXPECT_TRUE(has_code(diags, "SCL202"));
  EXPECT_TRUE(diags.has_errors());
}

TEST(AnalyzerTest, HealthyStageAccessesStayClean) {
  const AnalysisInput input = jacobi2d_input();
  DiagnosticEngine diags;
  check_stage_accesses(input, 0, 0,
                       codegen::stage_compute_bounds(input.ctx, 0, 0),
                       &diags);
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

// --- resource cross-check ---------------------------------------------------

class ResourcePassTest : public ::testing::Test {
 protected:
  ResourcePassTest()
      : program_(scl::stencil::make_jacobi2d(256, 256, 64)),
        config_(hetero2d(4, 2, 32)),
        device_(fpga::virtex7_690t()),
        input_(make_analysis_input(program_, config_, device_)) {
    const fpga::ResourceModel model(device_);
    charged_ = core::charged_resources(
        core::estimate_design_resources(program_, config_, model));
  }

  scl::stencil::StencilProgram program_;
  DesignConfig config_;
  fpga::DeviceSpec device_;
  AnalysisInput input_;
  ChargedResources charged_;
};

TEST_F(ResourcePassTest, HonestChargeIsClean) {
  DiagnosticEngine diags;
  analyze_resources(input_, charged_, &diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render_text();
}

TEST_F(ResourcePassTest, PipeCountDriftIsReported) {
  ChargedResources charged = charged_;
  charged.pipe_count -= 1;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL301"));
}

TEST_F(ResourcePassTest, BufferElementDriftIsReported) {
  ChargedResources charged = charged_;
  charged.buffer_elements /= 2;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL302"));
}

TEST_F(ResourcePassTest, FifoUnderchargeIsReported) {
  ChargedResources charged = charged_;
  charged.pipe_fifo_elements = 1;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL303"));
}

TEST_F(ResourcePassTest, OverCapacityWarns) {
  ChargedResources charged = charged_;
  charged.total.bram18 = device_.capacity.bram18 + 1;
  DiagnosticEngine diags;
  analyze_resources(input_, charged, &diags);
  EXPECT_TRUE(has_code(diags, "SCL310"));
  EXPECT_FALSE(diags.has_errors());
}

// --- clean designs stay clean -----------------------------------------------

TEST(AnalyzerTest, AllBundledBenchmarksVerifyClean) {
  const fpga::DeviceSpec device = fpga::virtex7_690t();
  const fpga::ResourceModel model(device);
  for (const auto& info : scl::stencil::paper_benchmarks()) {
    std::array<std::int64_t, 3> extents{1, 1, 1};
    DesignConfig config;
    config.kind = DesignKind::kHeterogeneous;
    config.fused_iterations = 4;
    for (int d = 0; d < info.dims; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      extents[ds] = 128;
      config.parallelism[ds] = 2;
      config.tile_size[ds] = 32;
    }
    const scl::stencil::StencilProgram program =
        info.make_scaled(extents, 64);
    // These hand-picked tile sizes can overrun the device capacity for
    // the 3-D benchmarks (a correct SCL310 warning); the semantic passes
    // must stay silent regardless.
    auto expect_clean = [&](const DiagnosticEngine& diags,
                            const char* label) {
      EXPECT_FALSE(diags.has_errors())
          << info.name << " " << label << ":\n" << diags.render_text();
      for (const auto& diag : diags.diagnostics()) {
        EXPECT_EQ(diag.code, "SCL310")
            << info.name << " " << label << ": " << diag.message;
      }
    };
    const auto resources =
        core::estimate_design_resources(program, config, model);
    expect_clean(core::verify_design(program, config, device, resources),
                 "heterogeneous");

    // The overlapped baseline (no pipes at all) must verify clean too.
    DesignConfig baseline = config;
    baseline.kind = DesignKind::kBaseline;
    const auto base_resources =
        core::estimate_design_resources(program, baseline, model);
    expect_clean(
        core::verify_design(program, baseline, device, base_resources),
        "baseline");
  }
}

TEST(AnalyzerTest, DeeperFusionAndBalancingStayClean) {
  const fpga::DeviceSpec device = fpga::virtex7_690t();
  const auto program = scl::stencil::make_jacobi2d(512, 512, 128);
  DesignConfig config = hetero2d(16, 4, 32);
  config.edge_shrink = {4, 4, 0};
  const fpga::ResourceModel model(device);
  const auto resources =
      core::estimate_design_resources(program, config, model);
  const DiagnosticEngine diags =
      core::verify_design(program, config, device, resources);
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

// --- diagnostics identity over the paper suite's winners --------------------
//
// Pins the exact rendered pass 1-3 diagnostics (code, severity, location,
// message, notes) over a fixed corpus: the per-space DSE winners of the
// paper suite on a DDR and an HBM part, seeded integer-literal mutations of
// their real loop-bound strings fed through the three pass-2 entry points,
// and a few bounds outside the affine bound language. SCL209's note is the
// expression front end's own reason for giving up and is not pinned; its
// message, which quotes the expression, is.

/// A pinned winner together with everything the analyzer reads.
struct PinnedInput {
  std::string label;
  AnalysisInput input;
  ChargedResources charged;
};

std::vector<PinnedInput> pinned_inputs(
    std::deque<scl::stencil::StencilProgram>* programs) {
  std::vector<PinnedInput> out;
  for (const auto& d : scl::testing_support::kPinnedDesigns) {
    programs->push_back(
        scl::stencil::find_benchmark(d.kernel).make_paper_scale());
    const fpga::DeviceSpec device = fpga::find_device(d.device);
    const fpga::ResourceModel model(device);
    out.push_back(
        {str_cat(d.kernel, " ", d.device, " ", d.space),
         make_analysis_input(programs->back(), d.config, device),
         core::charged_resources(core::estimate_design_resources(
             programs->back(), d.config, model))});
  }
  return out;
}

/// `diags` as render_text() prints it, minus SCL209 notes.
std::string render_pinned(const DiagnosticEngine& diags) {
  DiagnosticEngine pinned;
  for (const auto& diag : diags.diagnostics()) {
    auto& copy = pinned.add(diag.code, diag.severity, diag.message);
    copy.location = diag.location;
    if (diag.code != "SCL209") copy.notes = diag.notes;
  }
  return pinned.render_text();
}

/// (offset, length) of every decimal integer literal of `text` that is not
/// part of an identifier.
std::vector<std::pair<std::size_t, std::size_t>> integer_literals(
    const std::string& text) {
  const auto digit = [&](std::size_t i) {
    return std::isdigit(static_cast<unsigned char>(text[i])) != 0;
  };
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < text.size()) {
    const bool in_word =
        i > 0 && (std::isalnum(static_cast<unsigned char>(text[i - 1])) != 0 ||
                  text[i - 1] == '_');
    if (!digit(i) || in_word) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && digit(end)) ++end;
    out.emplace_back(i, end - i);
    i = end;
  }
  return out;
}

/// Runs the pass-2 entry point `check` names on `bounds`.
DiagnosticEngine run_check(const AnalysisInput& input, const char* check,
                           int kernel, int index,
                           const codegen::LoopBounds& bounds) {
  DiagnosticEngine diags;
  const std::string name = check;
  if (name == "buffer") {
    check_buffer_bounds(input, kernel, bounds, &diags);
  } else if (name == "owned") {
    check_owned_bounds(input, kernel, index, bounds, &diags);
  } else {
    check_stage_accesses(input, kernel, index, bounds, &diags);
  }
  return diags;
}

std::string render_design_corpus() {
  std::deque<scl::stencil::StencilProgram> programs;
  const std::vector<PinnedInput> inputs = pinned_inputs(&programs);
  std::string out;
  for (const PinnedInput& p : inputs) {
    out += str_cat("== ", p.label, "\n",
                   render_pinned(analyze(p.input, &p.charged)));
  }

  // Seeded integer-literal mutations of the real bound strings, spread
  // round-robin over the winners.
  constexpr int kMutations = 150;
  const char* const kChecks[] = {"buffer", "owned", "stage"};
  scl::Rng rng(0xb0'07d5'2a11ULL);
  for (int m = 0; m < kMutations; ++m) {
    const PinnedInput& p = inputs[static_cast<std::size_t>(m) % inputs.size()];
    const auto& prog = *p.input.ctx.program;
    const auto which = rng.uniform_int(0, 2);
    const char* check = kChecks[which];
    const int kernel = static_cast<int>(
        rng.uniform_int(0, p.input.ctx.kernel_count() - 1));
    int index = 0;
    codegen::LoopBounds bounds;
    if (which == 0) {
      bounds = codegen::buffer_bounds(p.input.ctx, kernel);
    } else if (which == 1) {
      std::vector<int> fields;
      for (int f = 0; f < prog.field_count(); ++f) {
        if (!prog.is_constant_field(f)) fields.push_back(f);
      }
      index = fields[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(fields.size()) - 1))];
      bounds = codegen::owned_bounds(p.input.ctx, kernel, index);
    } else {
      index = static_cast<int>(rng.uniform_int(0, prog.stage_count() - 1));
      bounds = codegen::stage_compute_bounds(p.input.ctx, kernel, index);
    }
    // Every literal of every bound string the check reads.
    struct Site {
      std::string* text;
      const char* side;
      int dim;
      std::size_t offset;
      std::size_t length;
    };
    std::vector<Site> sites;
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (auto& [side, text] : {std::pair{"lo", &bounds.lo[ds]},
                                 std::pair{"hi", &bounds.hi[ds]}}) {
        for (const auto& [offset, length] : integer_literals(*text)) {
          sites.push_back({text, side, d, offset, length});
        }
      }
    }
    const std::string where =
        str_cat(p.label, " ", check, " k", kernel, " #", index);
    if (sites.empty()) {
      out += str_cat("== mutation ", m, ": ", where, " has no literal\n");
      continue;
    }
    const Site& site = sites[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(sites.size()) - 1))];
    const std::string before = site.text->substr(site.offset, site.length);
    const std::int64_t v = std::stoll(before);
    std::int64_t mutated = 0;
    switch (rng.uniform_int(0, 5)) {
      case 0:
        mutated = v + 1;
        break;
      case 1:
        mutated = v > 0 ? v - 1 : 1;
        break;
      case 2:
        mutated = v * 2;
        break;
      case 3:
        mutated = v / 2;
        break;
      case 4:
        mutated = 0;
        break;
      default:
        mutated = v * 1'000'000;
        break;
    }
    const std::string original = *site.text;
    site.text->replace(site.offset, site.length, str_cat(mutated));
    out += str_cat("== mutation ", m, ": ", where, " ", site.side, "[",
                   site.dim, "] '", original, "' -> '", *site.text, "'\n",
                   render_pinned(run_check(p.input, check, kernel, index,
                                           bounds)));
  }

  // Hand-written tamperings: bounds that leave the grid (SCL201), and
  // bounds outside the affine bound language (SCL209), each in the one
  // bound the check quotes in its SCL209 message.
  struct Tamper {
    std::size_t design;
    const char* check;
    int index;
    bool hi;
    int dim;
    const char* text;
  };
  const Tamper tampers[] = {{3, "buffer", 0, false, 0, "r0 - 64"},
                            {21, "buffer", 0, true, 0, "r0 + 1000000"},
                            {3, "buffer", 0, false, 0, "r0 ? 0 : 1"},
                            {3, "buffer", 0, false, 1, "r1 << 1"},
                            {4, "owned", 0, true, 1, "max(r1, "},
                            {4, "stage", 0, false, 0, "mystery + 1"},
                            {40, "stage", 0, false, 2, "min(r2, $)"},
                            {40, "owned", 1, true, 0, "r0 + + 1"}};
  for (const Tamper& t : tampers) {
    const PinnedInput& p = inputs[t.design];
    const std::string name = t.check;
    codegen::LoopBounds bounds =
        name == "buffer" ? codegen::buffer_bounds(p.input.ctx, 0)
        : name == "owned"
            ? codegen::owned_bounds(p.input.ctx, 0, t.index)
            : codegen::stage_compute_bounds(p.input.ctx, 0, t.index);
    (t.hi ? bounds.hi : bounds.lo)[static_cast<std::size_t>(t.dim)] = t.text;
    out += str_cat("== tamper: ", p.label, " ", t.check, " k0 #", t.index,
                   " ", t.hi ? "hi" : "lo", "[", t.dim, "] = '", t.text,
                   "'\n",
                   render_pinned(run_check(p.input, t.check, 0, t.index,
                                           bounds)));
  }
  return out;
}

TEST(AnalyzerGoldenTest, DiagnosticsMatchTheGoldenFile) {
  scl::testing_support::expect_matches_golden(SCL_DESIGN_GOLDEN_PATH,
                                              render_design_corpus());
}

}  // namespace
}  // namespace scl::analysis
