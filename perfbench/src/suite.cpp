// suite-ddr / suite-hbm: one pass synthesizes the seven Table 2 kernels at
// paper scale, each fed as `.stencil` text through parse_program into a
// fresh single-threaded core::Framework. Untraced passes call
// Framework::synthesize; traced passes replay it stage by stage through
// the public calls of each layer, with a span around every call.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "codegen/opencl_emitter.hpp"
#include "core/features.hpp"
#include "core/framework.hpp"
#include "core/optimizer.hpp"
#include "core/verify.hpp"
#include "sim/executor.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "stencil/reference.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = scl::core;
namespace sim = scl::sim;
namespace stencil = scl::stencil;

/// Set-ups per run, split around the timed passes: the repeats of one
/// stretch of a few seconds all see the same state of a shared host, so
/// their median moved with it from run to run; split, they sample the
/// whole run.
constexpr int kSetupRepeats = 7;
constexpr int kSetupsBeforeLoad = 4;

struct KernelInput {
  std::string name;
  int dims = 0;
  std::string text;  ///< program_to_text of the paper-scale factory
};

/// One synthesis of one kernel, reduced to what the gate compares and the
/// metrics read.
struct Outcome {
  bool ok = false;
  std::string error;
  std::string digest;  ///< generated kernel + host + build script
  sim::DesignConfig selected;
  double predicted_cycles = 0.0;
  std::int64_t simulated_cycles = 0;  ///< of the selected design
  std::int64_t region_executions = 0;  ///< over every design simulated
  std::int64_t code_bytes = 0;
  std::int64_t ir_kernels = 0;
  core::DseStats dse;
  double ms = 0.0;
};

struct Pass {
  double wall_ms = 0.0;
  std::vector<Outcome> outcomes;  ///< by kernel index
  int root_span = -1;  ///< replayed passes: the pass's span
};

core::FrameworkOptions suite_options(const scl::fpga::DeviceSpec& device) {
  core::FrameworkOptions options;
  options.optimizer.device = device;
  options.optimizer.threads = 1;
  return options;
}

Outcome make_outcome(const core::DesignPoint& selected,
                     const sim::SimResult& selected_sim,
                     std::int64_t region_executions,
                     const scl::codegen::GeneratedCode& code,
                     const core::IrVerifyStats& ir, const core::DseStats& dse,
                     bool clean) {
  Outcome out;
  out.ok = clean && ir.ran && ir.errors == 0;
  out.digest = digest_hex(code.kernel_source + '\0' + code.host_source +
                          '\0' + code.build_script);
  out.selected = selected.config;
  out.predicted_cycles = selected.prediction.total_cycles;
  out.simulated_cycles = selected_sim.total_cycles;
  out.region_executions = region_executions;
  out.code_bytes = static_cast<std::int64_t>(code.kernel_source.size() +
                                             code.host_source.size());
  out.ir_kernels = ir.kernels_lowered;
  out.dse = dse;
  return out;
}

Outcome outcome_of(const core::SynthesisReport& report) {
  const bool temporal =
      report.selected_family == scl::arch::DesignFamily::kTemporalShift;
  const std::int64_t regions =
      report.baseline_sim.region_executions +
      report.heterogeneous_sim.region_executions +
      (report.temporal ? report.temporal_sim.region_executions : 0);
  return make_outcome(
      report.selected(),
      temporal ? report.temporal_sim : report.heterogeneous_sim, regions,
      report.code, report.ir, report.dse, report.analysis.error_count() == 0);
}

/// Where a traced synthesis records its stages.
struct Trace {
  SpanRecorder& spans;
  int parent;
  std::int64_t request;
};

template <typename Fn>
auto stage(Trace& trace, const char* name, Fn&& fn) {
  const auto start = Clock::now();
  auto finish = [&] {
    trace.spans.add(name, start, Clock::now(), trace.parent, trace.request);
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    finish();
  } else {
    auto result = fn();
    finish();
    return result;
  }
}

/// Framework::synthesize (FamilySelection::kAuto, simulate, generate_code,
/// analyze, fail_on_analysis_error) replayed call by call.
Outcome replay(const std::string& text, const core::FrameworkOptions& options,
               Trace& trace) {
  const scl::fpga::DeviceSpec& device = options.optimizer.device;
  const stencil::StencilProgram program = stage(
      trace, "frontend/parse", [&] { return stencil::parse_program(text); });
  std::optional<core::Optimizer> optimizer;
  stage(trace, "core/init", [&] {
    optimizer.emplace(program, options.optimizer);
    // Framework::synthesize extracts the features for its report.
    (void)core::extract_features(program);
  });
  const core::DesignPoint baseline = stage(
      trace, "dse/baseline", [&] { return optimizer->optimize_baseline(); });
  const core::DesignPoint heterogeneous =
      stage(trace, "dse/heterogeneous", [&] {
        try {
          return optimizer->optimize_heterogeneous(baseline);
        } catch (const scl::ResourceError&) {
          return baseline;  // Framework's fallback on banked parts
        }
      });
  const std::optional<core::DesignPoint> temporal = stage(
      trace, "dse/temporal", [&]() -> std::optional<core::DesignPoint> {
        try {
          return optimizer->optimize_temporal();
        } catch (const scl::ResourceError&) {
          return std::nullopt;
        }
      });
  // kAuto: the temporal winner needs strictly fewer predicted cycles.
  const bool temporal_selected =
      temporal && temporal->prediction.total_cycles <
                      heterogeneous.prediction.total_cycles;
  const core::DesignPoint& selected =
      temporal_selected ? *temporal : heterogeneous;
  const core::DseStats dse = optimizer->dse_stats();

  scl::support::DiagnosticEngine analysis;
  stage(trace, "analysis/verify_design", [&] {
    analysis.merge(core::verify_design(program, baseline.config, device,
                                       baseline.resources));
    analysis.merge(core::verify_design(program, heterogeneous.config, device,
                                       heterogeneous.resources));
    if (temporal) {
      analysis.merge(core::verify_design(program, temporal->config, device,
                                         temporal->resources));
    }
  });
  if (analysis.has_errors()) {
    throw std::runtime_error("design verification: " +
                             analysis.render_text());
  }

  sim::SimResult baseline_sim;
  sim::SimResult heterogeneous_sim;
  sim::SimResult temporal_sim;
  stage(trace, "sim/simulate", [&] {
    const sim::Executor exec(device);
    baseline_sim =
        exec.run(program, baseline.config, sim::SimMode::kTimingOnly);
    heterogeneous_sim =
        exec.run(program, heterogeneous.config, sim::SimMode::kTimingOnly);
    if (temporal) {
      temporal_sim =
          exec.run(program, temporal->config, sim::SimMode::kTimingOnly);
    }
  });

  const scl::codegen::GeneratedCode code = stage(trace, "codegen/emit", [&] {
    return scl::codegen::generate_opencl(program, selected.config, device);
  });
  scl::support::DiagnosticEngine sources;
  stage(trace, "codegen/validate",
        [&] { core::verify_generated_sources(code, &sources); });
  const core::IrVerifyStats ir = stage(trace, "analysis/verify_ir", [&] {
    return core::verify_generated_ir(program, selected.config, code,
                                     &sources);
  });
  const std::int64_t regions =
      baseline_sim.region_executions + heterogeneous_sim.region_executions +
      (temporal ? temporal_sim.region_executions : 0);
  return make_outcome(selected,
                      temporal_selected ? temporal_sim : heterogeneous_sim,
                      regions, code, ir, dse, !sources.has_errors());
}

Pass framework_pass(const std::vector<KernelInput>& inputs,
                    const std::vector<std::size_t>& order,
                    const core::FrameworkOptions& options) {
  Pass pass;
  pass.outcomes.resize(inputs.size());
  std::vector<std::optional<core::SynthesisReport>> reports(inputs.size());
  const auto start = Clock::now();
  for (const std::size_t k : order) {
    const auto kernel_start = Clock::now();
    try {
      const stencil::StencilProgram program =
          stencil::parse_program(inputs[k].text);
      const core::Framework framework(program, options);
      reports[k] = framework.synthesize();
    } catch (const std::exception& e) {
      pass.outcomes[k].error = e.what();
    }
    pass.outcomes[k].ms = ms_since(kernel_start);
  }
  pass.wall_ms = ms_since(start);
  // Reports are reduced (digested) and destroyed outside the timed loop.
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    if (!reports[k]) continue;
    const double ms = pass.outcomes[k].ms;
    pass.outcomes[k] = outcome_of(*reports[k]);
    pass.outcomes[k].ms = ms;
  }
  return pass;
}

Pass replay_pass(const std::vector<KernelInput>& inputs,
                 const std::vector<std::size_t>& order,
                 const core::FrameworkOptions& options, SpanRecorder& spans,
                 std::int64_t pass_id) {
  Pass pass;
  pass.outcomes.resize(inputs.size());
  const auto start = Clock::now();
  const int root = spans.open("suite/pass", -1, pass_id * 100);
  pass.root_span = root;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t k = order[pos];
    const auto kernel_start = Clock::now();
    const std::int64_t request =
        pass_id * 100 + static_cast<std::int64_t>(pos) + 1;
    const int kernel = spans.open("core/synthesize", root, request);
    Trace trace{spans, kernel, request};
    try {
      pass.outcomes[k] = replay(inputs[k].text, options, trace);
    } catch (const std::exception& e) {
      pass.outcomes[k] = Outcome{};
      pass.outcomes[k].error = e.what();
    }
    spans.close(kernel);
    pass.outcomes[k].ms = ms_since(kernel_start);
  }
  spans.close(root);
  pass.wall_ms = ms_since(start);
  return pass;
}

std::vector<KernelInput> make_inputs() {
  std::vector<KernelInput> inputs;
  for (const stencil::BenchmarkInfo& info : stencil::paper_benchmarks()) {
    inputs.push_back({info.name, info.dims,
                      stencil::program_to_text(info.make_paper_scale())});
  }
  return inputs;
}

/// Every outcome must be clean and equal to the reference (first) pass:
/// same selected config, same simulated cycles, same DSE work and
/// byte-identical generated code.
void check_pass(const Pass& pass, const std::vector<Outcome>& reference,
                const std::vector<KernelInput>& inputs, std::string_view kind,
                const std::string& device, Gate& gate) {
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const Outcome& got = pass.outcomes[k];
    const Outcome& want = reference[k];
    const bool same = got.digest == want.digest &&
                      got.selected == want.selected &&
                      got.simulated_cycles == want.simulated_cycles &&
                      got.dse.candidates_evaluated ==
                          want.dse.candidates_evaluated;
    std::string what = std::string(kind) + " " + inputs[k].name + " on " +
                       device + ": clean and identical to the first pass";
    if (!got.error.empty()) what += " (" + got.error + ")";
    gate.check(got.ok && want.ok && same, what);
  }
}

bool bit_identical(const stencil::StencilProgram& program,
                   const stencil::FieldSet& got,
                   const stencil::ReferenceExecutor& reference) {
  if (got.size() != static_cast<std::size_t>(program.field_count())) {
    return false;
  }
  bool same = true;
  for (int f = 0; f < program.field_count(); ++f) {
    const auto& grid = got[static_cast<std::size_t>(f)];
    const auto& want = reference.field(f);
    stencil::for_each_cell(program.grid_box(), [&](const stencil::Index& p) {
      same = same && std::bit_cast<std::uint32_t>(grid.at(p)) ==
                         std::bit_cast<std::uint32_t>(want.at(p));
    });
  }
  return same;
}

/// Scaled-down instance of each kernel on `device`: synthesize, simulate
/// the selected design functionally and compare with the reference
/// executor bit for bit. Runs outside the timed passes, for both the DDR
/// and the HBM part whichever suite workload runs.
void functional_gate(const scl::fpga::DeviceSpec& device, Gate& gate) {
  for (const stencil::BenchmarkInfo& info : stencil::paper_benchmarks()) {
    const std::array<std::int64_t, 3> extents =
        info.dims == 1   ? std::array<std::int64_t, 3>{4096, 1, 1}
        : info.dims == 2 ? std::array<std::int64_t, 3>{64, 64, 1}
                         : std::array<std::int64_t, 3>{20, 20, 20};
    const stencil::StencilProgram program =
        info.make_scaled(extents, info.dims == 3 ? 4 : 8);
    std::string what = "functional " + info.name + " on " + device.name +
                       ": selected design matches the reference bit for bit";
    bool ok = false;
    try {
      core::FrameworkOptions options = suite_options(device);
      options.simulate = false;
      const core::SynthesisReport report =
          core::Framework(program, options).synthesize();
      const sim::SimResult result = sim::Executor(device).run(
          program, report.selected().config, sim::SimMode::kFunctional);
      stencil::ReferenceExecutor reference(program);
      reference.run(program.iterations());
      ok = result.fields && bit_identical(program, *result.fields, reference);
    } catch (const std::exception& e) {
      what += std::string(" (") + e.what() + ")";
    }
    gate.check(ok, what);
  }
}

/// Stage times of the replayed pass whose span is `root`, summed by stage
/// name: a stage span's parent is a kernel span whose parent is `root`.
std::map<std::string, double> stage_ms_of(
    const std::vector<SpanRecorder::Span>& spans, int root) {
  std::map<std::string, double> stage_ms;
  for (const SpanRecorder::Span& span : spans) {
    if (span.parent >= 0 &&
        spans[static_cast<std::size_t>(span.parent)].parent == root) {
      stage_ms[span.name] += span.end_ms - span.start_ms;
    }
  }
  return stage_ms;
}

void print_kernel_rows(const std::vector<KernelInput>& inputs,
                       const std::vector<Outcome>& reference,
                       const std::vector<Pass>& passes,
                       const std::string& device) {
  std::cout << "per-kernel (" << device
            << "): kernel family R design predicted_cycles "
               "simulated_cycles model_error_pct median_ms code_bytes "
               "digest\n";
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const Outcome& o = reference[k];
    std::vector<double> ms;
    for (const Pass& pass : passes) ms.push_back(pass.outcomes[k].ms);
    const double error_pct =
        o.simulated_cycles > 0
            ? 100.0 *
                  std::abs(o.predicted_cycles -
                           static_cast<double>(o.simulated_cycles)) /
                  static_cast<double>(o.simulated_cycles)
            : 0.0;
    std::cout << "  " << inputs[k].name << " "
              << scl::arch::to_string(o.selected.family) << " "
              << o.selected.replication << " \""
              << o.selected.summary(inputs[k].dims) << "\" "
              << static_cast<std::int64_t>(o.predicted_cycles) << " "
              << o.simulated_cycles << " " << error_pct << " " << median(ms)
              << " " << o.code_bytes << " " << o.digest << "\n";
  }
}

double model_error_pct(const std::vector<Outcome>& outcomes) {
  double sum = 0.0;
  for (const Outcome& o : outcomes) {
    sum += std::abs(o.predicted_cycles -
                    static_cast<double>(o.simulated_cycles)) /
           static_cast<double>(std::max<std::int64_t>(1, o.simulated_cycles));
  }
  return 100.0 * sum /
         static_cast<double>(std::max<std::size_t>(1, outcomes.size()));
}

}  // namespace

void run_suite(const Args& args, const scl::fpga::DeviceSpec& device,
               SpanRecorder& spans, Gate& gate, MetricTable& table) {
  const core::FrameworkOptions options = suite_options(device);
  guard_threads("DSE threads", options.optimizer.threads);
  print_env_stamp(args, options.optimizer.threads, 0, 0);

  scl::Rng rng(args.seed);
  std::vector<KernelInput> inputs;
  auto next_order = [&] {
    std::vector<std::size_t> order(inputs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    return order;
  };

  // Set-up: the inputs plus one warm-up pass; the first warm-up pass is
  // the reference every later pass must reproduce.
  std::vector<double> setup_s;
  std::vector<Outcome> reference;
  CpuRotation rotation;
  auto set_up = [&] {
    rotation.pin_next();
    const auto start = Clock::now();
    inputs = make_inputs();
    const Pass warm = framework_pass(inputs, next_order(), options);
    setup_s.push_back(ms_since(start) / 1000.0);
    if (reference.empty()) reference = warm.outcomes;
    check_pass(warm, reference, inputs, "warm-up", device.name, gate);
  };
  for (int rep = 0; rep < kSetupsBeforeLoad; ++rep) set_up();

  // Closed loop: back-to-back passes until the time is up. A traced run
  // alternates untraced and replayed passes so both see the same machine.
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const auto deadline = deadline_after(args.seconds);
  while (Clock::now() < deadline || untraced.empty() ||
         (args.trace && traced.empty())) {
    rotation.pin_next();
    if (args.trace && traced.size() < untraced.size()) {
      const auto pass_id = static_cast<std::int64_t>(traced.size()) + 1;
      traced.push_back(
          replay_pass(inputs, next_order(), options, spans, pass_id));
      check_pass(traced.back(), reference, inputs, "replay", device.name,
                 gate);
    } else {
      untraced.push_back(framework_pass(inputs, next_order(), options));
      check_pass(untraced.back(), reference, inputs, "pass", device.name,
                 gate);
    }
  }
  for (int rep = kSetupsBeforeLoad; rep < kSetupRepeats; ++rep) set_up();
  for (const char* part : {"xc7vx690t", "xcu280"}) {
    functional_gate(scl::fpga::find_device(part), gate);
  }
  print_kernel_rows(inputs, reference, args.trace ? traced : untraced,
                    device.name);

  // A synthesis is deterministic single-threaded work, so interference
  // from a shared host only ever adds time to it. The host this benchmark
  // was tuned on alternates between speed states about 1.5x apart for
  // seconds at a time; a median then reports which state dominated the
  // run. The suite timings are therefore built from each kernel's fastest
  // cold synthesis in the run, with the pass median printed beside them.
  std::vector<double> pass_ms;
  std::vector<double> best_kernel_ms(inputs.size(),
                                     std::numeric_limits<double>::infinity());
  for (const Pass& pass : untraced) {
    pass_ms.push_back(pass.wall_ms);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      best_kernel_ms[k] = std::min(best_kernel_ms[k], pass.outcomes[k].ms);
    }
  }
  const auto n_passes = static_cast<std::int64_t>(pass_ms.size());
  double synth_ms = 0.0;  // one pass at every kernel's fastest
  for (const double ms : best_kernel_ms) synth_ms += ms;
  std::cout << "untraced passes: " << n_passes << ", fastest "
            << *std::min_element(pass_ms.begin(), pass_ms.end())
            << " ms, median " << median(pass_ms)
            << " ms, sum of per-kernel fastest " << synth_ms << " ms\n";

  if (!args.trace) {
    std::vector<double> cycles;
    for (const Outcome& o : reference) {
      cycles.push_back(static_cast<double>(o.simulated_cycles));
    }
    const std::string of_passes =
        "each kernel's fastest of " + std::to_string(n_passes) + " passes";
    table.add("setup_s", median(setup_s), "s", kSetupRepeats);
    table.add("synth_s", synth_ms / 1000.0, "s", n_passes, of_passes);
    table.add("design_cycles_geomean", geomean(cycles), "cycles", 0,
              "exact, over the 7 kernels");
    table.add("peak_rss_mb", peak_rss_mb(), "MiB");
    table.add("req_per_s",
              1000.0 * static_cast<double>(inputs.size()) / synth_ms,
              "1/s", n_passes, "kernel syntheses per second at synth_s");
    table.add("latency_ms_p50", median(best_kernel_ms), "ms", n_passes,
              "over the 7 kernels' fastest syntheses");
    table.add("latency_ms_p99", percentile(best_kernel_ms, 0.99), "ms",
              n_passes, "the slowest kernel's fastest synthesis");
    return;
  }

  // Per-layer figures come from the fastest traced pass, so its stages
  // plus core.unattributed_ms add up to bench.traced_synth_s exactly.
  const Pass& best = *std::min_element(
      traced.begin(), traced.end(),
      [](const Pass& a, const Pass& b) { return a.wall_ms < b.wall_ms; });
  const std::map<std::string, double> stages =
      stage_ms_of(spans.spans(), best.root_span);
  double attributed = 0.0;
  for (const auto& [name, ms] : stages) attributed += ms;

  std::int64_t regions = 0, candidates = 0, pruned = 0, hits = 0, bytes = 0,
               ir_kernels = 0;
  for (const Outcome& o : best.outcomes) {
    regions += o.region_executions;
    candidates += o.dse.candidates_evaluated;
    pruned += o.dse.candidates_pruned;
    hits += o.dse.cache_hits;
    bytes += o.code_bytes;
    ir_kernels += o.ir_kernels;
  }
  auto stage_ms = [&](const char* name) {
    const auto it = stages.find(name);
    return it == stages.end() ? 0.0 : it->second;
  };
  const auto n_traced = static_cast<std::int64_t>(traced.size());
  table.add("bench.traced_synth_s", best.wall_ms / 1000.0, "s", n_traced,
            "the fastest replayed pass");
  table.add("frontend.parse_ms", stage_ms("frontend/parse"), "ms");
  table.add("core.init_ms", stage_ms("core/init"), "ms");
  table.add("dse.baseline_ms", stage_ms("dse/baseline"), "ms");
  table.add("dse.heterogeneous_ms", stage_ms("dse/heterogeneous"), "ms");
  table.add("dse.temporal_ms", stage_ms("dse/temporal"), "ms");
  table.add("analysis.verify_design_ms", stage_ms("analysis/verify_design"),
            "ms");
  table.add("sim.simulate_ms", stage_ms("sim/simulate"), "ms");
  table.add("codegen.emit_ms", stage_ms("codegen/emit"), "ms");
  table.add("codegen.validate_ms", stage_ms("codegen/validate"), "ms");
  table.add("analysis.verify_ir_ms", stage_ms("analysis/verify_ir"), "ms");
  table.add("core.unattributed_ms", best.wall_ms - attributed, "ms", 0,
            "pass wall time minus the stages above");
  table.add("sim.region_executions", static_cast<double>(regions), "count");
  table.add("dse.candidates", static_cast<double>(candidates), "count");
  table.add("dse.pruned", static_cast<double>(pruned), "count");
  table.add("dse.cache_hits", static_cast<double>(hits), "count");
  table.add("dse.cache_hit_ratio",
            candidates > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(candidates)
                           : 0.0,
            "ratio", 0, "dse.cache_hits / dse.candidates");
  table.add("analysis.ir_kernels", static_cast<double>(ir_kernels), "count");
  table.add("codegen.bytes", static_cast<double>(bytes), "bytes");
  table.add("model.error_pct", model_error_pct(reference), "%", 0,
            "mean |predicted - simulated| / simulated, selected designs");
  table.add("bench.trace_overhead_pct",
            100.0 * (best.wall_ms /
                         *std::min_element(pass_ms.begin(), pass_ms.end()) -
                     1.0),
            "%", n_traced,
            "fastest replayed pass vs fastest Framework::synthesize pass");
}

}  // namespace perfbench
