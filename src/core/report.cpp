#include "core/report.hpp"

#include <algorithm>

#include "fpga/power.hpp"

#include "support/strings.hpp"
#include "support/table.hpp"

namespace scl::core {

namespace {

std::string describe_config(const sim::DesignConfig& config, int dims) {
  return config.summary(dims);
}

void add_resource_rows(TableWriter* table, const char* label,
                       const DesignPoint& point) {
  const fpga::ResourceVector& r = point.resources.total;
  table->add_row({label, format_thousands(r.ff), format_thousands(r.lut),
                  format_thousands(r.dsp), format_thousands(r.bram18)});
}

std::string phase_table(const sim::SimResult& sim) {
  const sim::PhaseBreakdown& p = sim.phases;
  const double total = static_cast<double>(p.total());
  if (total <= 0.0) return "";
  TableWriter table({"phase", "cycles", "share"});
  auto row = [&](const char* name, std::int64_t v) {
    table.add_row({name, format_thousands(v),
                   format_fixed(100.0 * static_cast<double>(v) / total, 1) +
                       "%"});
  };
  row("launch", p.launch);
  row("global-memory read", p.mem_read);
  row("global-memory write", p.mem_write);
  row("compute (owned cells)", p.compute_own);
  row("compute (redundant cone)", p.compute_redundant);
  row("pipe transfer (exposed)", p.pipe_transfer);
  row("pipe stall / halo wait", p.pipe_stall);
  row("barrier wait", p.barrier_wait);
  return table.to_markdown();
}

}  // namespace

std::string render_markdown_report(const SynthesisReport& report,
                                   MarkdownReportOptions options) {
  const int dims = report.features.dims;
  std::string out;
  out += str_cat("# stencilcl synthesis report — ", report.features.name,
                 "\n\n");
  out += str_cat("- **Algorithm:** ", report.features.to_string(), "\n");
  out += str_cat("- **Baseline design:** ",
                 describe_config(report.baseline.config, dims), "\n");
  out += str_cat("- **Heterogeneous design:** ",
                 describe_config(report.heterogeneous.config, dims), "\n");
  if (report.temporal) {
    out += str_cat("- **Temporal design:** ",
                   describe_config(report.temporal->config, dims), "\n");
  }
  out += str_cat("- **Selected family:** ",
                 arch::to_string(report.selected_family), "\n");
  if (report.speedup > 0.0) {
    out += str_cat("- **Simulated speedup:** ",
                   format_speedup(report.speedup), "\n");
  }
  out += "\n## Latency\n\n";
  {
    TableWriter table({"design", "predicted cycles", "simulated cycles",
                       "simulated ms"});
    auto row = [&](const char* label, const DesignPoint& point,
                   const sim::SimResult& sim) {
      table.add_row(
          {label,
           format_thousands(
               static_cast<long long>(point.prediction.total_cycles)),
           sim.total_cycles > 0 ? format_thousands(sim.total_cycles) : "-",
           sim.total_cycles > 0 ? format_fixed(sim.total_ms, 2) : "-"});
    };
    row("baseline", report.baseline, report.baseline_sim);
    row("heterogeneous", report.heterogeneous, report.heterogeneous_sim);
    if (report.temporal) {
      row("temporal", *report.temporal, report.temporal_sim);
    }
    out += table.to_markdown();
  }
  if (report.heterogeneous_sim.total_cycles > 0) {
    // Effective arithmetic throughput over owned cell updates.
    const double flops =
        static_cast<double>(report.features.ops_per_cell.total());
    auto gflops = [&](const sim::SimResult& sim_result) {
      return flops * static_cast<double>(sim_result.cells_owned) /
             (sim_result.total_ms * 1e6);
    };
    out += str_cat("\nEffective throughput: baseline ",
                   format_fixed(gflops(report.baseline_sim), 2),
                   " GFLOP/s, heterogeneous ",
                   format_fixed(gflops(report.heterogeneous_sim), 2),
                   " GFLOP/s (owned cell updates only).\n");
  }

  if (report.heterogeneous_sim.total_cycles > 0) {
    // First-order energy comparison (extension; see fpga/power.hpp).
    const fpga::PowerModel power(report.device);
    auto energy = [&](const DesignPoint& point,
                      const sim::SimResult& sim_result) {
      const double total = static_cast<double>(sim_result.phases.total());
      const double compute_activity =
          total > 0 ? static_cast<double>(sim_result.phases.compute_own +
                                          sim_result.phases.compute_redundant) /
                          total
                    : 0.0;
      const double memory_activity =
          total > 0 ? static_cast<double>(sim_result.phases.mem_read +
                                          sim_result.phases.mem_write) /
                          total
                    : 0.0;
      return power.energy_joules(point.resources.total, compute_activity,
                                 memory_activity, sim_result.total_ms);
    };
    const double base_j = energy(report.baseline, report.baseline_sim);
    const double het_j =
        energy(report.heterogeneous, report.heterogeneous_sim);
    out += str_cat("Estimated energy: baseline ", format_fixed(base_j, 1),
                   " J, heterogeneous ", format_fixed(het_j, 1), " J (",
                   format_speedup(base_j / het_j),
                   " better energy efficiency).\n");
  }

  out += "\n## Resources\n\n";
  {
    TableWriter table({"design", "FF", "LUT", "DSP", "BRAM18"});
    add_resource_rows(&table, "baseline", report.baseline);
    add_resource_rows(&table, "heterogeneous", report.heterogeneous);
    out += table.to_markdown();
  }

  if (report.dse.candidates_evaluated > 0) {
    out += "\n## Design-space exploration\n\n";
    TableWriter table({"metric", "value"});
    table.add_row({"candidates evaluated",
                   format_thousands(report.dse.candidates_evaluated)});
    // Deterministic (the bound/keep phase is serial), so not gated on
    // include_timing like the throughput rows.
    table.add_row({"candidates pruned",
                   format_thousands(report.dse.candidates_pruned)});
    if (options.include_timing) {
      table.add_row({"worker threads", std::to_string(report.dse.threads)});
      table.add_row({"wall-clock",
                     str_cat(format_fixed(report.dse.wall_seconds, 3), " s")});
      table.add_row({"candidates/sec",
                     format_thousands(static_cast<std::int64_t>(
                         report.dse.candidates_per_sec()))});
    }
    out += table.to_markdown();
  }

  if (!report.frontier.empty()) {
    out += "\n## Latency/BRAM trade-off (retained Pareto front)\n\n";
    out += "Feasible designs the search evaluated that are Pareto-optimal "
           "in (predicted cycles, BRAM18); the first row is the reported "
           "optimum's latency class. With pruning on, bounds more than "
           "10% above the incumbent were discarded unevaluated, so the "
           "high-latency/low-BRAM tail is intentionally absent.\n\n";
    constexpr std::size_t kMaxFrontierRows = 12;
    TableWriter table({"family", "config", "predicted cycles", "BRAM18"});
    const std::size_t rows =
        std::min(report.frontier.size(), kMaxFrontierRows);
    for (std::size_t i = 0; i < rows; ++i) {
      const DesignPoint& point = report.frontier[i];
      table.add_row(
          {arch::to_string(point.config.family),
           describe_config(point.config, dims),
           format_thousands(
               static_cast<long long>(point.prediction.total_cycles)),
           format_thousands(point.resources.total.bram18)});
    }
    out += table.to_markdown();
    if (report.frontier.size() > kMaxFrontierRows) {
      out += str_cat("\n(", report.frontier.size() - kMaxFrontierRows,
                     " more point(s) on the front.)\n");
    }
  }

  if (report.baseline_sim.total_cycles > 0) {
    out += "\n## Execution-phase breakdown (baseline)\n\n";
    out += phase_table(report.baseline_sim);
    out += "\n## Execution-phase breakdown (heterogeneous)\n\n";
    out += phase_table(report.heterogeneous_sim);
  }

  if (!report.analysis.empty()) {
    out += "\n## Design verification\n\n";
    out += str_cat("- ", report.analysis.error_count(), " error(s), ",
                   report.analysis.warning_count(), " warning(s), ",
                   static_cast<std::int64_t>(report.analysis.size()),
                   " diagnostic(s) total\n\n```\n",
                   report.analysis.render_text(), "```\n");
  } else {
    out += "\n## Design verification\n\nNo diagnostics: pipe graph, halo "
           "coverage, generated bounds and the resource model all check "
           "out.\n";
  }

  if (!report.code.kernel_source.empty()) {
    out += str_cat("\n## Generated code\n\n- ", report.code.kernel_count,
                   " OpenCL kernels, ", report.code.pipe_count,
                   " pipes\n- kernel source: ",
                   count_occurrences(report.code.kernel_source, "\n"),
                   " lines\n- host source: ",
                   count_occurrences(report.code.host_source, "\n"),
                   " lines\n");
  }
  return out;
}

}  // namespace scl::core
