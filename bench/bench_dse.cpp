// Design-space-exploration throughput: candidates/sec and parallel
// speedup of the evaluation engine.
//
// For every benchmark of Table 2 at the paper's input scale, runs the
// full DSE across both design families — the pipe-tiling searches
// (baseline + heterogeneous under the baseline's budget) and the
// temporal-blocked shift-register search — serially and at increasing
// thread counts, each on a fresh optimizer. Each (thread count, family)
// pair gets one row.
//
// Before any timing is trusted, the chosen designs — in both families —
// are asserted bit-identical across thread counts AND with
// branch-and-bound pruning disabled — the two halves of the determinism
// contract.
//
// After the thread sweep, an HBM device leg runs one serial cold DSE
// per multi-bank part (xcu280, s10mx) per benchmark: those devices open
// the spatial-replication axis (R PE copies on disjoint bank groups),
// so their candidate spaces — and throughputs — differ from the DDR
// rows above. Their JSON rows carry a "device" field, which the perf
// gate folds into the key and treats as load-bearing: a vanished
// device row fails CI even at sub-floor wall times.
//
// Output: a human-readable table on stdout plus one JSON row per
// (kernel, thread count, family[, device]) appended to
// BENCH_dse.json in the working directory, for the benchmark
// trajectory.
//
//   --json <file>      write rows there instead, truncating first (the
//                      perf-gate baselines want a fresh file per run)
//   --threads <list>   comma-separated thread counts (default: 1,2,4,8
//                      clamped to the hardware); the serial run always
//                      happens first as the determinism/speedup base
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "fpga/device.hpp"
#include "stencil/kernels.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

struct DseRun {
  scl::core::DesignPoint baseline;
  scl::core::DesignPoint heterogeneous;
  scl::core::DesignPoint temporal;
  scl::core::DseStats spatial_stats;   // baseline + heterogeneous searches
  scl::core::DseStats temporal_stats;  // temporal cascade search
};

scl::core::DseStats diff(const scl::core::DseStats& after,
                         const scl::core::DseStats& before) {
  scl::core::DseStats d = after;
  d.candidates_evaluated -= before.candidates_evaluated;
  d.candidates_pruned -= before.candidates_pruned;
  d.wall_seconds -= before.wall_seconds;
  return d;
}

/// One full DSE on `optimizer` — both families — reporting the stat
/// deltas split per family.
DseRun run_searches(const scl::core::Optimizer& optimizer) {
  scl::core::DseStats mark = optimizer.dse_stats();
  DseRun run;
  run.baseline = optimizer.optimize_baseline();
  run.heterogeneous = optimizer.optimize_heterogeneous(run.baseline);
  run.spatial_stats = diff(optimizer.dse_stats(), mark);
  mark = optimizer.dse_stats();
  run.temporal = optimizer.optimize_temporal();
  run.temporal_stats = diff(optimizer.dse_stats(), mark);
  return run;
}

/// run_searches with heterogeneous infeasibility tolerated: on banked
/// parts the baseline winner may spend the whole BRAM budget on spatial
/// replication, leaving no pipe redistribution inside the baseline cap.
/// The baseline then stands in as the pipe-tiling winner, matching
/// Framework::synthesize's fallback.
DseRun run_searches_banked(const scl::core::Optimizer& optimizer) {
  scl::core::DseStats mark = optimizer.dse_stats();
  DseRun run;
  run.baseline = optimizer.optimize_baseline();
  try {
    run.heterogeneous = optimizer.optimize_heterogeneous(run.baseline);
  } catch (const scl::ResourceError&) {
    run.heterogeneous = run.baseline;
  }
  run.spatial_stats = diff(optimizer.dse_stats(), mark);
  mark = optimizer.dse_stats();
  run.temporal = optimizer.optimize_temporal();
  run.temporal_stats = diff(optimizer.dse_stats(), mark);
  return run;
}

bool same_designs(const DseRun& a, const DseRun& b) {
  return a.baseline.config == b.baseline.config &&
         a.heterogeneous.config == b.heterogeneous.config &&
         a.temporal.config == b.temporal.config &&
         a.baseline.prediction.total_cycles ==
             b.baseline.prediction.total_cycles &&
         a.heterogeneous.prediction.total_cycles ==
             b.heterogeneous.prediction.total_cycles &&
         a.temporal.prediction.total_cycles ==
             b.temporal.prediction.total_cycles;
}

std::string json_row(const std::string& kernel, const char* family,
                     const scl::core::DseStats& stats, double speedup,
                     const std::string& device = "", int replication = 0) {
  // Rows on the default device carry no "device" field so historical
  // perf-gate keys stay stable; device-tagged rows get a suffixed key
  // (and the gate fails hard when a tagged row vanishes).
  const std::string device_field =
      device.empty() ? std::string()
                     : scl::str_cat(",\"device\":\"", device, "\"");
  const std::string replication_field =
      replication > 0 ? scl::str_cat(",\"replication\":", replication)
                      : std::string();
  return scl::str_cat(
      "{\"bench\":\"dse\",\"kernel\":\"", kernel, "\",\"mode\":\"cold\"",
      ",\"family\":\"", family, "\"", device_field,
      ",\"threads\":", stats.threads,
      ",\"candidates\":", stats.candidates_evaluated,
      ",\"pruned\":", stats.candidates_pruned,
      ",\"wall_seconds\":", scl::format_fixed(stats.wall_seconds, 4),
      ",\"candidates_per_sec\":",
      scl::format_fixed(stats.candidates_per_sec(), 1),
      ",\"speedup_vs_serial\":", scl::format_fixed(speedup, 3),
      replication_field, "}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<int> requested_threads;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      for (const std::string& tok : scl::split(argv[++i], ',')) {
        const int t = std::stoi(tok);
        if (t < 1) {
          std::cerr << "--threads wants counts >= 1\n";
          return 2;
        }
        requested_threads.push_back(t);
      }
    } else {
      std::cerr << "usage: bench_dse [--json <file>] [--threads <list>]\n";
      return 2;
    }
  }

  std::cout << "==== DSE throughput: parallel candidate evaluation ====\n\n";
  const int max_threads = scl::ThreadPool::resolve_threads(0);
  std::vector<int> thread_counts = requested_threads;
  if (thread_counts.empty()) {
    thread_counts.push_back(1);
    for (const int t : {2, 4, 8}) {
      if (t <= max_threads) thread_counts.push_back(t);
    }
  }
  std::cout << "hardware threads available: " << max_threads << "\n\n";

  scl::TableWriter table({"Benchmark", "Threads", "Family", "Candidates",
                          "Pruned", "Wall (s)", "Cand./s", "Speedup"});
  std::ofstream json(json_path.empty() ? "BENCH_dse.json" : json_path,
                     json_path.empty() ? std::ios::app : std::ios::trunc);
  bool deterministic = true;

  for (const scl::stencil::BenchmarkInfo& info :
       scl::stencil::paper_benchmarks()) {
    const scl::stencil::StencilProgram program = info.make_paper_scale();

    scl::core::OptimizerOptions serial_options;
    serial_options.threads = 1;
    const scl::core::Optimizer serial_optimizer(program, serial_options);
    DseRun serial_cold;
    try {
      serial_cold = run_searches(serial_optimizer);
    } catch (const scl::Error& e) {
      std::cout << info.name << ": FAILED (" << e.what() << ")\n";
      continue;
    }

    // Determinism half 2: branch-and-bound may only skip candidates that
    // provably cannot win, so the exhaustive search must choose the
    // byte-identical designs.
    scl::core::OptimizerOptions exhaustive_options = serial_options;
    exhaustive_options.prune = false;
    const scl::core::Optimizer exhaustive(program, exhaustive_options);
    if (!same_designs(run_searches(exhaustive), serial_cold)) {
      std::cout << info.name
                << ": NONDETERMINISTIC — pruning changed the optimum\n";
      deterministic = false;
    }

    for (const int threads : thread_counts) {
      DseRun cold;
      if (threads == 1) {
        cold = serial_cold;
      } else {
        scl::core::OptimizerOptions options;
        options.threads = threads;
        const scl::core::Optimizer optimizer(program, options);
        cold = run_searches(optimizer);
        if (!same_designs(cold, serial_cold)) {
          std::cout << info.name << ": NONDETERMINISTIC at " << threads
                    << " threads\n";
          deterministic = false;
        }
      }
      // Speedups compare per family, since the two searches sweep spaces
      // of very different sizes.
      auto speedup_vs = [](const scl::core::DseStats& run,
                           const scl::core::DseStats& base) {
        return run.wall_seconds > 0.0 ? base.wall_seconds / run.wall_seconds
                                      : 0.0;
      };
      const struct {
        const char* family;
        const scl::core::DseStats* stats;
        double speedup;
      } rows[] = {
          {"pipe-tiling", &cold.spatial_stats,
           speedup_vs(cold.spatial_stats, serial_cold.spatial_stats)},
          {"temporal-shift", &cold.temporal_stats,
           speedup_vs(cold.temporal_stats, serial_cold.temporal_stats)},
      };
      for (const auto& row : rows) {
        const scl::core::DseStats& stats = *row.stats;
        table.add_row(
            {info.name, std::to_string(threads), row.family,
             std::to_string(stats.candidates_evaluated),
             std::to_string(stats.candidates_pruned),
             scl::format_fixed(stats.wall_seconds, 3),
             scl::format_thousands(
                 static_cast<long long>(stats.candidates_per_sec())),
             scl::format_speedup(row.speedup)});
        if (json) {
          json << json_row(info.name, row.family, stats, row.speedup) << "\n";
        }
      }
    }
  }

  std::cout << table.to_text() << "\n";

  // HBM device leg: the replication axis (spatial PE copies on disjoint
  // bank groups) only opens on multi-bank parts, so every row above —
  // all on the default DDR board — leaves it unexercised. One serial
  // cold DSE per HBM part per benchmark pins the throughput of the
  // widened space, plus the replication factor each winner settled on.
  // These rows carry a "device" field; scripts/perf_gate.py folds it
  // into the key and fails hard when a tagged row goes missing.
  std::cout << "==== HBM device leg: replicated design spaces ====\n\n";
  scl::TableWriter hbm_table({"Benchmark", "Device", "Family", "Candidates",
                              "Pruned", "Wall (s)", "Cand./s", "Winner R"});
  for (const char* device_name : {"xcu280", "s10mx"}) {
    for (const scl::stencil::BenchmarkInfo& info :
         scl::stencil::paper_benchmarks()) {
      const scl::stencil::StencilProgram program = info.make_paper_scale();
      scl::core::OptimizerOptions options;
      options.threads = 1;
      options.device = scl::fpga::find_device(device_name);
      const scl::core::Optimizer optimizer(program, options);
      DseRun cold;
      try {
        cold = run_searches_banked(optimizer);
      } catch (const scl::Error& e) {
        std::cout << info.name << " on " << device_name << ": FAILED ("
                  << e.what() << ")\n";
        deterministic = false;
        continue;
      }
      // The determinism contract must hold on the widened space too.
      scl::core::OptimizerOptions exhaustive_options = options;
      exhaustive_options.prune = false;
      const scl::core::Optimizer exhaustive(program, exhaustive_options);
      if (!same_designs(run_searches_banked(exhaustive), cold)) {
        std::cout << info.name << " on " << device_name
                  << ": NONDETERMINISTIC — pruning changed the optimum\n";
        deterministic = false;
      }
      const struct {
        const char* family;
        const scl::core::DseStats* stats;
        int replication;
      } rows[] = {
          {"pipe-tiling", &cold.spatial_stats,
           cold.heterogeneous.config.replication},
          {"temporal-shift", &cold.temporal_stats,
           cold.temporal.config.replication},
      };
      for (const auto& row : rows) {
        const scl::core::DseStats& stats = *row.stats;
        hbm_table.add_row(
            {info.name, device_name, row.family,
             std::to_string(stats.candidates_evaluated),
             std::to_string(stats.candidates_pruned),
             scl::format_fixed(stats.wall_seconds, 3),
             scl::format_thousands(
                 static_cast<long long>(stats.candidates_per_sec())),
             std::to_string(row.replication)});
        if (json) {
          json << json_row(info.name, row.family, stats, 1.0, device_name,
                           row.replication)
               << "\n";
        }
      }
    }
  }
  std::cout << hbm_table.to_text() << "\n";

  std::cout << (deterministic
                    ? "determinism: all thread counts (and pruning on/off) "
                      "chose identical designs\n"
                    : "determinism: FAILED — see rows above\n")
            << "\nNotes: every row runs on a fresh optimizer. Speedup\n"
               "compares against the serial row of the same family and is\n"
               "bounded by the machine's core count (see 'hardware threads\n"
               "available' above).\n";
  return deterministic ? 0 : 1;
}
