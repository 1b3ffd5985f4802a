// bench_e2e: the stage-attributed end-to-end benchmark. Usually launched
// by perfbench/run.py, which builds it first:
//
//   bench_e2e --workload suite-ddr|suite-hbm|daemon-mixed --seed N
//             --seconds S --trace 0|1 --metrics BENCHMARK.json
//
// Untraced runs print the end-to-end metrics BENCHMARK.json declares,
// traced runs the per-layer ones (and write their spans to
// spans-<workload>-seed<N>.json in the working directory). The last stdout
// line is the JSON result; the exit code is non-zero when any correctness
// check failed.
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "fpga/device.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what()
              << "\nusage: bench_e2e --workload suite-ddr|suite-hbm|"
                 "daemon-mixed --seed N --seconds S --trace 0|1 "
                 "--metrics BENCHMARK.json\n";
    return 2;
  }
  try {
    const DeclaredMetrics declared = load_declared_metrics(args.metrics_path);
    SpanRecorder spans(args.trace);
    Gate gate;
    MetricTable table;
    if (args.workload == "suite-ddr") {
      run_suite(args, scl::fpga::virtex7_690t(), spans, gate, table);
    } else if (args.workload == "suite-hbm") {
      run_suite(args, scl::fpga::find_device("xcu280"), spans, gate, table);
    } else if (args.workload == "daemon-mixed") {
      run_daemon_mixed(args, spans, gate, table);
    } else {
      std::cerr << "bench_e2e: unknown workload " << args.workload << "\n";
      return 2;
    }
    table.complete(args.trace ? declared.per_layer : declared.end_to_end,
                   args.trace);
    table.print_table(args.trace ? "per-layer metrics (traced run):"
                                 : "end-to-end metrics (untraced run):");
    std::cout << "failed_share: "
              << (gate.attempted() > 0
                      ? static_cast<double>(gate.failed()) /
                            static_cast<double>(gate.attempted())
                      : 1.0)
              << " (" << gate.failed() << " failed / " << gate.attempted()
              << " attempted)\n";
    if (args.trace) {
      const std::string path =
          "spans-" + args.workload + "-seed" + std::to_string(args.seed) +
          ".json";
      spans.write_json(path);
      std::cout << "spans: " << spans.spans().size() << " written to "
                << path << "\n";
    }
    std::cout << table.result_line(gate) << std::endl;
    return gate.failed() == 0 && gate.attempted() > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
