// The benchmark's workloads. Each runs its set-up, measures for
// args.seconds, runs its correctness checks into `gate` and fills `table`
// with the end-to-end metrics (args.trace == false) or the per-layer
// metrics (args.trace == true). README.md says why each workload exists.
#pragma once

#include "common.hpp"
#include "fpga/device.hpp"

namespace perfbench {

/// suite-ddr / suite-hbm: closed-loop cold synthesis passes over the
/// seven Table 2 kernels at paper scale on `device`.
void run_suite(const Args& args, const scl::fpga::DeviceSpec& device,
               SpanRecorder& spans, Gate& gate, MetricTable& table);

/// daemon-mixed: an in-process daemon on a Unix socket driven by
/// closed-loop wire clients with a 90% hot / 10% never-seen stream.
void run_daemon_mixed(const Args& args, SpanRecorder& spans, Gate& gate,
                      MetricTable& table);

}  // namespace perfbench
