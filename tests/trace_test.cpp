#include <gtest/gtest.h>

#include "golden_file.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "stencil/kernels.hpp"
#include "support/strings.hpp"

namespace scl::sim {
namespace {

DesignConfig hetero_config() {
  DesignConfig c;
  c.kind = DesignKind::kHeterogeneous;
  c.fused_iterations = 4;
  c.parallelism = {2, 2, 1};
  c.tile_size = {16, 16, 1};
  c.unroll = 2;
  return c;
}

RegionTrace make_trace() {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 8);
  const Executor exec(fpga::virtex7_690t());
  return exec.trace_region(p, hetero_config());
}

TEST(TraceTest, EventsCoverAllPhases) {
  const RegionTrace trace = make_trace();
  ASSERT_FALSE(trace.events.empty());
  bool launch = false, read = false, compute = false, write = false;
  for (const TraceEvent& e : trace.events) {
    if (e.phase == "launch") launch = true;
    if (e.phase == "mem_read") read = true;
    if (starts_with(e.phase, "compute")) compute = true;
    if (e.phase == "mem_write") write = true;
  }
  EXPECT_TRUE(launch);
  EXPECT_TRUE(read);
  EXPECT_TRUE(compute);
  EXPECT_TRUE(write);
}

TEST(TraceTest, PerKernelEventsAreMonotoneAndNonOverlapping) {
  const RegionTrace trace = make_trace();
  std::map<std::string, std::int64_t> last_end;
  for (const TraceEvent& e : trace.events) {
    EXPECT_LT(e.begin, e.end) << e.phase;
    EXPECT_LE(e.end, trace.region_cycles);
    auto it = last_end.find(e.kernel);
    if (it != last_end.end()) {
      EXPECT_GE(e.begin, it->second)
          << e.kernel << " " << e.phase << " overlaps the previous event";
    }
    last_end[e.kernel] = e.end;
  }
  EXPECT_EQ(last_end.size(), 4u);  // 2x2 kernels
}

TEST(TraceTest, BusyCyclesEqualKernelClock) {
  // Every clock advance is traced, so per-kernel busy time must equal the
  // kernel's final clock (the trace is gap-free in accounting terms).
  const RegionTrace trace = make_trace();
  std::map<std::string, std::int64_t> end_clock;
  for (const TraceEvent& e : trace.events) {
    end_clock[e.kernel] = std::max(end_clock[e.kernel], e.end);
  }
  for (const auto& [kernel, clock] : end_clock) {
    EXPECT_EQ(trace.kernel_busy_cycles(kernel), clock) << kernel;
  }
}

TEST(TraceTest, ChromeJsonIsWellFormed) {
  const RegionTrace trace = make_trace();
  const std::string json = trace.to_chrome_json();
  EXPECT_TRUE(starts_with(json, "{\"traceEvents\":["));
  EXPECT_EQ(count_occurrences(json, "{\"name\":"), trace.events.size());
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), trace.events.size());
  // Balanced braces/brackets.
  std::int64_t depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, CsvHasHeaderAndOneRowPerEvent) {
  const RegionTrace trace = make_trace();
  const std::string csv = trace.to_csv();
  EXPECT_EQ(count_occurrences(csv, "\n"), trace.events.size() + 1);
  EXPECT_TRUE(starts_with(csv, "kernel,phase,begin,end"));
}

TEST(TraceTest, HeteroTraceShowsPipeActivity) {
  const RegionTrace trace = make_trace();
  bool pipe_event = false;
  for (const TraceEvent& e : trace.events) {
    if (e.phase == "halo_wait" || e.phase == "pipe_send") pipe_event = true;
  }
  EXPECT_TRUE(pipe_event);
}

TEST(TraceTest, BaselineTraceHasNoPipeEvents) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 8);
  DesignConfig c = hetero_config();
  c.kind = DesignKind::kBaseline;
  const Executor exec(fpga::virtex7_690t());
  const RegionTrace trace = exec.trace_region(p, c);
  for (const TraceEvent& e : trace.events) {
    EXPECT_NE(e.phase, "halo_wait");
    EXPECT_NE(e.phase, "pipe_send");
  }
}

TEST(TraceTest, TracingDoesNotPerturbTiming) {
  const auto p = scl::stencil::make_jacobi2d(64, 64, 8);
  const DesignConfig c = hetero_config();
  const Executor exec(fpga::virtex7_690t());
  const RegionTrace trace = exec.trace_region(p, c);
  // The traced region is the most common shape; with 64/32 = 2 regions per
  // dim all at grid edges... use the run's total as a smoke cross-check:
  const SimResult run = exec.run(p, c, SimMode::kTimingOnly);
  EXPECT_GT(trace.region_cycles, 0);
  EXPECT_LE(trace.region_cycles, run.total_cycles);
}

TEST(TraceTest, EventsMatchTheGoldenFile) {
  // Every (kernel, phase, begin, end) of the traced region of a baseline
  // and a heterogeneous design: the trace sink must see exactly the events
  // and labels the timing path produces, byte for byte.
  const auto p = scl::stencil::make_jacobi2d(64, 64, 8);
  const Executor exec(fpga::virtex7_690t());
  DesignConfig baseline = hetero_config();
  baseline.kind = DesignKind::kBaseline;
  std::string out;
  for (const DesignConfig& c : {baseline, hetero_config()}) {
    const RegionTrace trace = exec.trace_region(p, c);
    out += str_cat("== ", to_string(c.kind), " region_cycles=",
                   trace.region_cycles, "\n");
    for (const TraceEvent& e : trace.events) {
      out += str_cat(e.kernel, " ", e.phase, " ", e.begin, " ", e.end, "\n");
    }
  }
  scl::testing_support::expect_matches_golden(SCL_SIM_TRACE_GOLDEN_PATH,
                                              out);
}

}  // namespace
}  // namespace scl::sim
