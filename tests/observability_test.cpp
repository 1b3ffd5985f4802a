#include "support/observability/metrics.hpp"
#include "support/observability/span_tracer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/family.hpp"
#include "fpga/device.hpp"
#include "sim/executor.hpp"
#include "stencil/kernels.hpp"
#include "support/error.hpp"
#include "support/observability/observability.hpp"

namespace scl::support::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAcrossShards) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("events_total");
  counter.increment();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(MetricsTest, ConcurrentCounterIncrementsAreNotLost) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("contended_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.increment();
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("depth");
  gauge.set(7.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
  gauge.add(-2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.5);
}

// ---------------------------------------------------------------------------
// Histogram bucket and percentile math
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketsFollowLeSemantics) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {10.0, 20.0, 30.0});
  histogram.observe(10.0);  // exactly on a bound lands in that bucket
  histogram.observe(10.5);
  histogram.observe(31.0);  // past every bound: +Inf overflow
  const Histogram::Snapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 0);
  EXPECT_EQ(snap.counts[3], 1);
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 51.5);
}

TEST(MetricsTest, PercentileInterpolatesInsideTheBucket) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {10.0, 20.0, 30.0});
  for (int i = 0; i < 4; ++i) histogram.observe(5.0);
  for (int i = 0; i < 4; ++i) histogram.observe(15.0);
  for (int i = 0; i < 2; ++i) histogram.observe(25.0);
  // p50: rank 5 of 10 is the 1st of 4 observations in (10, 20].
  EXPECT_DOUBLE_EQ(histogram.percentile(0.50), 12.5);
  // p95: rank 10 is the last observation of the (20, 30] bucket.
  EXPECT_DOUBLE_EQ(histogram.percentile(0.95), 30.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 2.5);
}

TEST(MetricsTest, PercentileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {1.0});
  EXPECT_DOUBLE_EQ(histogram.percentile(0.5), 0.0);
}

TEST(MetricsTest, PercentileInOverflowClampsToLastBound) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {1.0, 2.0});
  histogram.observe(50.0);
  histogram.observe(60.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.99), 2.0);
}

TEST(MetricsTest, ConcurrentObservationsAreNotLost) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("lat", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.observe(1.0);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::int64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter& first = registry.counter("hits_total", "first help wins");
  Counter& second = registry.counter("hits_total", "ignored");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(MetricsTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("value");
  EXPECT_THROW(registry.gauge("value"), Error);
  EXPECT_THROW(registry.histogram("value", {1.0}), Error);
}

TEST(MetricsTest, InvalidNamesAndBoundsThrow) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter(""), Error);
  EXPECT_THROW(registry.counter("9starts_with_digit"), Error);
  EXPECT_THROW(registry.counter("has space"), Error);
  EXPECT_THROW(registry.histogram("h", {}), Error);
  EXPECT_THROW(registry.histogram("h", {2.0, 1.0}), Error);
  EXPECT_THROW(registry.histogram("h", {1.0, 1.0}), Error);
}

TEST(MetricsTest, ExpositionGolden) {
  MetricsRegistry registry;
  registry.counter("requests_total", "jobs accepted").add(3);
  Histogram& histogram =
      registry.histogram("lat_ms", {1.0, 2.0}, "turnaround");
  histogram.observe(0.5);
  histogram.observe(1.5);
  histogram.observe(9.0);
  const std::string expected =
      "# HELP lat_ms turnaround\n"
      "# TYPE lat_ms histogram\n"
      "lat_ms_bucket{le=\"1\"} 1\n"
      "lat_ms_bucket{le=\"2\"} 2\n"
      "lat_ms_bucket{le=\"+Inf\"} 3\n"
      "lat_ms_sum 11\n"
      "lat_ms_count 3\n"
      "# HELP requests_total jobs accepted\n"
      "# TYPE requests_total counter\n"
      "requests_total 3\n";
  EXPECT_EQ(registry.render_exposition(), expected);
}

TEST(MetricsTest, ExpositionRendersNonIntegerValues) {
  MetricsRegistry registry;
  registry.gauge("ratio").set(0.25);
  EXPECT_EQ(registry.render_exposition(),
            "# TYPE ratio gauge\nratio 0.25\n");
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(SpanTracerTest, DisabledTracerRecordsNothing) {
  SpanTracer tracer;
  { const auto scope = tracer.span("ignored", "test"); }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(SpanTracerTest, NestedScopesRecordParentAndDepth) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  {
    const auto outer = tracer.span("outer", "test");
    {
      const auto inner = tracer.span("inner", "test");
    }
    const auto sibling = tracer.span("sibling", "test");
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Spans land in completion order: inner, sibling, outer.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "sibling");
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_EQ(spans[2].depth, 0);
  EXPECT_EQ(spans[0].parent_id, spans[2].id);
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);
  EXPECT_EQ(spans[1].depth, 1);
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.end_ns, span.begin_ns);
  }
}

TEST(SpanTracerTest, IndependentTracersNestIndependently) {
  SpanTracer a;
  SpanTracer b;
  a.set_enabled(true);
  b.set_enabled(true);
  {
    const auto outer = a.span("a_outer", "test");
    const auto other = b.span("b_root", "test");
  }
  const std::vector<SpanRecord> b_spans = b.snapshot();
  ASSERT_EQ(b_spans.size(), 1u);
  EXPECT_EQ(b_spans[0].parent_id, 0u);  // a's open span is not b's parent
  EXPECT_EQ(b_spans[0].depth, 0);
}

TEST(SpanTracerTest, MovedScopeRecordsExactlyOnce) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  {
    auto scope = tracer.span("moved", "test");
    const auto stolen = std::move(scope);
  }
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(SpanTracerTest, RingOverflowKeepsNewestAndCountsDropped) {
  SpanTracer tracer(3);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    SpanRecord record;
    record.name = "s" + std::to_string(i);
    record.id = i;
    tracer.record(std::move(record));
  }
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 3u);
  EXPECT_EQ(spans[1].id, 4u);
  EXPECT_EQ(spans[2].id, 5u);
}

TEST(SpanTracerTest, ConcurrentSpansAllLand) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto scope = tracer.span("work", "test");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(SpanTracerTest, ClearResetsRingAndIds) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  { const auto scope = tracer.span("before", "test"); }
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0);
  { const auto scope = tracer.span("after", "test"); }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, 1u);  // id counter restarted
}

TEST(SpanTracerTest, ChromeJsonGolden) {
  SpanTracer tracer;
  SpanRecord record;
  record.name = "parse";
  record.category = "frontend";
  record.begin_ns = 1500;
  record.end_ns = 3500;
  record.id = 1;
  record.parent_id = 0;
  record.depth = 0;
  record.thread_index = 0;
  tracer.record(std::move(record));
  const std::string expected =
      "{\"traceEvents\":[{\"name\":\"parse\",\"cat\":\"frontend\","
      "\"ph\":\"X\",\"ts\":1.500,\"dur\":2.000,\"pid\":1,\"tid\":0,"
      "\"args\":{\"id\":1,\"parent\":0,\"depth\":0}}],"
      "\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(tracer.render_chrome_json(), expected);
}

TEST(SpanTracerTest, EmptyTraceIsStillValidChromeJson) {
  SpanTracer tracer;
  EXPECT_EQ(tracer.render_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

// ---------------------------------------------------------------------------
// Pipeline instrumentation
// ---------------------------------------------------------------------------

TEST(SimMetricsTest, EachRunCountsOnceWithItsOwnCycles) {
  // A temporal run simulates its spatial twin for the functional field
  // contents; that inner simulation is not a run of its own.
  set_enabled(true);
  Counter& runs = metrics().counter("scl_sim_runs_total");
  Counter& modeled = metrics().counter("scl_sim_modeled_cycles_total");
  Histogram& wall =
      metrics().histogram("scl_sim_wall_ms", default_latency_ms_buckets());
  const auto program = stencil::make_jacobi2d(32, 24, 4);
  const sim::Executor exec(fpga::virtex7_690t());
  for (const auto family :
       {arch::DesignFamily::kPipeTiling, arch::DesignFamily::kTemporalShift}) {
    sim::DesignConfig config;
    config.family = family;
    config.fused_iterations = 2;
    config.tile_size = {32, 8, 1};
    for (const auto mode :
         {sim::SimMode::kFunctional, sim::SimMode::kTimingOnly}) {
      const std::int64_t runs_before = runs.value();
      const std::int64_t modeled_before = modeled.value();
      const std::int64_t wall_before = wall.count();
      const sim::SimResult result = exec.run(program, config, mode);
      SCOPED_TRACE(testing::Message() << arch::to_string(family) << " mode "
                                      << static_cast<int>(mode));
      EXPECT_EQ(runs.value() - runs_before, 1);
      EXPECT_EQ(modeled.value() - modeled_before, result.total_cycles);
      EXPECT_EQ(wall.count() - wall_before, 1);
    }
  }
  set_enabled(false);
}

}  // namespace
}  // namespace scl::support::obs
