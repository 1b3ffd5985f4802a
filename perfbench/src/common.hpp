// Shared pieces of the end-to-end benchmark: command line, environment
// stamp, order statistics, the benchmark's own span recorder, the
// correctness gate and the metric table that becomes the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string metrics_path;  ///< the BENCHMARK.json declaring the metrics
  std::string source_digest = "unknown";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --metrics FILE`
/// plus the optional `--source-digest D`. Throws std::invalid_argument on
/// anything else.
Args parse_args(int argc, char** argv);

/// CPUs this process may run on (the affinity mask, as `nproc` counts).
int hw_threads();

/// Refuses (throws std::runtime_error) a configured thread or connection
/// count above hw_threads(): a multi-thread figure recorded on fewer cores
/// measures oversubscription, not parallelism.
void guard_threads(std::string_view what, int configured);

/// Moves the calling thread round the CPUs of the process's affinity mask,
/// one CPU per pin_next() call, and restores the mask when destroyed.
/// Interference on a shared host differs from CPU to CPU and lasts tens
/// of seconds; rotating single-threaded repetitions over every CPU keeps
/// one slowed CPU from setting a whole run's figure.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin_next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Prints the environment stamp line (`env: {...}`) every result carries.
void print_env_stamp(const Args& args, int dse_threads, int workers,
                     int clients);

/// Median, nearest-rank percentile (q in (0,1]) and geometric mean; all
/// return 0 for an empty sample.
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// 64-bit FNV-1a, printed as 16 hex digits.
std::string digest_hex(std::string_view data);

/// The benchmark's own spans around calls into each layer: name, start,
/// end, parent and request id, kept in memory and written out at the
/// end. Disabled recorders keep nothing. Thread-safe.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;  ///< relative to the recorder's epoch
    double end_ms = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root
    std::int64_t request = 0;
  };

  explicit SpanRecorder(bool enabled);

  /// Opens a span and returns its index (-1 when disabled).
  int open(std::string name, int parent, std::int64_t request);
  void close(int index);
  /// Records an already-measured interval.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::int64_t request);

  /// Snapshot; call once recording is finished.
  std::vector<Span> spans() const;

  /// Writes the spans as a JSON array to `path`.
  void write_json(const std::string& path) const;

 private:
  double now_ms() const { return ms_since(epoch_); }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Correctness gate: every check is one attempted operation; a failed
/// check is printed and counted. Thread-safe.
class Gate {
 public:
  /// Counts one operation; returns `ok`.
  bool check(bool ok, std::string_view what);

  std::int64_t attempted() const;
  std::int64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json declares, in its order: every run prints
/// all end-to-end ones (untraced) or all per-layer ones (traced).
struct DeclaredMetrics {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

/// Reads the `end_to_end` and `per_layer` lists of the BENCHMARK.json at
/// `path`. Throws std::runtime_error when it cannot be read.
DeclaredMetrics load_declared_metrics(const std::string& path);

/// Named metrics, printed as a human table and as the result line.
class MetricTable {
 public:
  /// `samples` is the sample count behind a median or percentile (0 for a
  /// count or an exact value); `base` names a ratio's denominator.
  void add(std::string name, double value, std::string unit,
           std::int64_t samples = 0, std::string base = {});

  /// Puts the metrics in `expected` order. A metric the workload did not
  /// produce is added as 0 "absent on this workload" when
  /// `absent_allowed`, and throws std::logic_error otherwise; so does a
  /// unit that differs from the declared one or an undeclared metric.
  void complete(const std::vector<MetricSpec>& expected, bool absent_allowed);

  void print_table(std::string_view title) const;

  /// The last stdout line: {"correct","attempted","failed","metrics"}.
  std::string result_line(const Gate& gate) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::int64_t samples;
    std::string base;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
