#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>

#include "serve/serialize.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace {

std::int64_t parse_int(std::string_view flag, const std::string& text) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty()) {
    throw std::invalid_argument(std::string(flag) + ": not an integer: " +
                                text);
  }
  return value;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const std::int64_t seed = parse_int(flag, value);
      if (seed < 0) throw std::invalid_argument("--seed: must be >= 0");
      args.seed = static_cast<std::uint64_t>(seed);
    } else if (flag == "--seconds") {
      const std::int64_t seconds = parse_int(flag, value);
      if (seconds < 1 || seconds > 600) {
        throw std::invalid_argument("--seconds: must be in [1, 600]");
      }
      args.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace: must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--metrics") {
      args.metrics_path = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (args.metrics_path.empty()) {
    throw std::invalid_argument("--metrics is required");
  }
  return args;
}

int hw_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

void guard_threads(std::string_view what, int configured) {
  const int available = hw_threads();
  if (configured > available) {
    throw std::runtime_error(
        "refusing to run: " + std::string(what) + " = " +
        std::to_string(configured) + " exceeds hw_threads = " +
        std::to_string(available));
  }
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::pin_next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void print_env_stamp(const Args& args, int dse_threads, int workers,
                     int clients) {
  scl::support::JsonWriter json(scl::support::JsonStyle::kCompact);
  json.begin_object();
  json.member("workload", args.workload);
  json.member("seed", static_cast<std::int64_t>(args.seed));
  json.member("trace", args.trace);
  json.member("hw_threads", hw_threads());
  json.member("dse_threads", dse_threads);
  json.member("service_workers", workers);
  json.member("client_connections", clients);
  json.member("build_type", PERFBENCH_BUILD_TYPE);
  json.member("compiler", PERFBENCH_COMPILER);
  json.member("source", args.source_digest);
  json.end_object();
  std::cout << "env: " << json.take() << "\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string digest_hex(std::string_view data) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(scl::serve::fnv1a64(data)));
  return buffer;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

int SpanRecorder::open(std::string name, int parent, std::int64_t request) {
  if (!enabled_) return -1;
  const double start = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start, start, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  const double end = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ms = end;
}

int SpanRecorder::add(std::string name, Clock::time_point start,
                      Clock::time_point end, int parent,
                      std::int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), ms_between(epoch_, start),
                    ms_between(epoch_, end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_json(const std::string& path) const {
  scl::support::JsonWriter json(scl::support::JsonStyle::kCompact);
  json.begin_array();
  for (const Span& span : spans()) {
    json.begin_object();
    json.member("name", span.name);
    json.member("start_ms", span.start_ms);
    json.member("end_ms", span.end_ms);
    json.member("parent", span.parent);
    json.member("request", span.request);
    json.end_object();
  }
  json.end_array();
  std::ofstream out(path);
  out << json.take() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

bool Gate::check(bool ok, std::string_view what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cout << "FAILED: " << what << "\n";
  }
  return ok;
}

std::int64_t Gate::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::int64_t Gate::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

void MetricTable::add(std::string name, double value, std::string unit,
                      std::int64_t samples, std::string base) {
  metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                      std::move(unit), samples, std::move(base)});
}

DeclaredMetrics load_declared_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  auto specs = [](const scl::support::JsonValue& list) {
    std::vector<MetricSpec> out;
    for (const scl::support::JsonValue& m : list.items()) {
      out.push_back({m.at("name").as_string(), m.at("unit").as_string()});
    }
    return out;
  };
  try {
    const auto doc = scl::support::JsonValue::parse(text);
    return {specs(doc.at("end_to_end")), specs(doc.at("per_layer"))};
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void MetricTable::complete(const std::vector<MetricSpec>& expected,
                           bool absent_allowed) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : expected) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    if (it == metrics_.end()) {
      if (!absent_allowed) {
        throw std::logic_error("metric not measured: " + spec.name);
      }
      ordered.push_back(
          {spec.name, 0.0, spec.unit, 0, "absent on this workload"});
      continue;
    }
    if (it->unit != spec.unit) {
      throw std::logic_error("metric " + it->name + " has unit " + it->unit +
                             ", declared " + spec.unit);
    }
    ordered.push_back(std::move(*it));
    metrics_.erase(it);
  }
  if (!metrics_.empty()) {
    throw std::logic_error("undeclared metric: " + metrics_.front().name);
  }
  metrics_ = std::move(ordered);
}

void MetricTable::print_table(std::string_view title) const {
  std::cout << title << "\n";
  for (const Metric& m : metrics_) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-28s %16.6f %-7s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    if (!m.base.empty()) std::cout << " (" << m.base << ")";
    std::cout << "\n";
  }
}

std::string MetricTable::result_line(const Gate& gate) const {
  scl::support::JsonWriter json(scl::support::JsonStyle::kCompact);
  json.begin_object();
  json.member("correct", gate.failed() == 0);
  json.member("attempted", std::max<std::int64_t>(1, gate.attempted()));
  json.member("failed", gate.failed());
  json.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    json.key(m.name).begin_object();
    json.member("value", m.value);
    json.member("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.take();
}

}  // namespace perfbench
