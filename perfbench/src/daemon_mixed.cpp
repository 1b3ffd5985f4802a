// daemon-mixed: an in-process serve::Daemon on a Unix socket with a fresh
// artifact store and the DDR device, driven by closed-loop WireClient
// connections (callers such as build jobs each wait for their reply).
// The seeded stream is 90% hot set — the seven kernels at paper scale,
// prefilled during set-up so they are memory-tier hits — and 10%
// never-seen programs: reduced-scale grid variants of the kernels, each a
// cold synthesis written to disk. Every fourth block of the stream sends
// one never-seen program twice in a row, so two clients ask for it at
// once and the scheduler can coalesce them.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "serve/daemon.hpp"
#include "serve/serialize.hpp"
#include "serve/wire.hpp"
#include "stencil/kernels.hpp"
#include "stencil/parser.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace serve = scl::serve;
namespace stencil = scl::stencil;

/// Set-ups per run, split around the load: the repeats of one stretch of a
/// few seconds all see the same state of a shared host, so their median
/// moved with it from run to run; split, they sample the whole run.
constexpr int kSetupRepeats = 15;
constexpr int kSetupsBeforeLoad = 8;
/// Service workers and client connections: min(kConcurrency, hw_threads).
constexpr int kConcurrency = 4;
/// The load is cut into kWindows equal windows; the end-to-end timings
/// pool the kBestWindows that completed the most responses.
constexpr std::size_t kWindows = 20;
constexpr std::size_t kBestWindows = 5;
/// Every block of the stream holds kBlock requests, kNeverSeenPerBlock of
/// them never-seen programs (10%).
constexpr std::size_t kBlock = 20;
constexpr std::int64_t kNeverSeenPerBlock = 2;
constexpr std::uint64_t kPairEvery = 4;  ///< every 4th block sends a pair
/// Stride through each kernel's variant space; coprime with every space
/// size below (512, 1024, 768), so a kernel's (grid, iteration count)
/// pairs repeat only after the whole space is used.
constexpr std::int64_t kVariantStride = 7919;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return scl::Rng(a ^ (b * 0x9E3779B97F4A7C15ULL)).next_u64();
}

/// One request of the stream: a hot-set kernel, or never-seen variant
/// `ordinal` (unique per program; a pair shares its ordinal).
struct Item {
  bool hot = true;
  std::size_t kernel = 0;
  std::int64_t ordinal = 0;
  bool paired = false;
};

/// The seeded request stream, computed lazily by position so a run of any
/// length draws from the same sequence.
class Stream {
 public:
  Stream(std::uint64_t seed, std::size_t kernels)
      : seed_(seed), kernels_(kernels) {}

  Item at(std::size_t position) const {
    const std::uint64_t block = position / kBlock;
    const std::size_t slot = position % kBlock;
    scl::Rng rng(mix(seed_, block));
    // Never-seen slots sit at even offsets; a pair fills p and p + 1.
    const bool pair = block % kPairEvery == kPairEvery - 1;
    const auto first = static_cast<std::size_t>(2 * rng.uniform_int(0, 9));
    auto second = static_cast<std::size_t>(2 * rng.uniform_int(0, 8));
    if (second >= first) second += 2;
    if (pair) second = first + 1;
    const auto hot_kernel = static_cast<std::size_t>(
        scl::Rng(mix(seed_ ^ 0x5eed, position))
            .uniform_int(0, static_cast<std::int64_t>(kernels_) - 1));
    const auto base = static_cast<std::int64_t>(block) * kNeverSeenPerBlock;
    Item item;
    if (slot == first || slot == second) {
      item.hot = false;
      item.paired = pair;
      item.ordinal = base + (pair || slot == std::min(first, second) ? 0 : 1);
      item.kernel = kernel_of(item.ordinal);
    } else {
      item.kernel = hot_kernel;
    }
    return item;
  }

 private:
  /// Never-seen programs cycle through a seeded permutation of the
  /// kernels, so every run carries the same kernel mix.
  std::size_t kernel_of(std::int64_t ordinal) const {
    const auto n = static_cast<std::int64_t>(kernels_);
    std::vector<std::size_t> perm(kernels_);
    for (std::size_t i = 0; i < kernels_; ++i) perm[i] = i;
    scl::Rng rng(mix(seed_ ^ 0xc0de, static_cast<std::uint64_t>(ordinal / n)));
    for (std::size_t i = kernels_; i > 1; --i) {
      std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(i) - 1))]);
    }
    return perm[static_cast<std::size_t>(ordinal % n)];
  }

  std::uint64_t seed_;
  std::size_t kernels_;
};

/// Reduced-scale grids of the never-seen variants, by dimensionality.
/// Every (kernel, grid, iteration count in [kMinIterations,
/// kMinIterations + kIterationSpan)) combination synthesizes cleanly at
/// the commit that introduced this benchmark; README.md records which
/// other small grids fail pass-4 verification there.
const std::vector<std::array<std::int64_t, 3>>& variant_grids(int dims) {
  static const std::vector<std::array<std::int64_t, 3>> grids[3] = {
      {{4096, 1, 1}, {8192, 1, 1}},
      {{64, 64, 1}, {128, 128, 1}, {256, 256, 1}, {128, 256, 1}},
      {{16, 16, 16}, {32, 32, 32}, {16, 32, 32}}};
  return grids[dims - 1];
}
constexpr std::int64_t kMinIterations = 4;
constexpr std::int64_t kIterationSpan = 256;

/// The `.stencil` text of never-seen variant `ordinal` of `info`: a
/// (grid, iteration count) pair drawn without repetition from the
/// kernel's variant space. Once a run has used the whole space, the next
/// round through it renames the program (`Jacobi-1D r1`, ...): the name
/// only reaches comments of the generated code, so the program
/// synthesizes as the swept one did, yet its text and request key are
/// new. No run length repeats a never-seen program.
std::string variant_text(const stencil::BenchmarkInfo& info,
                         std::uint64_t seed, std::int64_t ordinal,
                         std::size_t kernels) {
  const auto& grids = variant_grids(info.dims);
  const auto n_grids = static_cast<std::int64_t>(grids.size());
  const std::int64_t space = n_grids * kIterationSpan;
  const auto offset = static_cast<std::int64_t>(
      mix(seed, 0xfeed + static_cast<std::uint64_t>(info.dims)) %
      static_cast<std::uint64_t>(space));
  const std::int64_t nth = ordinal / static_cast<std::int64_t>(kernels);
  const std::int64_t index = (offset + nth * kVariantStride) % space;
  std::string text = stencil::program_to_text(
      info.make_scaled(grids[static_cast<std::size_t>(index % n_grids)],
                       kMinIterations + index / n_grids));
  const std::int64_t round = nth / space;
  if (round > 0) {
    const std::string quoted = "\"" + info.name + "\"";
    text.replace(text.find(quoted), quoted.size(),
                 "\"" + info.name + " r" + std::to_string(round) + "\"");
  }
  return text;
}

struct Sample {
  bool hot = false;
  bool cold = false;  ///< answered by a fresh synthesis
  double rtt_ms = 0.0;
  double server_ms = 0.0;  ///< the response's latency_ms
  double parse_ms = 0.0;   ///< local parse_program of the request text
  double at_ms = 0.0;      ///< arrival of the response, from the load's start
};

struct Snapshot {
  serve::DaemonStats daemon;
  serve::ServiceStats service;
  serve::SchedulerStats scheduler;
};

Snapshot snapshot(const serve::Daemon& daemon) {
  return {daemon.stats(), daemon.service().stats(),
          daemon.service().scheduler_stats()};
}

class Harness {
 public:
  Harness(const Args& args, SpanRecorder& spans, Gate& gate)
      : args_(args),
        spans_(spans),
        gate_(gate),
        concurrency_(std::min(kConcurrency, hw_threads())),
        stream_(args.seed, stencil::paper_benchmarks().size()) {
    guard_threads("client connections", concurrency_);
    guard_threads("service workers", concurrency_);
    guard_threads("DSE threads", dse_threads());
    options_.service.threads = concurrency_;
    options_.service.framework.optimizer.device = scl::fpga::virtex7_690t();
    for (const stencil::BenchmarkInfo& info : stencil::paper_benchmarks()) {
      hot_texts_.push_back(stencil::program_to_text(info.make_paper_scale()));
    }
  }

  ~Harness() { stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Service workers, and as many client connections.
  int concurrency() const { return concurrency_; }
  /// Per-job DSE threads; ServiceOptions pins them to 1 (the service
  /// scales across jobs).
  int dse_threads() const {
    return options_.service.framework.optimizer.threads;
  }

  /// Starts a daemon on a fresh store, prefills the hot set and warms the
  /// connection path; returns the seconds it took. Replaces a running
  /// daemon.
  double set_up(int rep) {
    stop();
    const auto start = Clock::now();
    const std::string tag =
        std::to_string(::getpid()) + "-" + std::to_string(rep);
    store_dir_ = "daemon-store-" + tag;
    fs::remove_all(store_dir_);
    options_.socket_path = "stencild-" + tag + ".sock";
    options_.service.store_dir = store_dir_;
    daemon_ = std::make_unique<serve::Daemon>(options_);
    daemon_->start();
    serve::WireClient client;
    client.connect(options_.socket_path);
    for (std::size_t k = 0; k < hot_texts_.size(); ++k) {
      client.send(request(static_cast<std::int64_t>(k) + 1, hot_texts_[k]));
    }
    for (std::size_t k = 0; k < hot_texts_.size(); ++k) {
      const serve::WireResponse response = client.recv();
      const std::string want = key_of(stencil::parse_program(hot_texts_[k]));
      gate_.check(response.ok() && response.key == want &&
                      !response.from_cache,
                  "prefill " + stencil::paper_benchmarks()[k].name +
                      ": cold, with the locally computed key" +
                      error_of(response));
    }
    for (std::size_t k = 0; k < hot_texts_.size(); ++k) {
      client.send(request(static_cast<std::int64_t>(k) + 1, hot_texts_[k]));
      const serve::WireResponse response = client.recv();
      gate_.check(response.ok() && response.from_memory,
                  "warm-up " + stencil::paper_benchmarks()[k].name +
                      ": memory-tier hit" + error_of(response));
    }
    return ms_since(start) / 1000.0;
  }

  /// Closed-loop load for `seconds`; returns the load's wall time, ms.
  double load(double seconds) {
    const auto start = Clock::now();
    const auto deadline = deadline_after(seconds);
    std::atomic<std::size_t> cursor{0};
    std::vector<std::vector<Sample>> per_client(
        static_cast<std::size_t>(concurrency_));
    std::vector<std::thread> threads;
    for (int c = 0; c < concurrency_; ++c) {
      threads.emplace_back([&, c] {
        client_loop(start, cursor, deadline,
                    per_client[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_ms = ms_since(start);
    for (auto& samples : per_client) {
      samples_.insert(samples_.end(), samples.begin(), samples.end());
    }
    return wall_ms;
  }

  const std::vector<Sample>& samples() const { return samples_; }
  serve::Daemon& daemon() { return *daemon_; }

  /// Simulated cycles of each hot-set design as the service serves it.
  std::vector<double> hot_cycles() {
    std::vector<double> cycles;
    for (std::size_t k = 0; k < hot_texts_.size(); ++k) {
      serve::JobRequest job;
      job.program = std::make_shared<stencil::StencilProgram>(
          stencil::parse_program(hot_texts_[k]));
      serve::SynthesisService& service = daemon_->service();
      const serve::JobResult result = service.wait(service.submit(job));
      std::int64_t c = 0;
      if (result.ok) {
        const bool temporal = result.artifact->selected_family ==
                              scl::arch::DesignFamily::kTemporalShift;
        c = temporal ? result.artifact->temporal_cycles
                     : result.artifact->heterogeneous_cycles;
        cycles.push_back(static_cast<double>(c));
      }
      gate_.check(result.ok && result.from_cache && c > 0,
                  "stored artifact of " + stencil::paper_benchmarks()[k].name +
                      " carries simulated cycles");
    }
    return cycles;
  }

  void stop() {
    if (daemon_ == nullptr) return;
    daemon_->request_stop();
    const bool clean = daemon_->wait_drained();
    daemon_.reset();
    gate_.check(clean, "daemon drained cleanly");
    fs::remove_all(store_dir_);
    fs::remove(options_.socket_path);
  }

 private:
  static serve::WireRequest request(std::int64_t id, const std::string& text) {
    serve::WireRequest r;
    r.id = id;
    r.tenant = "perfbench";
    r.stencil_text = text;
    return r;
  }

  static std::string error_of(const serve::WireResponse& response) {
    return response.ok()
               ? ""
               : " (" + response.status + ": " + response.error + ")";
  }

  /// The content address the daemon must answer with, computed the way
  /// the service computes it.
  std::string key_of(const stencil::StencilProgram& program) const {
    return serve::request_key(stencil::program_to_text(program),
                              options_.service.framework);
  }

  void client_loop(Clock::time_point start, std::atomic<std::size_t>& cursor,
                   Clock::time_point deadline, std::vector<Sample>& samples) {
    serve::WireClient client;
    try {
      client.connect(options_.socket_path);
    } catch (const std::exception& e) {
      gate_.check(false, std::string("connect: ") + e.what());
      return;
    }
    const auto& benchmarks = stencil::paper_benchmarks();
    while (Clock::now() < deadline) {
      const std::size_t position = cursor.fetch_add(1);
      const Item item = stream_.at(position);
      const auto id = static_cast<std::int64_t>(position) + 1;
      const std::string& name = benchmarks[item.kernel].name;
      const std::string what = "request " + std::to_string(id) + " (" + name +
                               (item.hot ? ", hot)" : ", never-seen)");
      try {
        const std::string text =
            item.hot ? hot_texts_[item.kernel]
                     : variant_text(benchmarks[item.kernel], args_.seed,
                                    item.ordinal, benchmarks.size());
        const auto sent = Clock::now();
        client.send(request(id, text));
        const serve::WireResponse response = client.recv();
        const auto received = Clock::now();
        spans_.add("serve/round_trip", sent, received, -1, id);

        const auto parse_start = Clock::now();
        const stencil::StencilProgram program = stencil::parse_program(text);
        const auto parse_end = Clock::now();
        spans_.add("frontend/parse", parse_start, parse_end, -1, id);

        Sample sample;
        sample.hot = item.hot;
        sample.cold = !response.from_cache && !response.coalesced;
        sample.rtt_ms = ms_between(sent, received);
        sample.server_ms = response.latency_ms;
        sample.parse_ms = ms_between(parse_start, parse_end);
        sample.at_ms = ms_between(start, received);
        bool ok = response.ok() && response.id == id &&
                  response.key == key_of(program);
        // Hot-set programs were prefilled; a never-seen program sent once
        // must really be synthesized (a pair's second copy may be either).
        if (item.hot) ok = ok && response.from_cache;
        if (!item.hot && !item.paired) ok = ok && sample.cold;
        if (gate_.check(ok, what + error_of(response))) {
          samples.push_back(sample);
        }
      } catch (const std::exception& e) {
        gate_.check(false, what + ": " + e.what());
        return;
      }
    }
  }

  const Args& args_;
  SpanRecorder& spans_;
  Gate& gate_;
  int concurrency_;
  Stream stream_;
  serve::DaemonOptions options_;
  std::vector<std::string> hot_texts_;
  std::string store_dir_;
  std::unique_ptr<serve::Daemon> daemon_;
  std::vector<Sample> samples_;
};

}  // namespace

void run_daemon_mixed(const Args& args, SpanRecorder& spans, Gate& gate,
                      MetricTable& table) {
  Harness harness(args, spans, gate);
  print_env_stamp(args, harness.dse_threads(), harness.concurrency(),
                  harness.concurrency());

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupsBeforeLoad; ++rep) {
    setup_s.push_back(harness.set_up(rep));
  }
  const Snapshot before = snapshot(harness.daemon());
  const double wall_ms = harness.load(args.seconds);
  const Snapshot after = snapshot(harness.daemon());
  const double rss_mb = peak_rss_mb();  // before the set-ups that follow
  const std::vector<double> hot_cycles = harness.hot_cycles();
  for (int rep = kSetupsBeforeLoad; rep < kSetupRepeats; ++rep) {
    setup_s.push_back(harness.set_up(rep));
  }

  std::vector<double> rtt, hit, miss, cold, overhead, parse;
  for (const Sample& s : harness.samples()) {
    rtt.push_back(s.rtt_ms);
    (s.hot ? hit : miss).push_back(s.rtt_ms);
    if (s.cold) cold.push_back(s.rtt_ms);
    overhead.push_back(s.rtt_ms - s.server_ms);
    parse.push_back(s.parse_ms);
  }
  const auto n = static_cast<std::int64_t>(rtt.size());
  std::cout << "daemon-mixed: " << n << " responses (" << hit.size()
            << " hot, " << miss.size() << " never-seen, " << cold.size()
            << " cold syntheses), " << 1000.0 * static_cast<double>(n) / wall_ms
            << " per second, p50 " << percentile(rtt, 0.50) << " ms, p99 "
            << percentile(rtt, 0.99) << " ms over the whole load\n";

  // Interference from a shared host only ever slows the load. It comes in
  // bursts of seconds whose share changes from minute to minute, so
  // whole-load figures of ten runs spread up to 38%. The end-to-end
  // timings therefore pool the load's least-disturbed windows: the
  // kBestWindows of kWindows that completed the most responses.
  const double window_ms = 1000.0 * args.seconds / kWindows;
  std::vector<std::vector<const Sample*>> windows(kWindows);
  for (const Sample& s : harness.samples()) {
    windows[std::min(kWindows - 1, static_cast<std::size_t>(s.at_ms /
                                                            window_ms))]
        .push_back(&s);
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  std::vector<double> best_rtt, best_cold;
  for (std::size_t w = 0; w < kBestWindows; ++w) {
    for (const Sample* s : windows[w]) {
      best_rtt.push_back(s->rtt_ms);
      if (s->cold) best_cold.push_back(s->rtt_ms);
    }
  }
  const auto n_best = static_cast<std::int64_t>(best_rtt.size());
  const double p99 = percentile(best_rtt, 0.99);
  const auto above_p99 = std::count_if(best_rtt.begin(), best_rtt.end(),
                                       [&](double v) { return v > p99; });
  std::cout << "  best " << kBestWindows << " of " << kWindows << " windows: "
            << n_best << " responses, " << best_cold.size()
            << " cold syntheses, " << above_p99 << " above p99\n";
  gate.check(above_p99 >= 10, "at least 10 round trips above p99");

  const std::int64_t requests =
      after.service.requests - before.service.requests;
  const std::int64_t store_hits =
      after.service.store_hits - before.service.store_hits;
  std::cout << "  scheduler: max queue depth "
            << after.scheduler.max_queue_depth
            << ", " << after.scheduler.executed - before.scheduler.executed
            << " executed\n";

  if (!args.trace) {
    table.add("setup_s", median(setup_s), "s", kSetupRepeats);
    const std::string of_best = "best " + std::to_string(kBestWindows) +
                                " of " + std::to_string(kWindows) +
                                " windows";
    table.add("synth_s", median(best_cold) / 1000.0, "s",
              static_cast<std::int64_t>(best_cold.size()),
              "median round trip of a cold synthesis, " + of_best);
    table.add("design_cycles_geomean", geomean(hot_cycles),
              "cycles", 0, "exact, over the 7 hot-set designs");
    table.add("peak_rss_mb", rss_mb, "MiB");
    table.add("req_per_s",
              1000.0 * static_cast<double>(n_best) /
                  (window_ms * static_cast<double>(kBestWindows)),
              "1/s", n_best, "responses per second, " + of_best);
    table.add("latency_ms_p50", percentile(best_rtt, 0.50), "ms", n_best,
              of_best);
    table.add("latency_ms_p99", p99, "ms", n_best, of_best);
  } else {
    table.add("frontend.parse_ms", median(parse), "ms", n,
              "one request text, parsed by the load process");
    table.add("serve.hit_ms_p50", median(hit), "ms",
              static_cast<std::int64_t>(hit.size()));
    table.add("serve.overhead_ms_p50", median(overhead), "ms", n,
              "round trip minus the response's latency_ms");
    table.add("serve.miss_ms_p50", median(cold), "ms",
              static_cast<std::int64_t>(cold.size()));
    table.add("serve.requests", static_cast<double>(requests), "count");
    table.add("serve.store_hits", static_cast<double>(store_hits), "count");
    table.add("serve.store_hit_ratio",
              requests > 0 ? static_cast<double>(store_hits) /
                                 static_cast<double>(requests)
                           : 0.0,
              "ratio", 0, "serve.store_hits / serve.requests");
    table.add("serve.synthesized",
              static_cast<double>(after.service.synthesized -
                                  before.service.synthesized),
              "count");
    table.add("serve.coalesced",
              static_cast<double>(after.scheduler.coalesced -
                                  before.scheduler.coalesced),
              "count");
    table.add("serve.rejected",
              static_cast<double>(
                  after.daemon.shed + after.daemon.quota_rejected -
                  before.daemon.shed - before.daemon.quota_rejected),
              "count");
  }
  harness.stop();
}

}  // namespace perfbench
