#include "analysis/ir/dataflow.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "analysis/ir/lower.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis::ir {

namespace {

/// Enumerating a loop variable concretely (pipe-token counting) is capped
/// here; the only loop whose variable appears in nested bounds is the
/// fused-iteration loop (trip count = pass_h), so the cap is generous.
constexpr std::int64_t kEnumerationCap = 1 << 16;

/// Disjoint written-interval unions are coalesced to their hull past this
/// many fragments; precision only matters near the handful of halo strips.
constexpr std::size_t kMaxHullFragments = 16;

bool overlaps_or_adjacent(const Interval& a, const Interval& b) {
  return a.lo <= b.hi + 1 && b.lo <= a.hi + 1;
}

/// Union-of-intervals with bounded fragmentation.
struct IntervalUnion {
  std::vector<Interval> parts;

  void add(Interval v) {
    for (;;) {
      bool merged = false;
      for (auto it = parts.begin(); it != parts.end(); ++it) {
        if (overlaps_or_adjacent(*it, v)) {
          v = {std::min(it->lo, v.lo), std::max(it->hi, v.hi)};
          parts.erase(it);
          merged = true;
          break;
        }
      }
      if (!merged) break;
    }
    parts.push_back(v);
    if (parts.size() > kMaxHullFragments) {
      Interval hull = parts.front();
      for (const Interval& p : parts) {
        hull = {std::min(hull.lo, p.lo), std::max(hull.hi, p.hi)};
      }
      parts = {hull};
    }
  }

  bool empty() const { return parts.empty(); }

  bool intersects(const Interval& v) const {
    return std::any_of(parts.begin(), parts.end(), [&](const Interval& p) {
      return p.lo <= v.hi && v.lo <= p.hi;
    });
  }
};

/// One host enqueue: region origins r0..r2 and pass depth pass_h.
using HostSample = std::array<std::int64_t, 4>;

/// The host parameters, in HostSample order.
constexpr std::array<const char*, 4> kHostParams{"r0", "r1", "r2", "pass_h"};

/// A local-buffer load as the walk evaluated it, with the host parameters
/// bound at the time (for the diagnostic note).
struct LocalLoad {
  const ArrayRef* ref;
  Interval index;
  HostSample host;
};

/// One kernel's facts accumulated across every sampled environment,
/// indexed like Kernel::locals / Kernel::global_outputs.
struct KernelFacts {
  std::vector<IntervalUnion> written;  ///< local buffers
  std::vector<char> stored_locals;
  std::vector<char> loaded_locals;
  std::vector<char> stored_outputs;
  /// Loop statement lines: every loop seen, and those whose body ran
  /// under at least one sampled environment.
  std::set<int> loops_seen;
  std::set<int> loops_executed;
  /// Every local-buffer load evaluation, in walk order: the SCL403 check
  /// needs the complete written hull, so it replays these afterwards.
  std::vector<LocalLoad> local_loads;
};

class ModuleAnalyzer {
 public:
  ModuleAnalyzer(const Module& module, const IrContext& ctx,
                 support::DiagnosticEngine* diags)
      : module_(module), ctx_(ctx), diags_(diags), env_(module.slots) {
    for (std::size_t i = 0; i < kHostParams.size(); ++i) {
      host_slots_[i] = module.slot_of(kHostParams[i]);
    }
    it_slot_ = module.slot_of("it");
  }

  void run() {
    report_unmodeled();
    build_samples();
    for (const Kernel& kernel : module_.kernels) {
      analyze_kernel(kernel);
    }
    check_pipe_balance();
  }

 private:
  // ---- diagnostics plumbing -------------------------------------------

  /// Emits once per (code, kernel, subject) so per-environment re-walks do
  /// not repeat themselves.
  support::Diagnostic* emit(const std::string& code,
                            support::Severity severity,
                            const std::string& kernel,
                            const std::string& subject, int line,
                            const std::string& message) {
    if (!emitted_.insert(str_cat(code, '|', kernel, '|', subject)).second) {
      return nullptr;
    }
    support::Diagnostic& diag =
        diags_->add(code, severity, message);
    diag.location = {"kernel", kernel, line};
    return &diag;
  }

  void report_unmodeled() {
    for (const std::string& what : module_.unmodeled) {
      support::Diagnostic* diag =
          emit("SCL409", support::Severity::kWarning, "", what, -1,
               str_cat("emitted construct outside the analyzable subset: ",
                       what));
      if (diag != nullptr) {
        diag->location = {"source", what, -1};
        diag->notes.push_back(
            "the IR dataflow pass skipped it; its effects are unverified");
      }
    }
  }

  // ---- environment sampling -------------------------------------------

  /// Origin samples along dimension d, mirroring the emitted host sweep
  /// `for (r = 0; r < grid; r += region)`: first, one interior, last.
  std::vector<std::int64_t> origin_samples(int d) const {
    const auto ds = static_cast<std::size_t>(d);
    const std::int64_t grid = ctx_.grid_extents[ds];
    const std::int64_t region = std::max<std::int64_t>(ctx_.region_extents[ds], 1);
    std::vector<std::int64_t> out{0};
    if (region < grid) {
      out.push_back(region);
      out.push_back(((grid - 1) / region) * region);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// pass_h values the host can pass: the full depth and, when the total
  /// iteration count is not a multiple, the final partial pass.
  std::vector<std::int64_t> pass_samples() const {
    const std::int64_t h = std::max<std::int64_t>(ctx_.fused_iterations, 1);
    std::vector<std::int64_t> out{std::min(h, ctx_.iterations)};
    const std::int64_t tail = ctx_.iterations % h;
    if (tail > 0) out.push_back(tail);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Builds the joint cross product of origin and pass-depth samples. The
  /// origins must vary *jointly* — flattened indices sum per-dimension
  /// contributions, so independent wide intervals would lose the
  /// correlation between a loop's range and the buffer origin macro.
  void build_samples() {
    std::array<std::vector<std::int64_t>, 3> per_dim;
    for (int d = 0; d < 3; ++d) {
      per_dim[static_cast<std::size_t>(d)] =
          d < ctx_.dims ? origin_samples(d) : std::vector<std::int64_t>{0};
    }
    for (const std::int64_t r0 : per_dim[0]) {
      for (const std::int64_t r1 : per_dim[1]) {
        for (const std::int64_t r2 : per_dim[2]) {
          for (const std::int64_t ph : pass_samples()) {
            samples_.push_back({r0, r1, r2, ph});
          }
        }
      }
    }
  }

  /// Resets the environment to `sample`: the host parameters bound to
  /// points, every other slot unbound.
  void bind_sample(const HostSample& sample) {
    sample_ = sample;
    env_.clear();
    for (std::size_t i = 0; i < kHostParams.size(); ++i) {
      if (host_slots_[i] >= 0) {
        env_.bind(host_slots_[i], Interval::point(sample[i]));
      }
    }
  }

  /// bind_sample plus the fused-iteration counter `it` as the interval
  /// [1, pass_h]: the walks' view, sound for indices and cheap.
  void bind_walk_sample(const HostSample& sample) {
    bind_sample(sample);
    if (it_slot_ >= 0) env_.bind(it_slot_, {1, sample[3]});
  }

  /// The host parameters as the environment currently binds them.
  HostSample bound_host() const {
    HostSample v = sample_;
    for (std::size_t i = 0; i < kHostParams.size(); ++i) {
      if (host_slots_[i] >= 0 && env_.binding(host_slots_[i]).bound) {
        v[i] = env_.binding(host_slots_[i]).value.lo;
      }
    }
    return v;
  }

  static std::string host_summary(const HostSample& v) {
    return str_cat("under r0=", v[0], " r1=", v[1], " r2=", v[2],
                   " pass_h=", v[3]);
  }

  // ---- per-kernel analysis --------------------------------------------

  void analyze_kernel(const Kernel& kernel) {
    KernelFacts facts;
    facts.written.resize(kernel.locals.size());
    facts.stored_locals.assign(kernel.locals.size(), 0);
    facts.loaded_locals.assign(kernel.locals.size(), 0);
    facts.stored_outputs.assign(kernel.global_outputs.size(), 0);

    // Sizes evaluate with nothing bound; a later declaration of the same
    // name overrides an earlier one.
    local_sizes_.assign(kernel.locals.size(), std::nullopt);
    env_.clear();
    for (const Buffer& buffer : kernel.locals) {
      try {
        const Interval size = eval_expr(buffer.size, env_);
        local_sizes_[static_cast<std::size_t>(
            first_named(kernel.locals, buffer.name))] = size.lo;
      } catch (const Error& e) {
        emit("SCL409", support::Severity::kWarning, kernel.name, buffer.name,
             buffer.line,
             str_cat("size of __local buffer '", buffer.name,
                     "' is not a compile-time constant: ", e.what()));
      }
    }

    // One walk per environment: index checks + fact accumulation.
    for (const HostSample& sample : samples_) {
      bind_walk_sample(sample);
      walk(kernel, kernel.body, &facts);
    }

    // Uninitialized reads need the complete written hull, so the loads
    // are checked after every store has been seen.
    for (const LocalLoad& load : facts.local_loads) {
      check_uninit(kernel, load, facts);
    }

    // Whole-kernel verdicts.
    for (const Buffer& buffer : kernel.locals) {
      const auto first =
          static_cast<std::size_t>(first_named(kernel.locals, buffer.name));
      if (facts.stored_locals[first] != 0 && facts.loaded_locals[first] == 0) {
        support::Diagnostic* diag = emit(
            "SCL404", support::Severity::kError, kernel.name, buffer.name,
            buffer.line,
            str_cat("every store to __local buffer '", buffer.name,
                    "' is dead: the kernel never loads it"));
        if (diag != nullptr) {
          diag->notes.push_back(
              "data written there can never reach global memory or a pipe");
        }
      }
    }
    for (const std::string& global : kernel.global_outputs) {
      if (facts.stored_outputs[static_cast<std::size_t>(
              first_named(kernel.global_outputs, global))] == 0) {
        emit("SCL408", support::Severity::kError, kernel.name, global,
             kernel.line,
             str_cat("__global output '", global,
                     "' is never stored to; the kernel produces no result"));
      }
    }
    for (const int line : facts.loops_seen) {
      if (facts.loops_executed.count(line) == 0) {
        support::Diagnostic* diag =
            emit("SCL407", support::Severity::kWarning, kernel.name,
                 str_cat("loop@", line), line,
                 str_cat("loop at line ", line,
                         " has an empty range under every host-reachable "
                         "parameter sample"));
        if (diag != nullptr) {
          diag->notes.push_back(
              "a provably zero-trip loop usually means swapped or "
              "inverted bounds");
        }
      }
    }
  }

  /// The local buffer `ref` addresses when its size is known, else -1.
  int sized_local(const ArrayRef& ref) const {
    return ref.local >= 0 &&
                   local_sizes_[static_cast<std::size_t>(ref.local)].has_value()
               ? ref.local
               : -1;
  }

  /// Evaluates one index, reporting SCL401/402/405, and records it in
  /// `facts`.
  void check_ref(const Kernel& kernel, const ArrayRef& ref, bool is_store,
                 KernelFacts* facts) {
    bool int32_overflow = false;
    Interval idx;
    try {
      idx = eval_expr(ref.index, env_, &int32_overflow);
    } catch (const Error& e) {
      emit("SCL409", support::Severity::kWarning, kernel.name,
           str_cat(ref.array, "@", ref.line), ref.line,
           str_cat("index of '", ref.array,
                   "' could not be evaluated: ", e.what()));
      return;
    }
    if (int32_overflow) {
      support::Diagnostic* diag =
          emit("SCL405", support::Severity::kError, kernel.name,
               str_cat(ref.array, "@", ref.line), ref.line,
               str_cat("index arithmetic for '", ref.array, "[",
                       ref.index.to_string(module_.slots),
                       "]' can exceed 32-bit signed range"));
      if (diag != nullptr) {
        diag->notes.push_back(
            "OpenCL `int` is 32 bits; the emitted expression wraps on the "
            "device");
        diag->notes.push_back(host_summary(bound_host()));
      }
    }
    const int local = sized_local(ref);
    if (local >= 0) {
      const std::int64_t size = *local_sizes_[static_cast<std::size_t>(local)];
      if (idx.lo < 0 || idx.hi >= size) {
        support::Diagnostic* diag = emit(
            "SCL401", support::Severity::kError, kernel.name,
            str_cat(ref.array, "@", ref.line), ref.line,
            str_cat(is_store ? "store to" : "load from", " __local buffer '",
                    ref.array, "' can reach index [", idx.lo, ", ", idx.hi,
                    "], outside [0, ", size, ")"));
        if (diag != nullptr) {
          diag->notes.push_back(str_cat("emitted index: ",
                                        ref.index.to_string(module_.slots)));
          diag->notes.push_back(host_summary(bound_host()));
        }
      }
    } else if (ref.global) {
      const std::int64_t cells = ctx_.grid_cells();
      if (idx.lo < 0 || idx.hi >= cells) {
        support::Diagnostic* diag = emit(
            "SCL402", support::Severity::kError, kernel.name,
            str_cat(ref.array, "@", ref.line), ref.line,
            str_cat(is_store ? "store to" : "load from", " __global '",
                    ref.array, "' can reach index [", idx.lo, ", ", idx.hi,
                    "], outside the grid's [0, ", cells, ")"));
        if (diag != nullptr) {
          diag->notes.push_back(str_cat("emitted index: ",
                                        ref.index.to_string(module_.slots)));
          diag->notes.push_back(host_summary(bound_host()));
        }
      }
    }
    if (local >= 0) {
      const auto l = static_cast<std::size_t>(local);
      if (is_store) {
        facts->stored_locals[l] = 1;
        facts->written[l].add(idx);
      } else {
        facts->loaded_locals[l] = 1;
        facts->local_loads.push_back({&ref, idx, bound_host()});
      }
    } else if (is_store && ref.output >= 0) {
      facts->stored_outputs[static_cast<std::size_t>(ref.output)] = 1;
    }
  }

  /// Loop-range evaluation. Returns false when the body provably never
  /// executes under the current environment (and records emptiness);
  /// otherwise binds the loop variable to its range, saving its previous
  /// binding in `saved`.
  bool enter_loop(const Kernel& kernel, const Stmt& loop, KernelFacts* facts,
                  SlotEnv::Binding* saved) {
    facts->loops_seen.insert(loop.line);
    Interval lo;
    Interval hi;
    try {
      lo = eval_expr(loop.lo, env_);
      hi = eval_expr(loop.hi, env_);
    } catch (const Error& e) {
      emit("SCL409", support::Severity::kWarning, kernel.name,
           str_cat("loop@", loop.line), loop.line,
           str_cat("loop bounds at line ", loop.line,
                   " could not be evaluated: ", e.what()));
      return false;
    }
    const std::int64_t var_max = loop.inclusive ? hi.hi : hi.hi - 1;
    if (lo.lo > var_max) return false;  // empty range: body unreachable
    facts->loops_executed.insert(loop.line);
    *saved = env_.binding(loop.var);
    env_.bind(loop.var, {lo.lo, var_max});
    return true;
  }

  void walk(const Kernel& kernel, const StmtList& stmts, KernelFacts* facts) {
    for (const Stmt& stmt : stmts) {
      switch (stmt.kind) {
        case Stmt::Kind::kLoop: {
          SlotEnv::Binding saved;
          if (enter_loop(kernel, stmt, facts, &saved)) {
            walk(kernel, stmt.body, facts);
            env_.restore(stmt.var, saved);
          }
          break;
        }
        case Stmt::Kind::kStore:
          if (stmt.store.has_value()) {
            check_ref(kernel, *stmt.store, /*is_store=*/true, facts);
          }
          for (const ArrayRef& load : stmt.loads) {
            check_ref(kernel, load, /*is_store=*/false, facts);
          }
          break;
        case Stmt::Kind::kPipeRead:
        case Stmt::Kind::kPipeWrite:
        case Stmt::Kind::kBarrier:
        case Stmt::Kind::kOpaque:
          break;
      }
    }
  }

  /// SCL403: a local load no store's index range can have written.
  void check_uninit(const Kernel& kernel, const LocalLoad& load,
                    const KernelFacts& facts) {
    const ArrayRef& ref = *load.ref;
    const IntervalUnion& written =
        facts.written[static_cast<std::size_t>(ref.local)];
    const bool never_written = written.empty();
    if (!never_written && written.intersects(load.index)) return;
    support::Diagnostic* diag = emit(
        "SCL403", support::Severity::kError, kernel.name,
        str_cat(ref.array, "@", ref.line), ref.line,
        str_cat("load from __local buffer '", ref.array, "' at index [",
                load.index.lo, ", ", load.index.hi,
                "] that no store can have written"));
    if (diag != nullptr) {
      diag->notes.push_back(
          never_written
              ? str_cat("the kernel never stores to '", ref.array, "'")
              : "every store's index range is disjoint from this load");
      diag->notes.push_back(host_summary(load.host));
    }
  }

  // ---- pipe token balance ---------------------------------------------

  static void mark_pipes(const StmtList& stmts, std::vector<char>* out) {
    for (const Stmt& stmt : stmts) {
      if (stmt.pipe >= 0) (*out)[static_cast<std::size_t>(stmt.pipe)] = 1;
      mark_pipes(stmt.body, out);
    }
  }

  /// Per-pipe token totals for one walk: [0] = writes, [1] = reads,
  /// indexed like Module::pipes.
  using TokenCounts = std::vector<std::array<std::int64_t, 2>>;

  /// Exact token counts for every pipe at once under a fully concrete
  /// environment, each pipe call weighing `weight` (the product of the
  /// enclosing loops' trip counts). Loops whose variable appears in
  /// nested bounds are enumerated; others scale the weight by their trip
  /// count. A loop whose bound fails to evaluate, whose enumeration
  /// exceeds the cap or whose weight leaves int64 poisons only the pipes
  /// inside it (marked in `unknown`) — balance for those is skipped,
  /// never a false positive.
  void count_tokens(const StmtList& stmts, std::int64_t weight,
                    TokenCounts* counts, std::vector<char>* unknown) {
    for (const Stmt& stmt : stmts) {
      if (stmt.kind == Stmt::Kind::kPipeWrite ||
          stmt.kind == Stmt::Kind::kPipeRead) {
        if (stmt.pipe >= 0) {
          (*counts)[static_cast<std::size_t>(stmt.pipe)]
                   [stmt.kind == Stmt::Kind::kPipeRead ? 1 : 0] += weight;
        }
        continue;
      }
      if (stmt.kind != Stmt::Kind::kLoop || !stmt.has_pipe_op) continue;
      Interval lo;
      Interval hi;
      try {
        lo = eval_expr(stmt.lo, env_);
        hi = eval_expr(stmt.hi, env_);
      } catch (const Error&) {
        mark_pipes(stmt.body, unknown);
        continue;
      }
      const std::int64_t last = stmt.inclusive ? hi.lo : hi.lo - 1;
      const std::int64_t trip = std::max<std::int64_t>(0, last - lo.lo + 1);
      if (trip == 0) continue;
      if (stmt.bounds_use_var) {
        if (trip > kEnumerationCap) {
          mark_pipes(stmt.body, unknown);
          continue;
        }
        const SlotEnv::Binding saved = env_.binding(stmt.var);
        for (std::int64_t v = lo.lo; v <= last; ++v) {
          env_.bind(stmt.var, Interval::point(v));
          count_tokens(stmt.body, weight, counts, unknown);
        }
        env_.restore(stmt.var, saved);
      } else {
        std::int64_t inner = 0;
        if (__builtin_mul_overflow(weight, trip, &inner)) {
          mark_pipes(stmt.body, unknown);
          continue;
        }
        env_.bind(stmt.var, Interval::point(lo.lo));  // bounds ignore it
        count_tokens(stmt.body, inner, counts, unknown);
        env_.unbind(stmt.var);
      }
    }
  }

  void check_pipe_balance() {
    if (module_.pipes.empty()) return;
    const std::size_t n = module_.pipes.size();
    std::vector<std::size_t> first_pipe(n);
    for (std::size_t i = 0; i < n; ++i) {
      first_pipe[i] = static_cast<std::size_t>(
          first_named(module_.pipes, module_.pipes[i].name));
    }
    std::vector<char> reported(n, 0);
    std::vector<char> unknown(n, 0);
    TokenCounts counts(n);
    for (const HostSample& sample : samples_) {
      std::fill(counts.begin(), counts.end(), std::array<std::int64_t, 2>{});
      for (const Kernel& kernel : module_.kernels) {
        bind_sample(sample);
        count_tokens(kernel.body, 1, &counts, &unknown);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const PipeChannel& pipe = module_.pipes[i];
        const std::size_t first = first_pipe[i];
        if (reported[first] != 0 || unknown[first] != 0) continue;
        const std::int64_t writes = counts[first][0];
        const std::int64_t reads = counts[first][1];
        if (writes == reads) continue;
        reported[first] = 1;  // one environment is enough evidence
        support::Diagnostic* diag = emit(
            "SCL406", support::Severity::kError, "", pipe.name, pipe.line,
            str_cat("pipe '", pipe.name, "' is unbalanced: ", writes,
                    " write(s) vs ", reads, " read(s) over one pass"));
        if (diag != nullptr) {
          diag->location = {"pipe", pipe.name, pipe.line};
          diag->notes.push_back(host_summary(sample));
          diag->notes.push_back(
              writes > reads
                  ? "surplus tokens accumulate until the writer blocks "
                    "forever"
                  : "the reader eventually blocks on a token that never "
                    "arrives");
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const PipeChannel& pipe = module_.pipes[i];
      if (unknown[first_pipe[i]] == 0) continue;
      emit("SCL409", support::Severity::kWarning, "", pipe.name, pipe.line,
           str_cat("token balance for pipe '", pipe.name,
                   "' could not be established (unevaluable or oversized "
                   "loop nest)"));
    }
  }

  const Module& module_;
  const IrContext& ctx_;
  support::DiagnosticEngine* diags_;
  std::vector<HostSample> samples_;
  /// The flat environment every walk evaluates in, and the slots of the
  /// host parameters (kHostParams order) and of `it` (-1: unmentioned).
  SlotEnv env_;
  std::array<int, 4> host_slots_{};
  int it_slot_ = -1;
  /// The sample env_ was last reset to (for diagnostic notes).
  HostSample sample_{};
  /// Constant element count per local buffer of the current kernel,
  /// indexed like Kernel::locals (at each name's first declaration).
  std::vector<std::optional<std::int64_t>> local_sizes_;
  std::set<std::string> emitted_;
};

}  // namespace

IrContext make_ir_context(const scl::stencil::StencilProgram& program,
                          const scl::sim::DesignConfig& config) {
  IrContext ctx;
  ctx.dims = program.dims();
  for (int d = 0; d < program.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    ctx.grid_extents[ds] = program.grid_box().extent(d);
    ctx.region_extents[ds] = std::max<std::int64_t>(config.region_extent(d), 1);
  }
  ctx.fused_iterations = std::max<std::int64_t>(config.fused_iterations, 1);
  ctx.iterations = std::max<std::int64_t>(program.iterations(), 1);
  return ctx;
}

void analyze_module(const Module& module, const IrContext& ctx,
                    support::DiagnosticEngine* diags) {
  ModuleAnalyzer(module, ctx, diags).run();
}

void analyze_kernel_source(const std::string& source, const IrContext& ctx,
                           support::DiagnosticEngine* diags) {
  Module module;
  try {
    module = lower_kernel_source(source);
  } catch (const Error& e) {
    support::Diagnostic& diag = diags->error(
        "SCL409",
        str_cat("emitted kernel source could not be lowered to the "
                "analysis IR: ",
                e.what()));
    diag.location = {"source", "stencil_kernels.cl", -1};
    return;
  }
  analyze_module(module, ctx, diags);
}

}  // namespace scl::analysis::ir
