#include "analysis/analyzer.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "analysis/interval.hpp"
#include "analysis/ir/lower.hpp"
#include "arch/temporal_layout.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::analysis {

using scl::codegen::GenContext;
using scl::codegen::LoopBounds;
using scl::codegen::PipeDecl;
using scl::sim::TilePlacement;
using scl::stencil::StencilProgram;

namespace {

/// Region-origin values worth sampling along dimension d: the first
/// region, one interior region, and the last region of the host sweep
/// (`for (r = 0; r < grid; r += region_extent)`). Bounds are affine and
/// monotone in the origin, so the extremes plus one unclipped interior
/// point cover the clamp cases.
std::vector<std::int64_t> origin_samples(const GenContext& ctx, int d) {
  const std::int64_t grid = ctx.program->grid_box().extent(d);
  const std::int64_t region = std::max<std::int64_t>(ctx.config.region_extent(d), 1);
  std::vector<std::int64_t> out{0};
  if (region < grid) {
    out.push_back(region);
    out.push_back(((grid - 1) / region) * region);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::int64_t> dt_samples(const GenContext& ctx) {
  const std::int64_t h = ctx.config.fused_iterations;
  if (h <= 1) return {0};
  return {0, h - 1};
}

/// Emits the one-per-expression "analysis incomplete" diagnostic.
void report_unparsable(support::DiagnosticEngine* diags, int kernel,
                       const std::string& expr, const std::string& why) {
  support::Diagnostic& diag = diags->warning(
      "SCL209", str_cat("loop bound '", expr,
                        "' is outside the affine bound language; interval "
                        "analysis skipped it"));
  diag.location = {"kernel", str_cat("stencil_k", kernel), -1};
  diag.notes.push_back(why);
}

/// Pass 2's expression environment. Each codegen::LoopBounds string is
/// lowered once through the pass-4 front end (ir::lower_expression) into
/// this slot table, then point-evaluated at every sample over a flat
/// SlotEnv. The generator writes the fused-iteration distance only as
/// `pass_h - it`, so binding pass_h = h and it = h - dt evaluates it to
/// dt, in [0, h-1].
class BoundEnv {
 public:
  /// One lowered bound string; `error` is set when it could not be
  /// lowered.
  struct Bound {
    const std::string* text = nullptr;
    ir::Expr expr;
    std::string error;
  };

  explicit BoundEnv(const GenContext& ctx)
      : h_(ctx.config.fused_iterations) {}
  BoundEnv(const BoundEnv&) = delete;
  BoundEnv& operator=(const BoundEnv&) = delete;

  Bound lower(const std::string& text) {
    Bound bound;
    bound.text = &text;
    try {
      bound.expr = ir::lower_expression(text, &slots_);
    } catch (const Error& e) {
      bound.error = e.what();
    }
    return bound;
  }

  /// Binds region origin `origin` along dimension `d` (0 along the
  /// others) and fused-iteration distance `dt`.
  void bind(int d, std::int64_t origin, std::int64_t dt) {
    for (int i = 0; i < 3; ++i) {
      env_.bind(i, Interval::point(i == d ? origin : 0));
    }
    env_.bind(kPassH, Interval::point(h_));
    env_.bind(kIt, Interval::point(h_ - dt));
  }

  /// Point-evaluates `bounds` in order at the bound sample. Returns
  /// nothing after reporting SCL209 for the first bound that could not be
  /// lowered or evaluated (an unknown variable, say).
  template <std::size_t N>
  std::optional<std::array<std::int64_t, N>> eval(
      const std::array<const Bound*, N>& bounds, int kernel,
      support::DiagnosticEngine* diags) const {
    std::array<std::int64_t, N> values{};
    for (std::size_t i = 0; i < N; ++i) {
      std::string why = bounds[i]->error;
      if (why.empty()) {
        try {
          // Every bound slot holds a point, so lo == hi.
          values[i] = ir::eval_expr(bounds[i]->expr, env_).lo;
          continue;
        } catch (const Error& e) {
          why = e.what();
        }
      }
      report_unparsable(diags, kernel, *bounds[i]->text, why);
      return std::nullopt;
    }
    return values;
  }

 private:
  static constexpr int kPassH = 3;
  static constexpr int kIt = 4;

  std::vector<std::string> slots_{"r0", "r1", "r2", "pass_h", "it"};
  ir::SlotEnv env_{slots_};
  std::int64_t h_;
};

int opposite(int side) { return side == 0 ? 1 : 0; }

/// Exterior faces carry the shrinking cone margin, shared faces a
/// one-stage halo — the same rule the emitter and the resource estimator
/// apply.
std::int64_t side_margin(const GenContext& ctx, const TilePlacement& tile,
                         int d, int side) {
  const auto& prog = *ctx.program;
  const auto ds = static_cast<std::size_t>(d);
  const auto ss = static_cast<std::size_t>(side);
  return tile.exterior[ds][ss]
             ? prog.iter_radii()[ds][ss] * ctx.config.fused_iterations
             : prog.max_stage_radii()[ds][ss];
}

/// Static padded local-buffer extent of kernel k along d (the emitter's
/// K<k>_B<d>_EXT value).
std::int64_t static_buffer_extent(const GenContext& ctx, int k, int d) {
  const TilePlacement& tile = ctx.tile(k);
  const auto ds = static_cast<std::size_t>(d);
  return tile.box.hi[ds] - tile.box.lo[ds] + side_margin(ctx, tile, d, 0) +
         side_margin(ctx, tile, d, 1);
}

/// True when any update stage reads non-constant field data across a
/// tile's (d, side) face — i.e. the face needs an incoming halo channel.
bool face_needs_halo(const StencilProgram& prog, int d, int side) {
  const auto ds = static_cast<std::size_t>(d);
  const auto ss = static_cast<std::size_t>(side);
  for (int f = 0; f < prog.field_count(); ++f) {
    if (prog.is_constant_field(f)) continue;
    if (prog.field_read_radii(f)[ds][ss] > 0) return true;
  }
  return false;
}

/// Largest tangential extent (product over dimensions != d) any stage-s
/// boundary strip of kernel k can reach, from the generated stage compute
/// bounds evaluated at the sampled region origins and iteration
/// distances. Returns -1 when a bound fails to parse (already reported).
std::int64_t max_tangential_extent(const AnalysisInput& input, int k,
                                   int stage, int d,
                                   support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const LoopBounds bounds = codegen::stage_compute_bounds(ctx, k, stage);
  BoundEnv env(ctx);
  std::int64_t product = 1;
  for (int dt_dim = 0; dt_dim < ctx.program->dims(); ++dt_dim) {
    if (dt_dim == d) continue;
    const auto ds = static_cast<std::size_t>(dt_dim);
    const BoundEnv::Bound lo_bound = env.lower(bounds.lo[ds]);
    const BoundEnv::Bound hi_bound = env.lower(bounds.hi[ds]);
    std::int64_t best = 0;
    for (const std::int64_t origin : origin_samples(ctx, dt_dim)) {
      for (const std::int64_t dt : dt_samples(ctx)) {
        env.bind(dt_dim, origin, dt);
        const auto at = env.eval<2>({&lo_bound, &hi_bound}, k, diags);
        if (!at) return -1;
        const auto [lo, hi] = *at;
        best = std::max(best, hi - lo);
      }
    }
    product *= best;
  }
  return product;
}

/// Elements one (iteration, stage) exchange phase pushes into the channel
/// from kernel `k` across its (d, side) face before the kernel reads
/// anything back — the boundary-layer volume the FIFO must absorb.
/// Returns -1 when bounds were unparsable.
std::int64_t max_phase_volume(const AnalysisInput& input, int k, int d,
                              int side, support::DiagnosticEngine* diags) {
  const StencilProgram& prog = *input.ctx.program;
  const auto ds = static_cast<std::size_t>(d);
  std::int64_t worst = 0;
  for (int s = 0; s < prog.stage_count(); ++s) {
    const int f = prog.stage(s).output_field;
    const std::int64_t width =
        prog.field_read_radii(f)[ds][static_cast<std::size_t>(opposite(side))];
    if (width == 0) continue;
    const std::int64_t tangential =
        max_tangential_extent(input, k, s, d, diags);
    if (tangential < 0) return -1;
    worst = std::max(worst, width * tangential);
  }
  return worst;
}

std::string kernel_name(int k) { return str_cat("stencil_k", k); }

std::string face_name(int d, int side) {
  return str_cat("dim ", d, " ", side == 0 ? "low" : "high", " side");
}

}  // namespace

AnalysisInput make_analysis_input(const StencilProgram& program,
                                  const sim::DesignConfig& config,
                                  const fpga::DeviceSpec& device) {
  AnalysisInput input;
  input.ctx = GenContext::create(program, config, device);
  input.pipes = codegen::enumerate_pipes(input.ctx);
  return input;
}

// ---- pass 1: pipe-graph analysis (SCL1xx) ----------------------------------

void analyze_pipe_graph(const AnalysisInput& input,
                        support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  const int kernels = ctx.kernel_count();

  // Channel index plus structural sanity of every declared pipe.
  std::map<std::pair<int, int>, const PipeDecl*> channels;
  for (const PipeDecl& pipe : input.pipes) {
    if (pipe.from_kernel < 0 || pipe.from_kernel >= kernels ||
        pipe.to_kernel < 0 || pipe.to_kernel >= kernels ||
        pipe.from_kernel == pipe.to_kernel) {
      support::Diagnostic& diag = diags->error(
          "SCL105", str_cat("pipe connects invalid kernel pair k",
                            pipe.from_kernel, " -> k", pipe.to_kernel));
      diag.location = {"pipe", pipe.name, -1};
      continue;
    }
    const TilePlacement& a = ctx.tile(pipe.from_kernel);
    const TilePlacement& b = ctx.tile(pipe.to_kernel);
    int distance = 0;
    for (int d = 0; d < 3; ++d) {
      distance += std::abs(a.coord[static_cast<std::size_t>(d)] -
                           b.coord[static_cast<std::size_t>(d)]);
    }
    if (distance != 1) {
      support::Diagnostic& diag = diags->error(
          "SCL105",
          str_cat("pipe connects non-face-adjacent kernels k",
                  pipe.from_kernel, " and k", pipe.to_kernel,
                  "; the topology only links face-adjacent tiles"));
      diag.location = {"pipe", pipe.name, -1};
      continue;
    }
    if (!channels.emplace(std::pair{pipe.from_kernel, pipe.to_kernel}, &pipe)
             .second) {
      support::Diagnostic& diag = diags->error(
          "SCL105", str_cat("duplicate pipe channel k", pipe.from_kernel,
                            " -> k", pipe.to_kernel));
      diag.location = {"pipe", pipe.name, -1};
      continue;
    }
    if (pipe.depth <= 0 || (pipe.depth & (pipe.depth - 1)) != 0) {
      support::Diagnostic& diag = diags->warning(
          "SCL106",
          str_cat("pipe depth ", pipe.depth,
                  " is not a power of two; xcl_reqd_pipe_depth requires one"));
      diag.location = {"pipe", pipe.name, -1};
    }
  }

  // Halo coverage: every shared face whose dependent cells read across it
  // must have a delivering channel; channels nothing ever reads are
  // orphans.
  for (int k = 0; k < kernels; ++k) {
    const TilePlacement& tile = ctx.tile(k);
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[ds][static_cast<std::size_t>(side)]) continue;
        const int nb = ctx.neighbor_index(tile, d, side);
        if (nb < 0) {
          support::Diagnostic& diag = diags->error(
              "SCL105",
              str_cat("kernel k", k, " marks its ", face_name(d, side),
                      " as pipe-shared but has no neighbor tile there"));
          diag.location = {"kernel", kernel_name(k), -1};
          continue;
        }
        const bool needed = face_needs_halo(prog, d, side);
        const auto incoming = channels.find(std::pair{nb, k});
        if (needed && incoming == channels.end()) {
          support::Diagnostic& diag = diags->error(
              "SCL101",
              str_cat("halo of kernel k", k, " on its ", face_name(d, side),
                      " is never delivered: no pipe from k", nb, " to k", k));
          diag.location = {"kernel", kernel_name(k), -1};
          diag.notes.push_back(str_cat(
              "dependent cells within the stage read radius of that face "
              "consume neighbor data every fused iteration; without the "
              "channel they read stale halo values"));
        } else if (!needed && incoming != channels.end()) {
          support::Diagnostic& diag = diags->warning(
              "SCL104",
              str_cat("pipe k", nb, " -> k", k,
                      " carries no boundary data: no stage reads across "
                      "that face"));
          diag.location = {"pipe", incoming->second->name, -1};
        }
      }
    }
  }

  // FIFO depth versus the boundary-layer volume of one exchange phase.
  // The generated schedule pushes a whole strip before it reads the
  // symmetric one back, so an undersized FIFO blocks the writer; a cycle
  // of blocked writers is a deadlock.
  std::map<int, std::vector<int>> blocked_edges;  // writer -> readers
  for (int k = 0; k < kernels; ++k) {
    const TilePlacement& tile = ctx.tile(k);
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[ds][static_cast<std::size_t>(side)]) continue;
        const int nb = ctx.neighbor_index(tile, d, side);
        if (nb < 0) continue;
        const auto channel = channels.find(std::pair{k, nb});
        if (channel == channels.end()) continue;
        const std::int64_t required =
            max_phase_volume(input, k, d, side, diags);
        if (required <= 0) continue;  // nothing sent, or bounds unparsable
        if (channel->second->depth < required) {
          support::Diagnostic& diag = diags->error(
              "SCL102",
              str_cat("pipe FIFO depth ", channel->second->depth,
                      " is below the boundary-layer volume ", required,
                      " elements one exchange phase pushes"));
          diag.location = {"pipe", channel->second->name, -1};
          diag.notes.push_back(str_cat(
              "kernel k", k, " writes its whole stage-output strip across ",
              face_name(d, side), " before reading the symmetric strip "
              "back; a full FIFO blocks the write mid-phase"));
          blocked_edges[k].push_back(nb);
        }
      }
    }
  }

  // Deadlock: a directed cycle of kernels each blocked writing to the
  // next (the reader only drains after its own blocked write completes).
  std::vector<int> state(static_cast<std::size_t>(kernels), 0);
  std::vector<int> parent(static_cast<std::size_t>(kernels), -1);
  bool reported = false;
  auto dfs = [&](auto&& self, int node) -> void {
    state[static_cast<std::size_t>(node)] = 1;
    const auto it = blocked_edges.find(node);
    if (it != blocked_edges.end()) {
      for (const int next : it->second) {
        if (reported) return;
        if (state[static_cast<std::size_t>(next)] == 1) {
          std::vector<int> cycle{next};
          for (int cur = node; cur != next && cur >= 0;
               cur = parent[static_cast<std::size_t>(cur)]) {
            cycle.push_back(cur);
          }
          std::reverse(cycle.begin() + 1, cycle.end());
          std::string path;
          for (const int c : cycle) path += str_cat("k", c, " -> ");
          path += str_cat("k", next);
          support::Diagnostic& diag = diags->error(
              "SCL103",
              str_cat("unsatisfiable pipe schedule: blocked-write cycle ",
                      path, " deadlocks the region pass"));
          diag.location = {"design", "pipe graph", -1};
          diag.notes.push_back(
              "every kernel on the cycle is mid-write into a full FIFO "
              "whose reader is itself blocked writing; no kernel ever "
              "reaches its read phase");
          reported = true;
          return;
        }
        if (state[static_cast<std::size_t>(next)] == 0) {
          parent[static_cast<std::size_t>(next)] = node;
          self(self, next);
        }
      }
    }
    state[static_cast<std::size_t>(node)] = 2;
  };
  for (int k = 0; k < kernels && !reported; ++k) {
    if (state[static_cast<std::size_t>(k)] == 0) dfs(dfs, k);
  }
}

// ---- pass 2: halo & bounds interval analysis (SCL2xx) ----------------------

void check_buffer_bounds(const AnalysisInput& input, int kernel,
                         const LoopBounds& bounds,
                         support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  BoundEnv env(ctx);
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const std::int64_t grid_hi = prog.grid_box().hi[ds];
    const BoundEnv::Bound lo_bound = env.lower(bounds.lo[ds]);
    const BoundEnv::Bound hi_bound = env.lower(bounds.hi[ds]);
    for (const std::int64_t origin : origin_samples(ctx, d)) {
      env.bind(d, origin, 0);
      const auto at = env.eval<2>({&lo_bound, &hi_bound}, kernel, diags);
      if (!at) break;
      const auto [lo, hi] = *at;
      if (hi <= lo) continue;  // empty burst: no access happens
      if (lo < 0 || hi > grid_hi) {
        support::Diagnostic& diag = diags->error(
            "SCL201",
            str_cat("burst bounds [", lo, ", ", hi, ") along dim ", d,
                    " escape the grid [0, ", grid_hi, ") at region origin ",
                    origin));
        diag.location = {"kernel", kernel_name(kernel), -1};
        diag.notes.push_back(str_cat("lower bound expression: ",
                                     bounds.lo[ds]));
        diag.notes.push_back(str_cat("upper bound expression: ",
                                     bounds.hi[ds]));
        break;
      }
    }
  }
}

/// Checks the burst write of field `f` stays inside the field's updatable
/// region (Dirichlet border cells must keep their initial values).
void check_owned_bounds(const AnalysisInput& input, int kernel, int f,
                        const LoopBounds& bounds,
                        support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  const scl::stencil::Box updated = prog.updated_box(f);
  BoundEnv env(ctx);
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const BoundEnv::Bound lo_bound = env.lower(bounds.lo[ds]);
    const BoundEnv::Bound hi_bound = env.lower(bounds.hi[ds]);
    for (const std::int64_t origin : origin_samples(ctx, d)) {
      env.bind(d, origin, 0);
      const auto at = env.eval<2>({&lo_bound, &hi_bound}, kernel, diags);
      if (!at) break;
      const auto [lo, hi] = *at;
      if (hi <= lo) continue;
      if (lo < updated.lo[ds] || hi > updated.hi[ds]) {
        support::Diagnostic& diag = diags->error(
            "SCL203",
            str_cat("burst write of field '", prog.field(f).name,
                    "' covers [", lo, ", ", hi, ") along dim ", d,
                    ", outside the updatable region [", updated.lo[ds],
                    ", ", updated.hi[ds], ") at region origin ", origin));
        diag.location = {"kernel", kernel_name(kernel), -1};
        diag.notes.push_back(
            "cells outside the updatable region are Dirichlet boundary "
            "and must keep their initial values");
        break;
      }
    }
  }
}

/// Checks every neighbor access of every stage stays inside the kernel's
/// local-buffer box — dynamically (the burst-read window) and statically
/// (the compile-time array extent the emitter sizes).
void check_stage_accesses(const AnalysisInput& input, int kernel, int stage,
                          const LoopBounds& bounds,
                          support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  const LoopBounds buffer = codegen::buffer_bounds(ctx, kernel);
  BoundEnv env(ctx);
  // Per dimension: compute lo, compute hi, buffer lo, buffer hi.
  std::array<std::array<BoundEnv::Bound, 4>, 3> lowered;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    lowered[ds] = {env.lower(bounds.lo[ds]), env.lower(bounds.hi[ds]),
                   env.lower(buffer.lo[ds]), env.lower(buffer.hi[ds])};
  }
  for (const scl::stencil::ReadAccess& access : prog.stage(stage).reads) {
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      const int off = access.offset[ds];
      const std::int64_t ext = static_buffer_extent(ctx, kernel, d);
      const auto& [lo_bound, hi_bound, buf_lo_bound, buf_hi_bound] =
          lowered[ds];
      bool flagged = false;
      for (const std::int64_t origin : origin_samples(ctx, d)) {
        if (flagged) break;
        for (const std::int64_t dt : dt_samples(ctx)) {
          env.bind(d, origin, dt);
          const auto at = env.eval<4>(
              {&lo_bound, &hi_bound, &buf_lo_bound, &buf_hi_bound}, kernel,
              diags);
          if (!at) {
            flagged = true;
            break;
          }
          const auto [lo, hi, buf_lo, buf_hi] = *at;
          if (hi <= lo) continue;  // no cells computed at this point
          const std::int64_t access_lo = lo + off;
          const std::int64_t access_hi = hi - 1 + off;
          // Static array extent: local index (i - B_LO) must fit.
          const std::int64_t static_hi = buf_lo + ext;
          if (access_lo < buf_lo || access_hi >= buf_hi ||
              access_hi >= static_hi) {
            support::Diagnostic& diag = diags->error(
                "SCL202",
                str_cat("stage '", prog.stage(stage).name, "' reads field '",
                        prog.field(access.field).name, "' at offset ", off,
                        " over [", access_lo, ", ", access_hi + 1,
                        ") along dim ", d,
                        ", escaping the local buffer box [", buf_lo, ", ",
                        std::min(buf_hi, static_hi), ")"));
            diag.location = {"kernel", kernel_name(kernel), -1};
            diag.notes.push_back(str_cat(
                "evaluated at region origin ", origin,
                ", fused-iteration distance pass_h - it = ", dt));
            diag.notes.push_back(str_cat(
                "the halo this access needs is neither held in the "
                "buffer margin nor deliverable by a pipe at that "
                "iteration"));
            flagged = true;
            break;
          }
        }
      }
    }
  }
}

void analyze_bounds(const AnalysisInput& input,
                    support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;
  for (int k = 0; k < ctx.kernel_count(); ++k) {
    check_buffer_bounds(input, k, codegen::buffer_bounds(ctx, k), diags);
    for (int f = 0; f < prog.field_count(); ++f) {
      if (prog.is_constant_field(f)) continue;
      check_owned_bounds(input, k, f, codegen::owned_bounds(ctx, k, f),
                         diags);
    }
    for (int s = 0; s < prog.stage_count(); ++s) {
      check_stage_accesses(input, k, s,
                           codegen::stage_compute_bounds(ctx, k, s), diags);
    }
  }
}

// ---- pass 3: resource feasibility cross-check (SCL3xx) ---------------------

void analyze_resources(const AnalysisInput& input,
                       const ChargedResources& charged,
                       support::DiagnosticEngine* diags) {
  const GenContext& ctx = input.ctx;
  const StencilProgram& prog = *ctx.program;

  // Directed channels the codegen view declares versus the FIFOs the
  // model paid for.
  const auto declared = static_cast<std::int64_t>(input.pipes.size());
  if (declared != charged.pipe_count) {
    support::Diagnostic& diag = diags->error(
        "SCL301",
        str_cat("codegen declares ", declared,
                " pipe channels but the resource model charged ",
                charged.pipe_count));
    diag.location = {"design", "resource model", -1};
    diag.notes.push_back(
        "model/codegen drift: the DSE compared candidates under a "
        "different pipe inventory than the emitted design uses");
  }

  // Local-buffer footprint, recomputed from the emitter's static extents.
  int shadow_stages = 0;
  for (int s = 0; s < prog.stage_count(); ++s) {
    if (prog.stage_needs_double_buffer(s)) ++shadow_stages;
  }
  std::int64_t buffer_elements = 0;
  if (ctx.config.family == arch::DesignFamily::kTemporalShift) {
    // The cascade kernel's on-chip state is its shift registers, not
    // tile-shaped line buffers; recompute from the emitter's layout. Each
    // of the R replica cascades owns a full copy.
    buffer_elements = arch::make_temporal_layout(prog, ctx.config).sr_elements *
                      ctx.config.replication;
  } else {
    for (int k = 0; k < ctx.kernel_count(); ++k) {
      std::int64_t cells = 1;
      for (int d = 0; d < prog.dims(); ++d) {
        cells *= static_buffer_extent(ctx, k, d);
      }
      buffer_elements += cells * (prog.field_count() + shadow_stages);
    }
  }
  if (buffer_elements != charged.buffer_elements) {
    support::Diagnostic& diag = diags->error(
        "SCL302",
        str_cat("generated kernels hold ", buffer_elements,
                " local-buffer elements but the resource model charged ",
                charged.buffer_elements));
    diag.location = {"design", "resource model", -1};
    diag.notes.push_back(
        "BRAM sizing in the DSE no longer reflects the emitted buffers");
  }

  // FIFO storage: the model must charge at least the boundary-layer
  // volume the schedule actually keeps in flight.
  std::int64_t required_fifo = 0;
  for (const PipeDecl& pipe : input.pipes) {
    const TilePlacement& tile = ctx.tile(pipe.from_kernel);
    for (int d = 0; d < prog.dims(); ++d) {
      for (int side = 0; side < 2; ++side) {
        if (tile.exterior[static_cast<std::size_t>(d)]
                         [static_cast<std::size_t>(side)]) {
          continue;
        }
        if (ctx.neighbor_index(tile, d, side) != pipe.to_kernel) continue;
        const std::int64_t volume =
            max_phase_volume(input, pipe.from_kernel, d, side, diags);
        if (volume > 0) required_fifo += volume;
      }
    }
  }
  if (charged.pipe_count == declared && declared > 0 &&
      charged.pipe_fifo_elements < required_fifo) {
    support::Diagnostic& diag = diags->error(
        "SCL303",
        str_cat("resource model charges ", charged.pipe_fifo_elements,
                " FIFO elements but the exchange schedule keeps ",
                required_fifo, " elements in flight"));
    diag.location = {"design", "resource model", -1};
    diag.notes.push_back(
        "undersized FIFO charging lets infeasible pipe-heavy designs win "
        "the DSE");
  }

  if (!charged.total.fits_within(ctx.device.capacity)) {
    support::Diagnostic& diag = diags->warning(
        "SCL310",
        str_cat("design needs ", charged.total.to_string(),
                " which exceeds device ", ctx.device.name, " capacity ",
                ctx.device.capacity.to_string()));
    diag.location = {"design", "resource model", -1};
  }
}

// ---- entry points ----------------------------------------------------------

support::DiagnosticEngine analyze(const AnalysisInput& input,
                                  const ChargedResources* charged) {
  support::DiagnosticEngine diags;
  analyze_pipe_graph(input, &diags);
  analyze_bounds(input, &diags);
  if (charged != nullptr) analyze_resources(input, *charged, &diags);
  return diags;
}

support::DiagnosticEngine analyze_design(const StencilProgram& program,
                                         const sim::DesignConfig& config,
                                         const fpga::DeviceSpec& device) {
  return analyze(make_analysis_input(program, config, device));
}

}  // namespace scl::analysis
