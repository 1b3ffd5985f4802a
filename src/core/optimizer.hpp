// Performance optimizer / design-space exploration (paper §5.1).
//
// The optimizer drives the analytical model over the design space and
// returns the fastest configuration that fits the device:
//
//  * optimize_baseline() reproduces the state-of-the-art flow of Nacci et
//    al. [DAC'13]: it explores iteration-fusion depth, tile size and
//    parallelism (plus the unroll factor N_PE) for the overlapped-tiling
//    design under the device's resource budget.
//  * optimize_heterogeneous() reproduces the paper's evaluation protocol
//    (§5.4): parallelism and unroll are pinned to the baseline's, the
//    total resources are capped by what the *baseline* consumed, and the
//    fusion depth, tile size and workload-balancing factors are chosen by
//    the model.
//
// Internally the search is split into a pure CandidateSpace enumerator
// and a parallel EvaluationEngine (see candidate_space.hpp,
// evaluation_engine.hpp). Candidates are evaluated concurrently on a
// thread pool, collected in enumeration order, and selected by an
// explicit deterministic comparator — so explore results, Pareto
// frontiers and best() are bit-identical for any thread count.
#pragma once

#include <optional>
#include <vector>

#include "core/candidate_space.hpp"
#include "core/design_point.hpp"
#include "core/evaluation_engine.hpp"
#include "core/pareto_front.hpp"
#include "core/resource_estimator.hpp"
#include "fpga/device.hpp"
#include "model/perf_model.hpp"
#include "sim/design.hpp"
#include "stencil/program.hpp"

namespace scl::core {

struct OptimizerOptions {
  fpga::DeviceSpec device = fpga::virtex7_690t();
  /// Usable fraction of the device (routing headroom).
  double resource_fraction = 0.8;
  /// Candidate fusion depths (filtered to <= H). Empty = powers of two.
  std::vector<std::int64_t> fusion_candidates;
  /// Candidate per-dimension tile extents. Empty = built-in defaults
  /// scaled by dimensionality.
  std::vector<std::int64_t> tile_candidates;
  /// Candidate unroll factors (N_PE).
  std::vector<int> unroll_candidates{1, 2, 4, 8, 16};
  /// Max kernels per region (the paper uses up to 16).
  std::int64_t max_kernels = 16;
  /// Candidate spatial replication factors R (PE copies bound to disjoint
  /// global-memory bank groups). Empty = derived from the device: {1} on
  /// single-bank (DDR) devices — keeping their searches bit-identical to
  /// the pre-replication DSE — otherwise the powers of two up to and
  /// including the bank count.
  std::vector<int> replication_candidates;
  /// Candidate edge-shrink values for workload balancing.
  std::vector<std::int64_t> shrink_candidates{0, 1, 2, 4, 8};
  model::ConeMode cone_mode = model::ConeMode::kRefined;
  /// Worker threads for candidate evaluation. <= 0 resolves via the
  /// SCL_THREADS environment variable, then hardware concurrency.
  int threads = 0;
  /// Run the static design verifier (pipe graph + halo/bounds passes) on
  /// every evaluated candidate and drop candidates with error
  /// diagnostics from the feasible set. Off by default: the shipped
  /// candidate spaces are verified clean, so the per-candidate cost only
  /// pays off when exploring hand-extended spaces.
  bool analyze_candidates = false;
  /// Deep per-candidate verification: additionally generate the
  /// candidate's OpenCL and run the pass-4 kernel-IR abstract
  /// interpretation (SCL4xx) on it, folding error diagnostics into the
  /// same feasibility filter as analyze_candidates. Far more expensive
  /// (full codegen per candidate); only meaningful together with
  /// analyze_candidates. The emitted designs verify clean, so with a
  /// healthy emitter the chosen optimum is bit-identical with this on or
  /// off (tested in tests/ir_test.cpp).
  bool deep_ir_analysis = false;
  /// Branch-and-bound pruning for the optimize_* searches: admissible
  /// lower bounds (model/lower_bound.hpp) discard candidates that
  /// provably cannot beat a deterministically chosen incumbent. The
  /// reported optimum is bit-identical with pruning on or off (see
  /// tests/dse_prune_test.cpp); explore() and pareto_frontier() always
  /// stay exhaustive.
  bool prune = true;
};

class Optimizer {
 public:
  Optimizer(const scl::stencil::StencilProgram& program,
            OptimizerOptions options);

  /// Best overlapped-tiling design fitting the device budget.
  /// Throws scl::ResourceError when nothing fits.
  DesignPoint optimize_baseline() const;

  /// Best pipe-shared heterogeneous design using the baseline's
  /// parallelism/unroll and at most the baseline's resources.
  DesignPoint optimize_heterogeneous(const DesignPoint& baseline) const;

  /// Best temporal-blocked shift-register design (arch/family.hpp)
  /// fitting the device budget: vector width x strip width x temporal
  /// degree, searched with the same branch-and-bound machinery and the
  /// same determinism contract as optimize_baseline. Throws
  /// scl::ResourceError when nothing fits.
  DesignPoint optimize_temporal() const;

  /// Every budget-feasible temporal-shift design, in enumeration order
  /// (the temporal counterpart of explore()).
  std::vector<DesignPoint> explore_temporal() const;

  /// Evaluates one configuration (prediction + resources) without
  /// feasibility filtering. Useful for sweeps and ablation studies.
  DesignPoint evaluate(const sim::DesignConfig& config) const;

  /// All budget-feasible designs of `kind` that are Pareto-optimal in
  /// (predicted cycles, BRAM18), sorted by ascending cycles. The first
  /// entry is the latency optimum; walking the list trades speed for
  /// memory footprint.
  std::vector<DesignPoint> pareto_frontier(sim::DesignKind kind) const;

  /// Every budget-feasible design of `kind`, in enumeration order — the
  /// raw material of pareto_frontier() and optimize_baseline(). The list
  /// is bit-identical for any thread count.
  std::vector<DesignPoint> explore(sim::DesignKind kind) const;

  /// The resource budget configurations must fit
  /// (device capacity x resource_fraction).
  fpga::ResourceVector budget() const;

  const OptimizerOptions& options() const { return options_; }
  const CandidateSpace& space() const { return space_; }

  /// Evaluation counters (candidates, prunes, wall-clock) accumulated
  /// over every search this optimizer ran.
  DseStats dse_stats() const { return engine_.stats(); }

  /// The (cycles, BRAM18) Pareto front of every feasible design the
  /// optimize_* searches evaluated, accumulated across searches. With
  /// pruning on this covers the latency-competitive band the search kept
  /// (bounds more than kPruneMargin above the incumbent are discarded
  /// unevaluated) — the high-latency/low-BRAM tail of the exhaustive
  /// frontier is intentionally absent; pareto_frontier() computes the
  /// full curve. Deterministic for any thread count.
  const std::vector<DesignPoint>& retained_frontier() const {
    return retained_.points();
  }

  /// Pruning margin: a candidate is discarded only when its admissible
  /// latency bound exceeds kPruneMargin x the incumbent's exact latency.
  /// The running-best scan's 1.0005x near-tie band lets the incumbent
  /// drift above the true optimum by a bounded chain of near-tie
  /// replacements (worst case ~1.065x across the shipped candidate
  /// spaces); 1.10 leaves headroom beyond that, so every candidate the
  /// exhaustive scan could ever select survives the prune.
  static constexpr double kPruneMargin = 1.10;

 private:
  DesignPoint select_best(const std::vector<DesignPoint>& feasible) const;

  /// Branch-and-bound over `chains` (enumeration order) under resource
  /// cap `cap`: serial deterministic bound/seed/keep phase, then one
  /// parallel chain evaluation of the kept subsets (which preserves the
  /// monotone early exit on over-budget fusion tails). Returns the same
  /// design the exhaustive filter-and-select path returns, or nullopt
  /// when nothing feasible exists. Feasible points feed retained_.
  std::optional<DesignPoint> branch_and_bound(
      const std::vector<CandidateChain>& chains,
      const fpga::ResourceVector& cap) const;

  const scl::stencil::StencilProgram* program_;
  OptimizerOptions options_;
  CandidateSpace space_;
  /// Mutable: the engine's counters advance under const searches;
  /// evaluation itself is pure.
  mutable EvaluationEngine engine_;
  /// Mutable for the same reason: a by-product of const searches.
  mutable ParetoFront retained_;
};

}  // namespace scl::core
