// TileTask: one synthesized stencil kernel executing one tile's workload
// for one region pass.
//
// The task walks a state machine (read burst -> h fused iterations of
// staged compute with pipe-based halo exchange -> write burst) under the
// cooperative ocl::Runtime. It runs in two modes:
//
//  * Functional — compute steps evaluate the stencil update on real field
//    buffers, strips carry real values, and the owned output is written to
//    the pass's global output field set. Used at small scale to prove the
//    tiling designs bit-exact against the ReferenceExecutor.
//  * TimingOnly — the identical state machine and geometry, but no data is
//    touched: compute charges cycles from cell counts and strips carry no
//    payload, only element counts. Used at paper-scale inputs.
//
// The step path reads its invariants from tables built once: StepTables
// (per-stage timing, compute-box reads, strip protocol keys) once per
// Executor::run, the pipe strip boxes once per region and pipe, and the
// tile's clipped stage boxes once per task. Trace labels are formatted
// only when a trace sink is attached.
//
// Latency hiding (paper §3.1). Within each stage the cells are split into
// the *independent* group (no halo data needed) and the *dependent* group
// (within the stage's read radius of a pipe-shared face). The kernel
// computes the independent group first, then applies exactly the neighbor
// strips the dependent group requires — strips that have been in flight
// since the neighbor's matching stage — then computes the dependent group
// and pushes its own boundary strips. Incoming strips are also drained
// from the FIFOs opportunistically whenever a send backpressures, but they
// are *applied* to the halo only at their protocol position, so a kernel
// racing ahead can never leak a too-new value into a neighbor's update.
//
// Compute-box calculus. The task tracks, per field, the box over which the
// field's *latest* version is valid inside the tile buffer. A stage's
// compute box starts from the field's updatable region, is clipped to the
// tile edge on faces shared with sibling tiles, and on region-exterior
// faces extends as far as every read field's validity allows — with a
// margin "pinned" once validity reaches the Dirichlet boundary region,
// whose cells never change. This yields the shrinking overlapped cone of
// the baseline design and the exterior-face-only cone of the heterogeneous
// design from a single implementation.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "ocl/memory.hpp"
#include "ocl/pipe.hpp"
#include "ocl/runtime.hpp"
#include "sim/design.hpp"
#include "sim/region.hpp"
#include "sim/timeline.hpp"
#include "sim/trace.hpp"
#include "stencil/grid.hpp"
#include "stencil/program.hpp"
#include "stencil/state.hpp"

namespace scl::sim {

enum class SimMode { kFunctional, kTimingOnly };

/// `placement`'s box grown by iter_radii * (h - i) on its region-exterior
/// faces and clipped to the grid: the cells that must be correct after
/// fused iteration `i` (of `h`) for the final owned output to be exact.
Box extended_tile_box(const scl::stencil::StencilProgram& program,
                      const TilePlacement& placement, std::int64_t h,
                      std::int64_t i);

/// The strip of field `f` that crosses `face` into `receiver`'s halo during
/// fused iteration `i`: the receiver-side halo of width
/// field_read_radii(f), clipped to the sender's extended box. Sender and
/// receiver compute the identical box, which is what keeps the FIFO
/// protocol self-synchronizing.
Box halo_strip_box(const scl::stencil::StencilProgram& program,
                   const TilePlacement& receiver, const TilePlacement& sender,
                   const Face& face, int f, std::int64_t h, std::int64_t i);

/// Widest strip (elements) ever exchanged in either direction across the
/// face between `a` and `b` (`face` is from `a`'s perspective). Pipes must
/// be at least this deep or the symmetric send phases deadlock.
std::int64_t max_face_strip_elements(
    const scl::stencil::StencilProgram& program, const TilePlacement& a,
    const TilePlacement& b, const Face& face, std::int64_t h);

/// The strip boxes that cross one directed pipe during a pass of `h` fused
/// iterations, indexed [(i - 1) * field_count + f]: halo_strip_box of every
/// (iteration i, field f) for `receiver`'s `face`. Built once per pipe and
/// read by both of its ends.
using StripBoxes = std::vector<Box>;
StripBoxes pipe_strip_boxes(const scl::stencil::StencilProgram& program,
                            const TilePlacement& receiver,
                            const TilePlacement& sender, const Face& face,
                            std::int64_t h);

/// Per-face pipe endpoints (index [dim][side]); null when the face is
/// region-exterior or has no neighbor.
using FacePipes = std::array<std::array<ocl::Pipe*, 2>, 3>;
/// Per-face strip boxes of those pipes (index [dim][side]).
using FaceStrips = std::array<std::array<const StripBoxes*, 2>, 3>;

/// What every step of every tile of one simulation reads: the per-stage
/// timing of the design's unroll factor and the program's compute-box and
/// strip-protocol tables. Depends only on (program, unroll), so
/// Executor::run builds it once.
struct StepTables {
  StepTables(const scl::stencil::StencilProgram& program, int unroll);

  std::vector<double> cycles_per_element;  ///< II_s / N_PE per stage
  std::vector<std::int64_t> depth;  ///< pipeline fill/drain per stage

  /// One mutable field a stage reads, with its widest read offset toward
  /// each side: how far the stage's compute box must stay inside the
  /// field's validity box.
  struct FieldRead {
    int field = 0;
    scl::stencil::SideRadii shift{};
  };
  std::vector<std::vector<FieldRead>> reads;  ///< per stage

  /// Writer stages whose strips a stage waits on across face [dim][side]:
  /// the latest writer earlier in the same iteration, else the latest
  /// writer at or after the stage (whose strip is from the previous
  /// iteration); -1 for none.
  struct NeededWriters {
    int current = -1;
    int previous = -1;
  };
  using FaceWriters = std::array<std::array<NeededWriters, 2>, 3>;
  std::vector<FaceWriters> needed;  ///< per stage

  /// consumed_after[s][d][halo_side]: a later stage of the same iteration
  /// reads stage s's output across that halo side (0 = low, 1 = high), so
  /// the strip s emits in a pass's final iteration is still consumed.
  using FaceFlags = std::array<std::array<bool, 2>, 3>;
  std::vector<FaceFlags> consumed_after;  ///< per stage
};

struct TileTaskParams {
  const scl::stencil::StencilProgram* program = nullptr;
  /// Shared per-run tables; must outlive the task.
  const StepTables* tables = nullptr;
  SimMode mode = SimMode::kTimingOnly;
  DesignKind kind = DesignKind::kBaseline;

  TilePlacement tile;

  std::int64_t fused_iterations = 1;  ///< h for this pass

  std::int64_t launch_offset = 0;    ///< start clock (sequential launches)
  ocl::GlobalMemory* memory = nullptr;
  int memory_sharers = 1;            ///< kernels sharing DDR bandwidth (K)

  FacePipes out_pipes{};  ///< strips this tile sends
  FacePipes in_pipes{};   ///< strips this tile receives
  FaceStrips out_strips{};  ///< boxes of out_pipes' strips
  FaceStrips in_strips{};   ///< boxes of in_pipes' strips

  /// §3.1 latency hiding; off = pipe writes fully exposed (ablation).
  bool latency_hiding = true;

  /// Optional event sink; every clock-advancing step is appended.
  std::vector<TraceEvent>* trace = nullptr;

  // Functional-mode global state (pass input / pass output).
  const scl::stencil::FieldSet* global_in = nullptr;
  scl::stencil::FieldSet* global_out = nullptr;
};

class TileTask final : public ocl::KernelTask {
 public:
  explicit TileTask(TileTaskParams params);

  StepResult step() override;
  std::int64_t clock() const override { return clock_; }
  const std::string& name() const override { return name_; }

  const PhaseBreakdown& phases() const { return phases_; }
  std::int64_t cells_owned() const { return cells_owned_; }
  std::int64_t cells_redundant() const { return cells_redundant_; }

  /// The tile buffer box (tile + cone margins + halos), useful for
  /// resource sizing and tests.
  const Box& buffer_box() const { return buffer_box_; }

 private:
  enum class State {
    kLaunch,
    kRead,
    kStageIndependent,  ///< compute cells needing no halo data
    kApplyHalo,         ///< blocking: apply strips the dependent cells need
    kStageDependent,    ///< compute boundary-adjacent cells
    kSend,              ///< push this stage's boundary strips
    kWrite,
    kDone,
  };

  /// Protocol position of a strip: lexicographic (iteration, stage).
  struct StripKey {
    std::int64_t iter = 0;
    int stage = 0;
    friend auto operator<=>(const StripKey&, const StripKey&) = default;
  };

  /// One boundary strip expected from (or owed by) a neighbor.
  struct Strip {
    StripKey key;
    int field = 0;
    Face face{0, -1};
    Box box;
    std::vector<float> data;  ///< payload; functional mode only
    std::size_t progress = 0;      ///< elements drained/sent so far
    std::int64_t ready_clock = 0;  ///< availability time of drained data

    std::int64_t volume() const { return box.volume(); }
    bool complete() const {
      return static_cast<std::int64_t>(progress) >= volume();
    }
  };

  // --- geometry helpers ---
  /// Compute box of `stage` at fused iteration `i` from current validity.
  Box compute_box(int stage, std::int64_t i) const;
  /// Splits `c` into the independent core and the dependent strips along
  /// pipe-shared faces (using the stage's read radii).
  void split_compute_box(int stage, const Box& c, Box* independent,
                         std::vector<Box>* dependent) const;

  // --- state-machine steps ---
  void do_launch();
  void do_read();
  void do_stage_independent();
  bool do_apply_halo();
  void do_stage_dependent();
  bool do_send();
  void do_write();
  void advance_stage();

  void evaluate_chunk(const Box& chunk);
  void commit_stage_output();
  /// Charges the stage's cycles for `box` and returns them.
  std::int64_t charge_compute(const Box& box, bool with_depth);
  /// Appends [begin, clock_) to the trace sink (no-op without one).
  void record(std::string_view phase, std::int64_t begin);
  /// Moves available FIFO data into pending strip buffers without applying
  /// it (safe at any time; called opportunistically on send backpressure).
  void drain_face(int d, int side);
  /// Highest strip key stage (iter_, stage_) depends on across `face`,
  /// or nullopt when the stage reads nothing across it.
  std::optional<StripKey> needed_key(int d, int side) const;

  /// True if the strip of the current stage's output crossing halo side
  /// `halo_side` (0 = low, 1 = high) of dimension `d` is ever consumed:
  /// always before the final fused iteration, and in it only when a later
  /// stage reads the field across that side. Sender and receiver apply the
  /// same predicate so the pipes never accumulate strips nobody reads.
  bool strip_is_consumed(int d, int halo_side) const;
  /// This iteration's box of the current stage's strip in `strips`.
  const Box& strip_box(const StripBoxes& strips) const;

  const scl::stencil::StencilProgram& program() const {
    return *params_.program;
  }
  const StepTables& tables() const { return *params_.tables; }
  bool face_is_shared(int d, int side) const {
    return params_.kind == DesignKind::kHeterogeneous &&
           !params_.tile.exterior[static_cast<std::size_t>(d)]
                                 [static_cast<std::size_t>(side)];
  }

  TileTaskParams params_;
  std::string name_;
  State state_ = State::kLaunch;
  std::int64_t clock_ = 0;
  PhaseBreakdown phases_;

  Box buffer_box_;
  std::vector<Box> valid_;  ///< per-field latest-version validity box
  /// Per stage: the output field's updated box clipped to the tile edge
  /// on pipe-shared faces, where compute_box() starts.
  std::vector<Box> stage_boxes_;

  // Functional-mode storage.
  std::optional<scl::stencil::FieldSet> fields_;
  std::optional<scl::stencil::Grid<float>> shadow_;

  // Iteration/stage cursor.
  std::int64_t iter_ = 1;  // 1-based fused iteration
  int stage_ = 0;

  // Current stage work decomposition.
  Box current_box_;
  Box independent_box_;
  std::vector<Box> dependent_boxes_;

  // Outgoing strips of the current stage.
  std::vector<Strip> sends_;
  std::size_t send_cursor_ = 0;
  /// Independent-compute cycles of the current stage still available to
  /// hide pipe-write time behind (paper §3.1 latency hiding).
  std::int64_t overlap_budget_ = 0;

  // Incoming strips, per face, in protocol order. Front entries fill as
  // FIFOs drain; entries are applied (written to the halo) only when a
  // dependent compute requires their key. A face holds a few strips at a
  // time, so a vector popped at the front never reallocates once warm.
  std::array<std::array<std::vector<Strip>, 2>, 3> incoming_;

  std::int64_t cells_owned_ = 0;
  std::int64_t cells_redundant_ = 0;
};

}  // namespace scl::sim
