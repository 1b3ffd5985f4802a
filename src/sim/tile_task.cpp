#include "sim/tile_task.hpp"

#include <algorithm>
#include <cmath>

#include "fpga/hls.hpp"
#include "stencil/reference.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace scl::sim {

using scl::stencil::Box;
using scl::stencil::Face;
using scl::stencil::FieldSet;
using scl::stencil::Grid;
using scl::stencil::Index;
using scl::stencil::Stage;
using scl::stencil::StencilProgram;

Box extended_tile_box(const StencilProgram& program,
                      const TilePlacement& placement, std::int64_t h,
                      std::int64_t i) {
  Box box = placement.box;
  const std::int64_t remaining = h - i;
  for (int d = 0; d < program.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (!placement.exterior[ds][static_cast<std::size_t>(side)]) continue;
      const Face face{d, side == 0 ? -1 : +1};
      box = box.grown(
          face, program.iter_radii()[ds][static_cast<std::size_t>(side)] *
                    remaining);
    }
  }
  return box.intersect(program.grid_box());
}

namespace {

/// Field `f`'s halo strip across `face` of the receiver's extended box
/// `mine`, clipped to the sender's extended box `theirs`.
Box strip_between(const StencilProgram& program, const Box& mine,
                  const Box& theirs, const Face& face, int f) {
  const auto ds = static_cast<std::size_t>(face.dim);
  const auto side = static_cast<std::size_t>(face.dir < 0 ? 0 : 1);
  const std::int64_t width = program.field_read_radii(f)[ds][side];
  if (width == 0) return Box{};
  return mine.halo_strip(face, width).intersect(theirs);
}

}  // namespace

Box halo_strip_box(const StencilProgram& program,
                   const TilePlacement& receiver, const TilePlacement& sender,
                   const Face& face, int f, std::int64_t h, std::int64_t i) {
  return strip_between(program, extended_tile_box(program, receiver, h, i),
                       extended_tile_box(program, sender, h, i), face, f);
}

std::int64_t max_face_strip_elements(const StencilProgram& program,
                                     const TilePlacement& a,
                                     const TilePlacement& b, const Face& face,
                                     std::int64_t h) {
  // A directed pipe can hold strips of every mutable field of the current
  // iteration plus deferred strips of the previous one while the consumer
  // works ahead of its apply points; the FIFO must hold them all or the
  // producer backpressures every stage.
  std::int64_t per_iteration = 0;
  const Face mirrored{face.dim, -face.dir};
  for (int f = 0; f < program.field_count(); ++f) {
    if (program.is_constant_field(f)) continue;
    per_iteration +=
        std::max(halo_strip_box(program, a, b, face, f, h, 1).volume(),
                 halo_strip_box(program, b, a, mirrored, f, h, 1).volume());
  }
  return 2 * per_iteration;
}

StripBoxes pipe_strip_boxes(const StencilProgram& program,
                            const TilePlacement& receiver,
                            const TilePlacement& sender, const Face& face,
                            std::int64_t h) {
  StripBoxes strips;
  strips.reserve(static_cast<std::size_t>(h * program.field_count()));
  for (std::int64_t i = 1; i <= h; ++i) {
    const Box mine = extended_tile_box(program, receiver, h, i);
    const Box theirs = extended_tile_box(program, sender, h, i);
    for (int f = 0; f < program.field_count(); ++f) {
      strips.push_back(strip_between(program, mine, theirs, face, f));
    }
  }
  return strips;
}

StepTables::StepTables(const StencilProgram& program, int unroll) {
  const auto stages = static_cast<std::size_t>(program.stage_count());
  reads.resize(stages);
  needed.resize(stages);
  consumed_after.resize(stages);
  for (int s = 0; s < program.stage_count(); ++s) {
    const auto ss = static_cast<std::size_t>(s);
    const Stage& st = program.stage(s);
    const fpga::HlsEstimate est = fpga::estimate_stage(st, unroll);
    cycles_per_element.push_back(fpga::cycles_per_element(est, unroll));
    depth.push_back(est.depth);

    for (const auto& read : st.reads) {
      if (program.is_constant_field(read.field)) continue;
      auto it = std::find_if(reads[ss].begin(), reads[ss].end(),
                             [&](const FieldRead& r) {
                               return r.field == read.field;
                             });
      if (it == reads[ss].end()) {
        it = reads[ss].insert(reads[ss].end(), FieldRead{read.field, {}});
      }
      const int writer = program.writing_stage(read.field);
      for (int d = 0; d < program.dims(); ++d) {
        const auto ds = static_cast<std::size_t>(d);
        const int off = read.offset[ds];
        if (off == 0) continue;
        const std::size_t side = off < 0 ? 0 : 1;
        const std::int64_t dist = off < 0 ? -off : off;
        it->shift[ds][side] = std::max(it->shift[ds][side], dist);
        NeededWriters& w = needed[ss][ds][side];
        int& slot = writer < s ? w.current : w.previous;
        slot = std::max(slot, writer);
        // A read across this side by stage s consumes the strips of the
        // field's writer when it runs earlier in the iteration.
        if (writer < s) {
          consumed_after[static_cast<std::size_t>(writer)][ds][side] = true;
        }
      }
    }
  }
}

TileTask::TileTask(TileTaskParams params) : params_(std::move(params)) {
  SCL_CHECK(params_.program != nullptr, "tile task needs a program");
  SCL_CHECK(params_.tables != nullptr, "tile task needs step tables");
  SCL_CHECK(params_.memory != nullptr, "tile task needs a memory channel");
  SCL_CHECK(params_.fused_iterations >= 1, "pass needs >= 1 iterations");
  const TilePlacement& tile = params_.tile;
  name_ = str_cat("tile(", tile.coord[0], ",", tile.coord[1], ",",
                  tile.coord[2], ")");

  if (tile.box.empty()) {
    // Remainder regions can leave trailing tiles without cells; the kernel
    // is still enqueued (and charged its launch slot) but does nothing.
    clock_ = params_.launch_offset;
    phases_.launch = params_.launch_offset;
    state_ = State::kDone;
    return;
  }

  const StencilProgram& prog = program();
  buffer_box_ = tile.box;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      const Face face{d, side == 0 ? -1 : +1};
      const std::int64_t margin =
          face_is_shared(d, side)
              ? prog.max_stage_radii()[ds][static_cast<std::size_t>(side)]
              : prog.iter_radii()[ds][static_cast<std::size_t>(side)] *
                    params_.fused_iterations;
      buffer_box_ = buffer_box_.grown(face, margin);
    }
  }
  buffer_box_ = buffer_box_.intersect(prog.grid_box());
  valid_.assign(static_cast<std::size_t>(prog.field_count()), Box{});

  // Pipes provide the halo on shared faces: every stage computes exactly
  // up to the tile edge there.
  stage_boxes_.reserve(static_cast<std::size_t>(prog.stage_count()));
  for (int s = 0; s < prog.stage_count(); ++s) {
    Box c = prog.updated_box(prog.stage(s).output_field);
    for (int d = 0; d < prog.dims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      if (face_is_shared(d, 0)) c.lo[ds] = std::max(c.lo[ds], tile.box.lo[ds]);
      if (face_is_shared(d, 1)) c.hi[ds] = std::min(c.hi[ds], tile.box.hi[ds]);
    }
    stage_boxes_.push_back(c);
  }

  if (params_.mode == SimMode::kFunctional) {
    SCL_CHECK(params_.global_in != nullptr && params_.global_out != nullptr,
              "functional mode needs global field sets");
  }
}

Box TileTask::compute_box(int stage, std::int64_t i) const {
  const StencilProgram& prog = program();
  const TilePlacement& tile = params_.tile;
  const std::vector<StepTables::FieldRead>& reads =
      tables().reads[static_cast<std::size_t>(stage)];
  // What the final output can still depend on: the tile grown by the cone
  // of the remaining iterations (the loop bound a generated kernel would
  // use; without it, multi-stage programs with lazily-shrinking fields
  // would compute far-out scratch cells that cannot influence the owned
  // result). The grid clip is implied: the updated box lies inside it.
  const std::int64_t remaining = params_.fused_iterations - (i - 1);
  Box c = stage_boxes_[static_cast<std::size_t>(stage)];
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (face_is_shared(d, side)) continue;
      const auto ss = static_cast<std::size_t>(side);
      const std::int64_t cone = prog.iter_radii()[ds][ss] * remaining;
      // Region-exterior face: extend as far as every read field's validity
      // allows. Once validity reaches the Dirichlet region (whose cells
      // never change) the margin is pinned and stops shrinking.
      if (side == 0) {
        c.lo[ds] = std::max(c.lo[ds], tile.box.lo[ds] - cone);
        for (const StepTables::FieldRead& read : reads) {
          const Box& v = valid_[static_cast<std::size_t>(read.field)];
          if (v.lo[ds] > prog.updated_box(read.field).lo[ds]) {
            c.lo[ds] = std::max(c.lo[ds], v.lo[ds] + read.shift[ds][0]);
          }
        }
      } else {
        c.hi[ds] = std::min(c.hi[ds], tile.box.hi[ds] + cone);
        for (const StepTables::FieldRead& read : reads) {
          const Box& v = valid_[static_cast<std::size_t>(read.field)];
          if (v.hi[ds] < prog.updated_box(read.field).hi[ds]) {
            c.hi[ds] = std::min(c.hi[ds], v.hi[ds] - read.shift[ds][1]);
          }
        }
      }
    }
  }
  return c;
}

void TileTask::split_compute_box(int stage, const Box& c, Box* independent,
                                 std::vector<Box>* dependent) const {
  const StencilProgram& prog = program();
  const auto& radii = prog.stage_radii(stage);
  Box rem = c;
  dependent->clear();
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (!face_is_shared(d, side)) continue;
      const std::int64_t rho = radii[ds][static_cast<std::size_t>(side)];
      if (rho == 0 || rem.empty()) continue;
      Box strip = rem;
      if (side == 0) {
        const std::int64_t cut =
            std::min(rem.hi[ds], params_.tile.box.lo[ds] + rho);
        if (cut <= rem.lo[ds]) continue;
        strip.hi[ds] = cut;
        rem.lo[ds] = cut;
      } else {
        const std::int64_t cut =
            std::max(rem.lo[ds], params_.tile.box.hi[ds] - rho);
        if (cut >= rem.hi[ds]) continue;
        strip.lo[ds] = cut;
        rem.hi[ds] = cut;
      }
      if (!strip.empty()) dependent->push_back(strip);
    }
  }
  *independent = rem;
}

void TileTask::record(std::string_view phase, std::int64_t begin) {
  if (params_.trace != nullptr && clock_ > begin) {
    params_.trace->push_back(
        TraceEvent{name_, std::string(phase), begin, clock_});
  }
}

std::int64_t TileTask::charge_compute(const Box& box, bool with_depth) {
  const std::int64_t cells = box.volume();
  if (cells == 0) return 0;
  const auto ss = static_cast<std::size_t>(stage_);
  const std::int64_t own = box.intersect(params_.tile.box).volume();
  const std::int64_t cycles =
      static_cast<std::int64_t>(
          std::ceil(static_cast<double>(cells) *
                    tables().cycles_per_element[ss])) +
      (with_depth ? tables().depth[ss] : 0);
  clock_ += cycles;
  const std::int64_t own_cycles = static_cast<std::int64_t>(
      std::llround(static_cast<double>(cycles) * static_cast<double>(own) /
                   static_cast<double>(cells)));
  phases_.compute_own += own_cycles;
  phases_.compute_redundant += cycles - own_cycles;
  cells_owned_ += own;
  cells_redundant_ += cells - own;
  if (params_.trace != nullptr) {
    record(str_cat("compute s", stage_, " it", iter_), clock_ - cycles);
  }
  return cycles;
}

void TileTask::evaluate_chunk(const Box& chunk) {
  if (params_.mode != SimMode::kFunctional) return;
  const StencilProgram& prog = program();
  const Stage& st = prog.stage(stage_);
  // compute_box() can pin a cone edge at the Dirichlet boundary beyond the
  // buffer; those discarded cells would read unloaded cells: skip them.
  Box box = chunk;
  for (const auto& read : st.reads) {
    box = box.intersect(buffer_box_.shifted_back(read.offset));
  }
  if (box.empty()) return;
  FieldSet& fields = *fields_;
  Grid<float>& out = fields[static_cast<std::size_t>(st.output_field)];
  if (prog.stage_needs_double_buffer(stage_)) {
    if (!shadow_.has_value()) shadow_.emplace(buffer_box_);
    Grid<float>& shadow = *shadow_;
    scl::stencil::evaluate_stage(
        prog, stage_, fields, box,
        [&](const Index& p, float v) { shadow.at(p) = v; });
  } else {
    scl::stencil::evaluate_stage(
        prog, stage_, fields, box,
        [&](const Index& p, float v) { out.at(p) = v; });
  }
}

void TileTask::commit_stage_output() {
  const StencilProgram& prog = program();
  if (params_.mode == SimMode::kFunctional &&
      prog.stage_needs_double_buffer(stage_) && !current_box_.empty()) {
    (*fields_)[static_cast<std::size_t>(prog.stage(stage_).output_field)]
        .copy_box_from(*shadow_, current_box_);
  }
  valid_[static_cast<std::size_t>(prog.stage(stage_).output_field)] =
      current_box_;
}

void TileTask::do_launch() {
  clock_ = params_.launch_offset;
  phases_.launch = params_.launch_offset;
  record("launch", 0);
  state_ = State::kRead;
}

void TileTask::do_read() {
  const StencilProgram& prog = program();
  if (params_.mode == SimMode::kFunctional) {
    FieldSet fields;
    fields.reserve(static_cast<std::size_t>(prog.field_count()));
    for (int f = 0; f < prog.field_count(); ++f) {
      Grid<float> g(buffer_box_);
      g.copy_box_from((*params_.global_in)[static_cast<std::size_t>(f)],
                      buffer_box_);
      fields.push_back(std::move(g));
    }
    fields_ = std::move(fields);
  }
  for (Box& v : valid_) v = buffer_box_;

  const std::int64_t bytes = prog.field_count() * buffer_box_.volume() *
                             StencilProgram::element_bytes();
  const std::int64_t cycles =
      params_.memory->transfer_cycles(bytes, params_.memory_sharers);
  params_.memory->record_transfer(bytes);
  clock_ += cycles;
  phases_.mem_read += cycles;
  record("mem_read", clock_ - cycles);
  state_ = State::kStageIndependent;
}

void TileTask::do_stage_independent() {
  const StencilProgram& prog = program();
  const int f = prog.stage(stage_).output_field;

  current_box_ = compute_box(stage_, iter_);
  split_compute_box(stage_, current_box_, &independent_box_,
                    &dependent_boxes_);

  // Register the strips the neighbors will send for this (iteration,
  // stage) so FIFO drains have a place to land.
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (!face_is_shared(d, side)) continue;
      if (!strip_is_consumed(d, side)) continue;
      const Box& box = strip_box(*params_.in_strips[ds][side]);
      if (box.empty()) continue;
      Strip strip;
      strip.key = {iter_, stage_};
      strip.field = f;
      strip.face = Face{d, side == 0 ? -1 : +1};
      strip.box = box;
      if (params_.mode == SimMode::kFunctional) {
        strip.data.reserve(static_cast<std::size_t>(box.volume()));
      }
      incoming_[ds][static_cast<std::size_t>(side)].push_back(
          std::move(strip));
    }
  }

  const std::int64_t indep_cycles =
      charge_compute(independent_box_, /*with_depth=*/true);
  overlap_budget_ = params_.latency_hiding ? indep_cycles : 0;
  evaluate_chunk(independent_box_);
  state_ = State::kApplyHalo;
}

void TileTask::drain_face(int d, int side) {
  const auto ds = static_cast<std::size_t>(d);
  const auto ss = static_cast<std::size_t>(side);
  ocl::Pipe* pipe = params_.in_pipes[ds][ss];
  if (pipe == nullptr) return;
  auto& queue = incoming_[ds][ss];
  for (Strip& strip : queue) {
    if (pipe->size() == 0) return;
    if (strip.complete()) continue;
    const std::int64_t want =
        strip.volume() - static_cast<std::int64_t>(strip.progress);
    const std::int64_t take = std::min(pipe->size(), want);
    // Drain with the current clock but do not advance it: the kernel is
    // not waiting here. The availability time is remembered and charged
    // when the strip is applied.
    if (params_.mode == SimMode::kFunctional) {
      const auto r = pipe->read(take, clock_);
      strip.ready_clock = std::max(strip.ready_clock, r.reader_clock);
      strip.data.insert(strip.data.end(), r.values.begin(), r.values.end());
    } else {
      const auto r = pipe->read_counted(take, clock_);
      strip.ready_clock = std::max(strip.ready_clock, r.reader_clock);
    }
    strip.progress += static_cast<std::size_t>(take);
  }
}

bool TileTask::strip_is_consumed(int d, int halo_side) const {
  // Before the final iteration the next iteration reads every strip.
  return iter_ < params_.fused_iterations ||
         tables().consumed_after[static_cast<std::size_t>(stage_)]
                                [static_cast<std::size_t>(d)]
                                [static_cast<std::size_t>(halo_side)];
}

const Box& TileTask::strip_box(const StripBoxes& strips) const {
  const int f = program().stage(stage_).output_field;
  return strips[static_cast<std::size_t>((iter_ - 1) * program().field_count() +
                                         f)];
}

std::optional<TileTask::StripKey> TileTask::needed_key(int d, int side) const {
  const StepTables::NeededWriters& w =
      tables().needed[static_cast<std::size_t>(stage_)]
                     [static_cast<std::size_t>(d)]
                     [static_cast<std::size_t>(side)];
  // A strip of this iteration always outranks one of the previous
  // iteration; the pre-pass halo (iteration 0) came with the global read.
  if (w.current >= 0) return StripKey{iter_, w.current};
  if (w.previous >= 0 && iter_ > 1) return StripKey{iter_ - 1, w.previous};
  return std::nullopt;
}

bool TileTask::do_apply_halo() {
  const StencilProgram& prog = program();
  bool progressed = false;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (!face_is_shared(d, side)) continue;
      const std::optional<StripKey> needed = needed_key(d, side);
      if (!needed.has_value()) continue;
      auto& queue = incoming_[ds][static_cast<std::size_t>(side)];
      while (!queue.empty() && queue.front().key <= *needed) {
        Strip& strip = queue.front();
        if (!strip.complete()) {
          const std::size_t before = strip.progress;
          drain_face(d, side);
          progressed |= strip.progress != before;
          if (!strip.complete()) return progressed;
        }
        // Charge the wait: the dependent cells cannot start before the
        // strip's last element arrived.
        if (strip.ready_clock > clock_) {
          phases_.pipe_stall += strip.ready_clock - clock_;
          const std::int64_t begin = clock_;
          clock_ = strip.ready_clock;
          record("halo_wait", begin);
        }
        if (params_.mode == SimMode::kFunctional && strip.volume() > 0) {
          (*fields_)[static_cast<std::size_t>(strip.field)].write_box(
              strip.box, strip.data);
        }
        queue.erase(queue.begin());
        progressed = true;
      }
    }
  }
  state_ = State::kStageDependent;
  return true;
}

void TileTask::do_stage_dependent() {
  for (const Box& chunk : dependent_boxes_) {
    charge_compute(chunk, /*with_depth=*/false);
    evaluate_chunk(chunk);
  }
  commit_stage_output();

  // Queue this stage's outgoing boundary strips.
  const StencilProgram& prog = program();
  const int f = prog.stage(stage_).output_field;
  sends_.clear();
  send_cursor_ = 0;
  for (int d = 0; d < prog.dims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    for (int side = 0; side < 2; ++side) {
      if (!face_is_shared(d, side)) continue;
      // The receiver's halo lies on the opposite side of the dimension.
      if (!strip_is_consumed(d, side == 0 ? 1 : 0)) continue;
      const Box& box = strip_box(*params_.out_strips[ds][side]);
      if (box.empty()) continue;
      Strip strip;
      strip.key = {iter_, stage_};
      strip.field = f;
      strip.face = Face{d, side == 0 ? -1 : +1};
      strip.box = box;
      if (params_.mode == SimMode::kFunctional) {
        strip.data = (*fields_)[static_cast<std::size_t>(f)].read_box(box);
      }
      sends_.push_back(std::move(strip));
    }
  }
  state_ = State::kSend;
}

bool TileTask::do_send() {
  bool progressed = false;
  while (send_cursor_ < sends_.size()) {
    Strip& strip = sends_[send_cursor_];
    const auto ds = static_cast<std::size_t>(strip.face.dim);
    const auto ss = static_cast<std::size_t>(strip.face.dir < 0 ? 0 : 1);
    ocl::Pipe* pipe = params_.out_pipes[ds][ss];
    SCL_CHECK(pipe != nullptr, "shared face without an outgoing pipe");
    const auto w =
        params_.mode == SimMode::kFunctional
            ? pipe->write(strip.data, strip.progress, clock_)
            : pipe->write_counted(
                  strip.volume() - static_cast<std::int64_t>(strip.progress),
                  clock_);
    if (w.written > 0) {
      progressed = true;
      // Pipe writes interleave with the stage's independent computation
      // (§3.1): the transfer cost is hidden up to that budget, and only
      // the excess — plus any backpressure wait — lands on the clock.
      const std::int64_t charged = w.writer_clock - clock_;
      const std::int64_t ideal = w.written * pipe->cycles_per_element();
      const std::int64_t backpressure =
          std::max<std::int64_t>(0, charged - ideal);
      const std::int64_t hidden = std::min(ideal, overlap_budget_);
      overlap_budget_ -= hidden;
      phases_.pipe_transfer += ideal - hidden;
      phases_.pipe_stall += backpressure;
      clock_ += (ideal - hidden) + backpressure;
      record("pipe_send", clock_ - (ideal - hidden) - backpressure);
      strip.progress += static_cast<std::size_t>(w.written);
    }
    if (!strip.complete()) {
      // FIFO full. Opportunistically drain our own inboxes so the
      // neighbor's symmetric send can complete, then yield.
      const StencilProgram& prog = program();
      for (int d = 0; d < prog.dims(); ++d) {
        for (int side = 0; side < 2; ++side) {
          if (face_is_shared(d, side)) drain_face(d, side);
        }
      }
      return progressed;
    }
    ++send_cursor_;
    progressed = true;
  }
  advance_stage();
  return true;
}

void TileTask::advance_stage() {
  ++stage_;
  if (stage_ >= program().stage_count()) {
    stage_ = 0;
    ++iter_;
    if (iter_ > params_.fused_iterations) {
      state_ = State::kWrite;
      return;
    }
  }
  state_ = State::kStageIndependent;
}

void TileTask::do_write() {
  const StencilProgram& prog = program();
  std::int64_t bytes = 0;
  for (int f = 0; f < prog.field_count(); ++f) {
    if (prog.is_constant_field(f)) continue;
    const Box owned = params_.tile.box.intersect(prog.updated_box(f));
    if (owned.empty()) continue;
    bytes += owned.volume() * StencilProgram::element_bytes();
    if (params_.mode == SimMode::kFunctional) {
      (*params_.global_out)[static_cast<std::size_t>(f)].copy_box_from(
          (*fields_)[static_cast<std::size_t>(f)], owned);
    }
  }
  const std::int64_t cycles =
      params_.memory->transfer_cycles(bytes, params_.memory_sharers);
  params_.memory->record_transfer(bytes);
  clock_ += cycles;
  phases_.mem_write += cycles;
  record("mem_write", clock_ - cycles);
  state_ = State::kDone;
}

TileTask::StepResult TileTask::step() {
  switch (state_) {
    case State::kLaunch:
      do_launch();
      return StepResult::kProgress;
    case State::kRead:
      do_read();
      return StepResult::kProgress;
    case State::kStageIndependent:
      do_stage_independent();
      return StepResult::kProgress;
    case State::kApplyHalo: {
      const bool progressed = do_apply_halo();
      if (state_ != State::kApplyHalo) return StepResult::kProgress;
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    case State::kStageDependent:
      do_stage_dependent();
      return StepResult::kProgress;
    case State::kSend: {
      const bool progressed = do_send();
      if (state_ != State::kSend) return StepResult::kProgress;
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    case State::kWrite:
      do_write();
      return StepResult::kProgress;
    case State::kDone:
      return StepResult::kDone;
  }
  return StepResult::kDone;
}

}  // namespace scl::sim
