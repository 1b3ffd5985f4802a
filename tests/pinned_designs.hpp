// The paper suite's per-design-space DSE winners, pinned as plain configs.
//
// One entry per (kernel, device, space): the winner of the baseline,
// heterogeneous and temporal spaces for each of the seven paper kernels at
// paper scale on a DDR part (xc7vx690t) and an HBM part (xcu280), found
// with one DSE thread. Golden tests that render something per winner (the
// simulator's counters, the design verifier's diagnostics) share this
// table so they run no DSE.
#pragma once

#include "arch/family.hpp"
#include "sim/design.hpp"

namespace scl::testing_support {

/// One pinned design: the DSE winner of one design space for one paper
/// kernel at paper scale on one device (threads = 1).
struct PinnedDesign {
  const char* kernel;
  const char* device;
  const char* space;
  sim::DesignConfig config;
};

constexpr auto kPipe = arch::DesignFamily::kPipeTiling;
constexpr auto kTemporal = arch::DesignFamily::kTemporalShift;
constexpr auto kBase = sim::DesignKind::kBaseline;
constexpr auto kHet = sim::DesignKind::kHeterogeneous;

inline const PinnedDesign kPinnedDesigns[] = {
    {"Jacobi-1D", "xc7vx690t", "baseline",
     {kPipe, kBase, 512, {16, 1, 1}, {8192, 1, 1}, {0, 0, 0}, 16, 1}},
    {"Jacobi-1D", "xc7vx690t", "heterogeneous",
     {kPipe, kHet, 512, {16, 1, 1}, {8192, 1, 1}, {8, 0, 0}, 16, 1}},
    {"Jacobi-1D", "xc7vx690t", "temporal",
     {kTemporal, kBase, 256, {1, 1, 1}, {131072, 1, 1}, {0, 0, 0}, 1, 1}},
    {"Jacobi-2D", "xc7vx690t", "baseline",
     {kPipe, kBase, 32, {4, 4, 1}, {128, 128, 1}, {0, 0, 0}, 16, 1}},
    {"Jacobi-2D", "xc7vx690t", "heterogeneous",
     {kPipe, kHet, 64, {4, 4, 1}, {128, 128, 1}, {8, 8, 0}, 16, 1}},
    {"Jacobi-2D", "xc7vx690t", "temporal",
     {kTemporal, kBase, 256, {1, 1, 1}, {2048, 2048, 1}, {0, 0, 0}, 1, 1}},
    {"Jacobi-3D", "xc7vx690t", "baseline",
     {kPipe, kBase, 5, {2, 2, 2}, {32, 32, 32}, {0, 0, 0}, 16, 1}},
    {"Jacobi-3D", "xc7vx690t", "heterogeneous",
     {kPipe, kHet, 8, {2, 2, 2}, {32, 32, 32}, {0, 0, 0}, 16, 1}},
    {"Jacobi-3D", "xc7vx690t", "temporal",
     {kTemporal, kBase, 8, {1, 1, 1}, {1024, 1024, 64}, {0, 0, 0}, 4, 1}},
    {"HotSpot-2D", "xc7vx690t", "baseline",
     {kPipe, kBase, 40, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1}},
    {"HotSpot-2D", "xc7vx690t", "heterogeneous",
     {kPipe, kHet, 48, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1}},
    {"HotSpot-2D", "xc7vx690t", "temporal",
     {kTemporal, kBase, 40, {1, 1, 1}, {4096, 4096, 1}, {0, 0, 0}, 2, 1}},
    {"HotSpot-3D", "xc7vx690t", "baseline",
     {kPipe, kBase, 5, {1, 2, 2}, {32, 32, 32}, {0, 0, 0}, 8, 1}},
    {"HotSpot-3D", "xc7vx690t", "heterogeneous",
     {kPipe, kHet, 6, {1, 2, 2}, {32, 32, 32}, {0, 0, 0}, 8, 1}},
    {"HotSpot-3D", "xc7vx690t", "temporal",
     {kTemporal, kBase, 4, {1, 1, 1}, {4096, 4096, 16}, {0, 0, 0}, 2, 1}},
    {"FDTD-2D", "xc7vx690t", "baseline",
     {kPipe, kBase, 40, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1}},
    {"FDTD-2D", "xc7vx690t", "heterogeneous",
     {kPipe, kHet, 64, {2, 2, 1}, {256, 256, 1}, {0, 0, 0}, 16, 1}},
    {"FDTD-2D", "xc7vx690t", "temporal",
     {kTemporal, kBase, 20, {1, 1, 1}, {2048, 2048, 1}, {0, 0, 0}, 1, 1}},
    {"FDTD-3D", "xc7vx690t", "baseline",
     {kPipe, kBase, 6, {1, 2, 2}, {16, 32, 32}, {0, 0, 0}, 8, 1}},
    {"FDTD-3D", "xc7vx690t", "heterogeneous",
     {kPipe, kHet, 6, {1, 2, 2}, {16, 32, 32}, {0, 0, 0}, 8, 1}},
    {"FDTD-3D", "xc7vx690t", "temporal",
     {kTemporal, kBase, 2, {1, 1, 1}, {2048, 2048, 16}, {0, 0, 0}, 1, 1}},
    {"Jacobi-1D", "xcu280", "baseline",
     {kPipe, kBase, 128, {16, 1, 1}, {2048, 1, 1}, {0, 0, 0}, 16, 4}},
    // No heterogeneous design of Jacobi-1D fits xcu280 (synthesis falls
    // back to the baseline).
    {"Jacobi-1D", "xcu280", "temporal",
     {kTemporal, kBase, 256, {1, 1, 1}, {131072, 1, 1}, {0, 0, 0}, 4, 1}},
    {"Jacobi-2D", "xcu280", "baseline",
     {kPipe, kBase, 12, {4, 4, 1}, {128, 128, 1}, {0, 0, 0}, 16, 2}},
    {"Jacobi-2D", "xcu280", "heterogeneous",
     {kPipe, kHet, 32, {4, 4, 1}, {128, 128, 1}, {8, 8, 0}, 16, 2}},
    {"Jacobi-2D", "xcu280", "temporal",
     {kTemporal, kBase, 4, {1, 1, 1}, {2048, 64, 1}, {0, 0, 0}, 4, 32}},
    {"Jacobi-3D", "xcu280", "baseline",
     {kPipe, kBase, 2, {2, 2, 4}, {16, 32, 32}, {0, 0, 0}, 8, 2}},
    {"Jacobi-3D", "xcu280", "heterogeneous",
     {kPipe, kHet, 1, {2, 2, 4}, {16, 32, 32}, {0, 0, 2}, 8, 2}},
    {"Jacobi-3D", "xcu280", "temporal",
     {kTemporal, kBase, 1, {1, 1, 1}, {1024, 1024, 16}, {0, 0, 0}, 8, 32}},
    {"HotSpot-2D", "xcu280", "baseline",
     {kPipe, kBase, 5, {4, 4, 1}, {128, 128, 1}, {0, 0, 0}, 4, 2}},
    {"HotSpot-2D", "xcu280", "heterogeneous",
     {kPipe, kHet, 10, {4, 4, 1}, {128, 128, 1}, {2, 2, 0}, 4, 2}},
    {"HotSpot-2D", "xcu280", "temporal",
     {kTemporal, kBase, 5, {1, 1, 1}, {4096, 256, 1}, {0, 0, 0}, 2, 16}},
    {"HotSpot-3D", "xcu280", "baseline",
     {kPipe, kBase, 2, {2, 2, 4}, {8, 32, 32}, {0, 0, 0}, 4, 2}},
    {"HotSpot-3D", "xcu280", "heterogeneous",
     {kPipe, kHet, 1, {2, 2, 4}, {8, 32, 32}, {0, 0, 0}, 4, 2}},
    {"HotSpot-3D", "xcu280", "temporal",
     {kTemporal, kBase, 1, {1, 1, 1}, {4096, 4096, 16}, {0, 0, 0}, 8, 8}},
    {"FDTD-2D", "xcu280", "baseline",
     {kPipe, kBase, 10, {4, 4, 1}, {64, 64, 1}, {0, 0, 0}, 8, 2}},
    {"FDTD-2D", "xcu280", "heterogeneous",
     {kPipe, kHet, 20, {4, 4, 1}, {64, 64, 1}, {4, 4, 0}, 8, 2}},
    {"FDTD-2D", "xcu280", "temporal",
     {kTemporal, kBase, 5, {1, 1, 1}, {2048, 64, 1}, {0, 0, 0}, 1, 32}},
    {"FDTD-3D", "xcu280", "baseline",
     {kPipe, kBase, 2, {2, 2, 4}, {16, 16, 16}, {0, 0, 0}, 2, 2}},
    {"FDTD-3D", "xcu280", "heterogeneous",
     {kPipe, kHet, 1, {2, 2, 4}, {16, 16, 16}, {0, 0, 0}, 2, 2}},
    {"FDTD-3D", "xcu280", "temporal",
     {kTemporal, kBase, 1, {1, 1, 1}, {2048, 2048, 8}, {0, 0, 0}, 1, 8}},
};

}  // namespace scl::testing_support
