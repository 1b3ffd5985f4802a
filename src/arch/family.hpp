// Design families: the top-level architecture discriminator of the
// candidate space.
//
// PR 1..8 explored one architecture — the paper's pipe-connected spatial
// tiling (DAC'17), where K kernels cooperate on a region and exchange
// boundary layers through on-chip pipes. The literature shows that is one
// point in a larger space: Zohouri et al. (FPGA'18, arXiv 1802.00438)
// combine spatial vectorization with *temporal blocking* over
// shift-register line buffers, and StencilStream ships two executor
// families (monotile vs tiling) selected per problem size. DesignFamily
// makes that architectural choice a first-class DSE axis:
//
//   * kPipeTiling    — the paper's family. K_d tiles per region, fused
//                      iterations walk a shrinking cone, halos exchanged
//                      through pipes (or recomputed redundantly for the
//                      Baseline kind).
//   * kTemporalShift — a single deep pipeline. The grid is cut into
//                      strips along the innermost dimension; each strip
//                      streams once through T chained shift-register
//                      stage groups, executing T time steps per pass with
//                      no inter-kernel pipes and no barriers. Vector
//                      width V cells enter the pipeline per cycle.
//
// Enumeration-order contract (relied on by the deterministic DSE
// tie-break, see core/candidate_space.hpp): the family word leads the
// DesignKey, and kPipeTiling (0) orders before kTemporalShift (1), so a
// pipe-tiling design always precedes a temporal design of equal cost no
// matter which thread evaluated it first.
#pragma once

#include <optional>
#include <string_view>

namespace scl::arch {

enum class DesignFamily {
  kPipeTiling = 0,
  kTemporalShift = 1,
};

inline const char* to_string(DesignFamily family) {
  switch (family) {
    case DesignFamily::kPipeTiling:
      return "pipe-tiling";
    case DesignFamily::kTemporalShift:
      return "temporal-shift";
  }
  return "?";
}

/// Inverse of to_string(); nullopt for an unknown name.
inline std::optional<DesignFamily> family_from_string(std::string_view name) {
  for (const auto f :
       {DesignFamily::kPipeTiling, DesignFamily::kTemporalShift}) {
    if (name == to_string(f)) return f;
  }
  return std::nullopt;
}

}  // namespace scl::arch
