// JSON (de)serialization of synthesis results, and the canonical request
// fingerprint used to content-address them.
//
// A SynthesisArtifact is the serving layer's unit of persistence: the two
// selected design points (config + prediction + resources), the simulated
// latencies, the emitted OpenCL sources, the design-verification
// diagnostics, and the rendered Markdown report — everything a warm
// response needs, nothing more. Features, candidate spaces and DSE wall
// clocks are deliberately excluded: features are cheap to recompute from
// the program, and timing counters would break the determinism contract
// below.
//
// Determinism contract: serialize_artifact() is a pure function of the
// artifact's value — field order is fixed, integers print canonically and
// doubles print with round-trip precision ("%.17g") — so re-synthesizing
// the same request yields byte-identical payloads run after run. The
// batched-service benchmark (bench/bench_service.cpp) enforces this.
//
// The content address of a request is a 128-bit hash (two FNV-1a-64
// passes) over a canonical fingerprint string of: the program's `.stencil`
// round-trip text, the full device spec, every synthesis option that can
// change the result, and kCodeVersion. Worker thread counts are excluded
// (the DSE is bit-deterministic across thread counts by construction).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "codegen/opencl_emitter.hpp"
#include "core/framework.hpp"
#include "core/optimizer.hpp"
#include "support/json.hpp"

namespace scl::serve {

/// Schema version of serialized artifacts. Part of the content address:
/// bumping it invalidates every cached artifact (they simply miss).
inline constexpr int kArtifactSchemaVersion = 3;

/// Version tag of the synthesis code itself. Bump whenever model,
/// optimizer, codegen or verifier changes could alter results for the
/// same input — stale artifacts must not be served.
inline constexpr const char* kCodeVersion = "scl-serve-4";

/// FNV-1a over `data` starting from `seed` (defaults to the standard
/// 64-bit offset basis).
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ull);

/// Everything one synthesis produced, in round-trippable form.
struct SynthesisArtifact {
  std::string key;           ///< content address (32 hex chars)
  std::string program_name;  ///< display name of the stencil
  std::string device_name;
  core::DesignPoint baseline;
  core::DesignPoint heterogeneous;
  /// Schema v2: the family of the emitted design, and — when the flow
  /// searched the temporal family and a design fit — its winner.
  /// Schema v3: design configs carry a "replication" member and device
  /// specs a banked "memory" section (HBM multi-bank modeling).
  arch::DesignFamily selected_family = arch::DesignFamily::kPipeTiling;
  std::optional<core::DesignPoint> temporal;
  std::int64_t baseline_cycles = 0;       ///< simulated; 0 = not simulated
  std::int64_t heterogeneous_cycles = 0;
  std::int64_t temporal_cycles = 0;
  double baseline_ms = 0.0;
  double heterogeneous_ms = 0.0;
  double speedup = 0.0;
  codegen::GeneratedCode code;
  support::DiagnosticEngine analysis;
  std::string markdown_report;

  /// Transient: set by the service when this instance was loaded from
  /// the artifact store rather than freshly synthesized. Not serialized.
  bool served_from_store = false;
  /// Transient: the store load was a memory-tier hit (implies
  /// served_from_store). Not serialized.
  bool served_from_memory = false;
};

// Component writers/parsers, exposed for targeted round-trip tests. The
// writers append one JSON value at the writer's current position.
void write_design_config(support::JsonWriter* json,
                         const sim::DesignConfig& config);
sim::DesignConfig parse_design_config(const support::JsonValue& v);

void write_design_point(support::JsonWriter* json,
                        const core::DesignPoint& point);
core::DesignPoint parse_design_point(const support::JsonValue& v);

void write_diagnostics(support::JsonWriter* json,
                       const support::DiagnosticEngine& diags);
support::DiagnosticEngine parse_diagnostics(const support::JsonValue& v);

/// Deterministic, compact-JSON payload bytes of `artifact`.
std::string serialize_artifact(const SynthesisArtifact& artifact);

/// Inverse of serialize_artifact. Throws scl::Error on any structural or
/// schema mismatch (the artifact store treats that as corruption).
SynthesisArtifact parse_artifact(const std::string& payload);

/// Builds an artifact from a finished synthesis run. `key` may be empty
/// for uncacheable requests.
SynthesisArtifact make_artifact(std::string key,
                                const core::SynthesisReport& report);

/// The canonical fingerprint string a request hashes to its content
/// address: program text + device + options + code/schema version.
std::string request_fingerprint(const std::string& canonical_program,
                                const core::FrameworkOptions& options);

/// 128-bit content address (32 lowercase hex chars) of a request.
std::string request_key(const std::string& canonical_program,
                        const core::FrameworkOptions& options);

}  // namespace scl::serve
