#!/usr/bin/env bash
# Full verification: configure, build (warnings as errors), test, analyze
# every bundled stencil through the design verifier, smoke the
# observability outputs, run every bench harness, and exercise the
# batched synthesis service cold and warm.
#
#   --quick   configure + build + ctest + analyzer + codegen_inspect +
#             observability smoke only (skips the bench harnesses and the
#             stencild cold/warm passes); what CI runs as a required step
#             on every build.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: check.sh [--quick]" >&2; exit 2 ;;
  esac
done

# Reuse an existing build tree's generator; otherwise prefer Ninja when
# available (CI may have configured with Make — forcing -G Ninja onto an
# existing cache is a hard CMake error).
if [ -f build/CMakeCache.txt ]; then
  cmake -B build -DSTENCILCL_WERROR=ON
elif command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja -DSTENCILCL_WERROR=ON
else
  cmake -B build -DSTENCILCL_WERROR=ON
fi
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure --timeout 300 -j "$(nproc)"

# The static design verifier must report zero errors for every bundled
# example and benchmark (stencil_compiler --analyze exits nonzero on
# error diagnostics). Inputs are enumerated explicitly: a missing file is
# a loud failure here, not a glob that silently matches nothing.
STENCIL_FILES=(
  examples/highorder.stencil
)
for f in "${STENCIL_FILES[@]}"; do
  if [ ! -f "$f" ]; then
    echo "error: expected stencil input '$f' is missing" >&2
    exit 1
  fi
  echo "analyze $f"
  ./build/examples/stencil_compiler "$f" --analyze
done
for b in Jacobi-1D Jacobi-2D Jacobi-3D HotSpot-2D HotSpot-3D FDTD-2D FDTD-3D; do
  echo "analyze $b"
  ./build/examples/stencil_compiler "$b" --analyze
done

# The code-generation inspector verifies what it emits (source text checks
# plus the pass-4 IR verifier, pipe pairing included) and exits 1 on any
# error.
for b in Jacobi-1D Jacobi-2D Jacobi-3D HotSpot-2D HotSpot-3D FDTD-2D FDTD-3D; do
  echo "codegen_inspect $b"
  ./build/examples/codegen_inspect "$b" > /dev/null
done

# Observability smoke: --trace-out must emit valid Chrome trace JSON with
# spans from every pipeline layer, and --metrics-out a parseable
# Prometheus-style exposition.
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
echo "observability smoke (trace + metrics)"
./build/examples/stencil_compiler Jacobi-2D --no-sim \
  --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.txt" \
  > /dev/null
python3 - "$obs_dir/trace.json" "$obs_dir/metrics.txt" <<'PY'
import json, sys
trace_path, metrics_path = sys.argv[1], sys.argv[2]
trace = json.load(open(trace_path))
events = trace["traceEvents"]
assert events, "trace has no events"
names = {event["name"] for event in events}
for needed in ("compiler/parse", "dse/baseline", "codegen/emit",
               "analysis/verify_design"):
    assert needed in names, f"trace lacks span {needed}: {sorted(names)}"
assert any(event["args"]["depth"] > 0 for event in events), "no nesting"
families = set()
for line in open(metrics_path):
    line = line.strip()
    if line.startswith("# TYPE "):
        name, kind = line.split()[2:4]
        assert kind in ("counter", "gauge", "histogram"), line
        families.add(name)
    elif line and not line.startswith("#"):
        float(line.split()[-1])  # every sample line ends in a number
assert "scl_dse_candidates_total" in families, sorted(families)
print(f"observability smoke ok: {len(events)} span(s), "
      f"{len(families)} metric families")
PY

# The same smoke with the device simulation on: the simulator's spans
# must appear, and scl_sim_runs_total must count one run per design the
# report lists as simulated.
echo "observability smoke (simulated run)"
./build/examples/stencil_compiler Jacobi-2D \
  --trace-out "$obs_dir/sim_trace.json" \
  --metrics-out "$obs_dir/sim_metrics.txt" > "$obs_dir/sim_report.txt"
python3 - "$obs_dir/sim_trace.json" "$obs_dir/sim_metrics.txt" \
  "$obs_dir/sim_report.txt" <<'PY'
import json, sys
trace_path, metrics_path, report_path = sys.argv[1:4]
names = [event["name"] for event in json.load(open(trace_path))["traceEvents"]]
assert "sim/simulate" in names, f"trace lacks span sim/simulate: {set(names)}"
runs = names.count("sim/run")
designs = sum(line.strip().startswith("simulated:")
              for line in open(report_path))
assert runs > 0 and runs == designs, (
    f"{runs} sim/run span(s) for {designs} simulated design(s)")
counted = None
for line in open(metrics_path):
    if line.startswith("scl_sim_runs_total "):
        counted = float(line.split()[-1])
assert counted == designs, (
    f"scl_sim_runs_total {counted} for {designs} simulated design(s)")
print(f"simulated-run smoke ok: {designs} design(s) simulated")
PY

if [ "$QUICK" -eq 1 ]; then
  echo "check.sh --quick: all green"
  exit 0
fi

# Table/figure regenerators, enumerated explicitly: a bench binary that
# failed to build must fail the check, not be skipped.
BENCHES=(
  bench_table2 bench_table3 bench_fig1 bench_fig6 bench_fig7
  bench_ablation bench_devices bench_dse bench_service
)
for b in "${BENCHES[@]}"; do
  bin="build/bench/$b"
  if [ ! -x "$bin" ]; then
    echo "error: bench binary '$bin' is missing or not executable" >&2
    exit 1
  fi
  echo "bench $b"
  "$bin"
done
echo "bench bench_micro"
./build/bench/bench_micro --benchmark_min_time=0.01

# Batched service smoke: synthesize the paper suite cold into a fresh
# artifact store, then replay it — the second pass must be served
# entirely from the store.
store="$(mktemp -d)"
trap 'rm -rf "$store" "$obs_dir"' EXIT
echo "stencild cold pass"
./build/examples/stencild --suite --store "$store" --quiet
echo "stencild warm pass"
./build/examples/stencild --suite --store "$store" --require-warm --quiet \
  --metrics-out "$store/metrics.txt"
grep -q "^scl_serve_store_hits 7$" "$store/metrics.txt" || {
  echo "error: warm pass exposition does not report 7 store hits" >&2
  exit 1
}
echo "check.sh: all green"
