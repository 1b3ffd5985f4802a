#!/usr/bin/env python3
"""Builds and runs the stencilcl end-to-end benchmark.

    python3 perfbench/run.py --workload suite-ddr --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's src/ libraries) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs
bench_e2e in a scratch directory beside the build. Build output goes to
stderr; the last stdout line is the benchmark's JSON result. The exit code
is bench_e2e's: non-zero when the build or any correctness check fails.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite-ddr", "suite-hbm", "daemon-mixed")


def source_digest(src):
    """Content digest of src/: the checkout is not a git repository, so
    this stands in for the commit in the environment stamp."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "CMakeLists.txt").is_file():
        print(f"run.py: no stencilcl sources at {src}", file=sys.stderr)
        return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    run_dir = target / "perfbench-run"
    run_dir.mkdir(parents=True, exist_ok=True)

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return 2

    command = [str(build_dir / "bench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--metrics", str(ROOT / "BENCHMARK.json"),
               "--source-digest", source_digest(src)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=run_dir).returncode


if __name__ == "__main__":
    sys.exit(main())
