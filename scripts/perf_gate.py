#!/usr/bin/env python3
"""CI performance-regression gate over the BENCH_*.json baselines.

Compares the JSONL rows a fresh bench run produced against the committed
baseline rows and fails when a tracked metric regressed by more than the
threshold (default 25%). Tracked metrics:

  bench=dse      key (kernel, threads, mode, family[, device])
                                              metric candidates_per_sec
                 plus, for rows with threads > 1, a second gated metric
                 speedup_vs_serial under the same key + "/speedup" — a
                 multi-thread run that silently collapses to serial-level
                 throughput fails even if absolute candidates/sec still
                 clears the ratchet
  bench=service  key (threads, mode)          metric warm_speedup

bench_dse emits only cold rows (each search on a fresh optimizer). Rows
without a mode field are treated as cold, so pre-refactor baselines keep
their keys; a row with any other mode gets a "/<mode>" key suffix. The
family suffix works the same way: pipe-tiling rows (and rows predating
the design-family split, which were all pipe-tiling) keep the
historical key, temporal-shift rows append "/temporal-shift". Service
rows use the suffix the same way: batch rows carry no mode and keep
their historical key, daemon-over-the-wire rows append "/daemon".

Rows carrying a "device" field (the HBM device-matrix legs bench_dse
emits for multi-bank parts) append "/<device>" to the key and are
DEVICE-PINNED: a baseline row with a device suffix that is missing from
the current run fails the gate unconditionally — even when its baseline
wall time sits below the noise floor — because a vanished device leg
means a supported part silently dropped out of the matrix, which is a
coverage regression rather than a timing artifact. Rows without the
field keep their historical keys, so pre-HBM baselines gate new runs
unchanged.

All metrics are higher-is-better; a row counts as a regression when

  current < baseline * (1 - threshold)

Rows whose wall_seconds (on either side) falls below --min-wall (default
0.02 s) are reported but never gated: at sub-floor wall times the metric
is timer noise, not throughput. Rows are JSONL (one object per line, '#'
comments and blank lines ignored); when a key appears more than once the
LAST occurrence wins, matching the append-mode trajectory files
bench_dse writes by default. A key present in the baseline but missing
from the current run fails the gate (a silently-skipped benchmark must
not pass) unless its baseline wall was sub-floor; keys only present in
the current run are reported but never fail.

Usage:
  perf_gate.py [--threshold 0.25] [--min-wall 0.02] \\
      --pair <baseline.json> <current.json> ...

The delta table goes to stdout and, when $GITHUB_STEP_SUMMARY is set, to
the job summary as well. Exit status: 0 pass, 1 regression/missing key,
2 usage or unreadable input; tests/perf_gate_test.py (ctest
perf_gate_test) checks these statuses on synthetic row pairs.
"""

import argparse
import json
import os
import sys


def read_rows(path):
    """Parses a JSONL file into a list of row dicts."""
    rows = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as error:
                    raise SystemExit(
                        f"error: {path}:{number}: bad JSON row: {error}")
                if isinstance(row, dict):
                    rows.append(row)
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    return rows


def keyed_metrics(rows):
    """Maps (display key) -> (metric name, value, wall_seconds or None,
    device_pinned); last occurrence wins."""
    metrics = {}
    for row in rows:
        bench = row.get("bench")
        wall = row.get("wall_seconds")
        wall = float(wall) if wall is not None else None
        if bench == "dse":
            key = f"dse/{row.get('kernel')}/t{row.get('threads')}"
            # Rows without a mode predate the cold/warm split and were
            # always cold; keeping their key unsuffixed lets old
            # baselines gate new runs.
            mode = row.get("mode", "cold")
            if mode != "cold":
                key = f"{key}/{mode}"
            # Rows without a family predate the design-family split and
            # were all pipe-tiling; same unsuffixed-key compatibility.
            family = row.get("family", "pipe-tiling")
            if family != "pipe-tiling":
                key = f"{key}/{family}"
            # Device-matrix rows: the suffix keys each part's leg, and
            # the pin makes its absence a hard failure (a device that
            # dropped out of the matrix, not timer noise).
            device = row.get("device")
            pinned = bool(device)
            if device:
                key = f"{key}/{device}"
            value = row.get("candidates_per_sec")
            if value is not None:
                metrics[key] = (
                    "candidates_per_sec", float(value), wall, pinned)
            speedup = row.get("speedup_vs_serial")
            threads = row.get("threads")
            if (speedup is not None and isinstance(threads, int)
                    and threads > 1):
                metrics[f"{key}/speedup"] = (
                    "speedup_vs_serial", float(speedup), wall, pinned)
        elif bench == "service":
            key = f"service/t{row.get('threads')}"
            # Batch rows predate the daemon split and carry no mode;
            # their key stays unsuffixed so old baselines gate new runs.
            mode = row.get("mode")
            if mode:
                key = f"{key}/{mode}"
            value = row.get("warm_speedup")
            if value is not None:
                metrics[key] = ("warm_speedup", float(value), wall, False)
    return metrics


def format_value(value):
    return f"{value:,.1f}" if value >= 100 else f"{value:.3f}"


def gate(pairs, threshold, min_wall):
    lines = [
        "| benchmark | metric | baseline | current | delta | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    failures = []
    for baseline_path, current_path in pairs:
        baseline = keyed_metrics(read_rows(baseline_path))
        current = keyed_metrics(read_rows(current_path))
        if not baseline:
            raise SystemExit(
                f"error: {baseline_path} holds no gated bench rows")
        for key in sorted(baseline):
            metric, base_value, base_wall, pinned = baseline[key]
            base_subfloor = base_wall is not None and base_wall < min_wall
            if key not in current:
                # Device-pinned rows never get the sub-floor pass: a
                # missing device leg is a coverage hole, not noise.
                if base_subfloor and not pinned:
                    lines.append(
                        f"| {key} | {metric} | {format_value(base_value)} "
                        f"| *missing* | — | skip (wall < floor) |")
                    continue
                reason = " (device leg dropped)" if pinned else ""
                failures.append(
                    f"{key}: missing from {current_path}{reason}")
                lines.append(
                    f"| {key} | {metric} | {format_value(base_value)} "
                    f"| *missing* | — | FAIL |")
                continue
            _, cur_value, cur_wall, _ = current[key]
            delta = ((cur_value - base_value) / base_value
                     if base_value != 0 else 0.0)
            if (base_subfloor
                    or (cur_wall is not None and cur_wall < min_wall)):
                lines.append(
                    f"| {key} | {metric} | {format_value(base_value)} "
                    f"| {format_value(cur_value)} | {delta:+.1%} "
                    f"| skip (wall < floor) |")
                continue
            regressed = cur_value < base_value * (1.0 - threshold)
            status = "FAIL" if regressed else "ok"
            if regressed:
                failures.append(
                    f"{key}: {metric} {format_value(cur_value)} vs baseline "
                    f"{format_value(base_value)} ({delta:+.1%})")
            lines.append(
                f"| {key} | {metric} | {format_value(base_value)} "
                f"| {format_value(cur_value)} | {delta:+.1%} | {status} |")
        for key in sorted(set(current) - set(baseline)):
            metric, cur_value, _, _ = current[key]
            lines.append(
                f"| {key} | {metric} | *new* "
                f"| {format_value(cur_value)} | — | ok |")
    return lines, failures


def main():
    parser = argparse.ArgumentParser(
        description="fail CI when bench metrics regress past the threshold")
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed fractional regression (default 0.25 = 25%%)")
    parser.add_argument(
        "--min-wall", type=float, default=0.02,
        help="wall-seconds floor below which a row is timer noise and "
             "is reported but not gated (default 0.02 s)")
    parser.add_argument(
        "--pair", nargs=2, action="append", required=True,
        metavar=("BASELINE", "CURRENT"),
        help="baseline JSONL and the fresh run to compare against it")
    args = parser.parse_args()
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")
    if args.min_wall < 0.0:
        parser.error("--min-wall must be >= 0")

    lines, failures = gate(args.pair, args.threshold, args.min_wall)

    title = (f"## Performance gate "
             f"(threshold {args.threshold:.0%} regression)")
    report = "\n".join([title, ""] + lines) + "\n"
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(report)

    if failures:
        print("performance gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("performance gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
