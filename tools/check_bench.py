#!/usr/bin/env python3
"""Bench-regression gate for the BENCH_*.json baselines.

Compares the JSON files the bench smoke emits (BENCH_shotloop.json,
BENCH_pulse.json, BENCH_gradient.json, BENCH_fusion.json, BENCH_obs.json,
BENCH_jobs.json, BENCH_net.json)
against the committed baselines in bench/baselines/ and fails (exit 1) if:

  * any current file is missing or unparsable,
  * any `bit_identical` flag is false (a determinism regression is a bug,
    never a tolerance question),
  * a tracked speedup falls below its tolerance-scaled floor,
    current < baseline * (1 - tol), or
  * a tracked overhead ratio rises above its tolerance-scaled ceiling,
    current > baseline * (1 + tol). Only dimensionless ratios are gated --
    absolute seconds vary with the host, ratios mostly do not.

A markdown delta table goes to stdout and, when $GITHUB_STEP_SUMMARY is set,
into the job summary.

Usage:
  tools/check_bench.py [--baseline-dir bench/baselines] [--current-dir build]
                       [--tol 0.5]
"""

import argparse
import json
import os
import sys

# Dimensionless ratio fields gated per bench file. Higher is better for all.
SPEEDUP_FIELDS = {
    "BENCH_shotloop.json": ["speedup"],
    "BENCH_pulse.json": ["speedup"],
    "BENCH_gradient.json": ["expectation_speedup", "gradient_speedup"],
    "BENCH_fusion.json": ["shotloop_speedup", "batch_speedup"],
    "BENCH_jobs.json": ["speedup"],
}
# Ratio fields where *lower* is better (telemetry-on / telemetry-off run
# time; wire / in-process wall clock): gated against a ceiling instead of a
# floor.
OVERHEAD_FIELDS = {
    "BENCH_obs.json": ["overhead_ratio"],
    "BENCH_jobs.json": ["overhead_ratio"],
    "BENCH_net.json": ["overhead_ratio"],
}
BENCH_FILES = sorted(set(SPEEDUP_FIELDS) | set(OVERHEAD_FIELDS))


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def find_bit_identical_flags(obj, prefix=""):
    """Every bit_identical flag in the document, nested objects included."""
    flags = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            if key == "bit_identical":
                flags.append((path, value))
            else:
                flags.extend(find_bit_identical_flags(value, path))
    return flags


def emit_summary(lines):
    text = "\n".join(lines) + "\n"
    print(text)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as f:
            f.write(text)


def check_baselines(baseline_dir, current_dir, tol):
    failures = []
    rows = []
    for name in BENCH_FILES:
        baseline_path = os.path.join(baseline_dir, name)
        current_path = os.path.join(current_dir, name)
        try:
            baseline = load(baseline_path)
        except (OSError, ValueError) as err:
            failures.append(f"{name}: cannot read baseline ({err})")
            continue
        try:
            current = load(current_path)
        except (OSError, ValueError) as err:
            failures.append(f"{name}: cannot read current result ({err})")
            continue

        for path, value in find_bit_identical_flags(current):
            status = "ok" if value is True else "FAIL"
            rows.append((name, path, "true", str(value).lower(), "-", status))
            if value is not True:
                failures.append(f"{name}: {path} is {value} (determinism regression)")

        for field in SPEEDUP_FIELDS.get(name, []):
            base = baseline.get(field)
            cur = current.get(field)
            if not isinstance(base, (int, float)):
                failures.append(f"{name}: baseline lacks numeric '{field}'")
                continue
            if not isinstance(cur, (int, float)):
                failures.append(f"{name}: current lacks numeric '{field}'")
                continue
            floor = base * (1.0 - tol)
            delta = (cur - base) / base * 100.0 if base else 0.0
            status = "ok" if cur >= floor else "FAIL"
            rows.append((name, field, f"{base:.2f}x", f"{cur:.2f}x",
                         f"{delta:+.0f}%", status))
            if cur < floor:
                failures.append(
                    f"{name}: {field} {cur:.2f}x fell below the floor "
                    f"{floor:.2f}x (baseline {base:.2f}x, tol {tol:.0%})")

        for field in OVERHEAD_FIELDS.get(name, []):
            base = baseline.get(field)
            cur = current.get(field)
            if not isinstance(base, (int, float)):
                failures.append(f"{name}: baseline lacks numeric '{field}'")
                continue
            if not isinstance(cur, (int, float)):
                failures.append(f"{name}: current lacks numeric '{field}'")
                continue
            ceiling = base * (1.0 + tol)
            delta = (cur - base) / base * 100.0 if base else 0.0
            status = "ok" if cur <= ceiling else "FAIL"
            rows.append((name, field, f"{base:.3f}x", f"{cur:.3f}x",
                         f"{delta:+.0f}%", status))
            if cur > ceiling:
                failures.append(
                    f"{name}: {field} {cur:.3f}x rose above the ceiling "
                    f"{ceiling:.3f}x (baseline {base:.3f}x, tol {tol:.0%})")

    lines = ["## Bench regression gate", "",
             f"Tolerance: speedups may drop at most {tol:.0%} below baseline; "
             f"overheads may rise at most {tol:.0%} above baseline.", "",
             "| bench | field | baseline | current | delta | status |",
             "|---|---|---|---|---|---|"]
    for bench, field, base, cur, delta, status in rows:
        mark = "✅" if status == "ok" else "❌"
        lines.append(f"| {bench} | {field} | {base} | {cur} | {delta} | {mark} |")
    if failures:
        lines += ["", "**Failures:**"] + [f"- {f}" for f in failures]
    emit_summary(lines)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default="build")
    parser.add_argument("--tol", type=float,
                        default=float(os.environ.get("BENCH_TOL", "0.5")),
                        help="allowed fractional drop below the baseline speedup")
    args = parser.parse_args()

    failures = check_baselines(args.baseline_dir, args.current_dir, args.tol)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
