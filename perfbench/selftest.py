#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload under two seeds,
untraced and traced. Asserts that every correctness gate passes, that the
last line of each run is the result object with exactly BENCHMARK.json's
metrics for that mode, and that the full report carries each workload's
named metrics and the host record.

    python3 perfbench/selftest.py [--seconds 2]

Exits 0 when every check holds, 1 otherwise (failures are listed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)
# The workload-specific names the report must carry, besides the
# workload-neutral end-to-end names in BENCHMARK.json.
NAMED = {
    "page_load": ("setup_s", "page_ms_p50", "page_ms_p99", "overhead_ms_p50", "block_accuracy"),
    "paper_stream": ("setup_s", "decision_ms_p50", "decision_ms_p99", "int8_fidelity"),
    "async_revisit": ("setup_s", "frame_ms_p50", "paint_ms_p50", "paint_ms_p99",
                      "classified_per_s", "paint_accuracy",
                      "shed_share", "ad_exposure_share"),
}
HOST_KEYS = ("nproc", "thread_split", "simd_tier", "int8_kernel", "cpu_features")


def check_run(spec, workload, seed, trace, seconds):
    problems = []
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    tag = f"{workload} seed={seed} trace={trace}"
    if result.returncode != 0:
        problems.append(f"{tag}: exit code {result.returncode}\n{result.stderr[-2000:]}")
    lines = result.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + [f"{tag}: last line is not the result object"]
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{tag}: result keys {sorted(line)}")
    if line.get("correct") is not True:
        problems.append(f"{tag}: correct is {line.get('correct')}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append(f"{tag}: attempted {line.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [entry["name"] for entry in wanted]
    if sorted(line.get("metrics", {})) != sorted(names):
        problems.append(f"{tag}: metrics differ from BENCHMARK.json")
    for entry in wanted:
        metric = line.get("metrics", {}).get(entry["name"], {})
        if metric.get("unit") != entry["unit"] or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{tag}: bad metric {entry['name']}: {metric}")
        elif not trace and metric["value"] == 0:
            problems.append(f"{tag}: end-to-end metric {entry['name']} is 0")

    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")) as handle:
        report = json.load(handle)
    reported = {m["name"] for m in report["metrics"]}
    missing = [name for name in NAMED[workload] if name not in reported]
    if missing:
        problems.append(f"{tag}: report lacks {missing}")
    failed_gates = [g["name"] for g in report["gates"] if not g["pass"]]
    if failed_gates or not report["gates"]:
        problems.append(f"{tag}: gates failed {failed_gates}")
    missing_host = [key for key in HOST_KEYS if key not in report["host"]]
    if missing_host:
        problems.append(f"{tag}: host record lacks {missing_host}")
    if trace and not os.path.exists(
            os.path.join(HERE, "out", f"{workload}-seed{seed}-trace1.spans.json")):
        problems.append(f"{tag}: no spans written")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(spec, workload, seed, trace, args.seconds)
                print(f"{workload} seed={seed} trace={trace}: {'ok' if not found else 'FAIL'}",
                      flush=True)
                problems += found
    for problem in problems:
        print(problem)
    print("selftest:", "PASS" if not problems else f"FAIL ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
