#!/usr/bin/env python3
"""PERCIVAL deployment-path benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload page_load --seed 1 --seconds 35 --trace 0

Builds perfbench/ (and the library it measures) from source into
$CARGO_TARGET_DIR (default .bench_build), prepares the calibrated int8
deployment artifacts from this checkout's code when the binary changed,
runs one workload, and prints one line per metric and gate followed, as the
last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The full report (every metric with its sample
count and base, the gates, the host record and the artifact hashes) is
written to perfbench/out/, and the traced run's spans next to it as Chrome
trace-event JSON. Exits 0 when every correctness gate passed, 1 otherwise.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("page_load", "paper_stream", "async_revisit")
ARTIFACTS = ("experiment.int8.pcvw", "paper.int8.pcvw")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "percival_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "percival_perfbench")


def prepare(binary, artifact_dir):
    """Rebuilds the int8 artifacts whenever the binary differs from the one
    that wrote them, so they always come from the code under test."""
    manifest_path = os.path.join(artifact_dir, "manifest.json")
    binary_hash = sha256(binary)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if manifest.get("binary_sha256") == binary_hash and all(
                sha256(os.path.join(artifact_dir, name)) == manifest["artifacts"][name]
                for name in ARTIFACTS):
            return manifest
    except (OSError, ValueError, KeyError):
        pass
    log("preparing deployment artifacts (trains the experiment model)")
    subprocess.run([binary, "prepare", "--artifacts", artifact_dir], check=True,
                   stdout=sys.stderr)
    manifest = {
        "binary_sha256": binary_hash,
        "artifacts": {name: sha256(os.path.join(artifact_dir, name)) for name in ARTIFACTS},
    }
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2)
    return manifest


def select_metrics(report, spec, trace):
    """Picks BENCHMARK.json's metrics for this run out of the full report."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    by_name = {}
    for metric in report["metrics"]:
        key = metric["name"] if metric["kind"] == "layer" else metric.get("e2e")
        if key and metric["kind"] == ("layer" if trace else "e2e"):
            by_name[key] = metric
    metrics = {}
    for entry in wanted:
        metric = by_name.get(entry["name"])
        if metric is None or metric["unit"] != entry["unit"]:
            raise ValueError(f"metric {entry['name']} missing from the report or in another unit")
        metrics[entry["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    binary = build()
    artifact_dir = os.path.join(HERE, "artifacts")
    manifest = prepare(binary, artifact_dir)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report_path = stem + ".json"
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--artifacts", artifact_dir, "--report", report_path]
    if args.trace:
        command += ["--spans", stem + ".spans.json"]
    result = subprocess.run(command, stdout=sys.stdout, timeout=RUN_TIMEOUT_S)
    if result.returncode not in (0, 1) or not os.path.exists(report_path):
        log(f"run failed with exit code {result.returncode}")
        return 1

    with open(report_path) as handle:
        report = json.load(handle)
    report["artifacts"] = manifest["artifacts"]
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=1)
    for name, digest in manifest["artifacts"].items():
        print(f"artifact {name} sha256 {digest}")
    metrics = select_metrics(report, spec, args.trace)
    line = {
        "correct": bool(report["correct"]) and result.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        log(f"error: {error}")
        sys.exit(1)
