#!/usr/bin/env python3
"""Fleet lifecycle benchmark: build the simulator and run one workload.

    python3 fleetbench/run.py --workload NAME --seed N --seconds N --trace 0|1
                              [--out FILE]

Run from the repository root.  Builds fleetbench/ (which compiles the
simulator from src/) into .bench_build/, runs the workload, prints its
notes and a metric table, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a traced run also writes its host spans and
obs::Registry metrics to .bench_build/spans/.  --out saves the full record
(every metric, digest, host and build stamp) for fleetbench/compare.py.
Exits 0 only when the build worked and every correctness gate held.
"""

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("boot_storm", "attest_fleet", "churn_mixed", "fleet_sharded")
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    pass


def positive_int(text):
    if not text.isdigit() or int(text) <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got '{text}'")
    return int(text)


def trace_flag(text):
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"expected 0 or 1, got '{text}'")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fleetbench/run.py",
        description="Build the simulator and run one fleet lifecycle workload.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=positive_int)
    parser.add_argument("--seconds", required=True, type=positive_int,
                        help="minimum host seconds of the timed phase")
    parser.add_argument("--trace", required=True, type=trace_flag,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="save the full result record here")
    return parser.parse_args(argv)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "fleetbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "fleetbench"


def source_identity():
    """The git commit when there is one, and a digest of the sources always
    (benchmark checkouts are plain trees)."""
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            capture_output=True, check=False)
    digest = hashlib.sha256()
    for top in ("src", "fleetbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git_commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
            "source_digest": digest.hexdigest()[:16]}


def run_workload(binary, args):
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(exist_ok=True)
        command += ["--spans", str(spans_dir / f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(command, text=True, capture_output=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"fleetbench exited {proc.returncode} without a result") from exc
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 and record.get("correct", False):
        raise BenchError(f"fleetbench exited {proc.returncode}")
    return record


def publish(record, trace):
    """Returns the contract line: the BENCHMARK.json metrics of this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        measured = record["metrics"].get(name)
        if measured is None or measured["unit"] != metric["unit"]:
            raise BenchError(f"metric {name} missing or not in {metric['unit']}")
        metrics[name] = {"value": measured["value"], "unit": measured["unit"]}
        print(f"{name:36s} {measured['value']:>18.6f} {measured['unit']}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv):
    args = parse_args(argv)
    try:
        record = run_workload(build(), args)
        record["stamp"].update(source_identity())
        stamp = record["stamp"]
        print(f"host: {stamp['host_cores']} cores, {stamp['cpu_model']}; "
              f"{stamp['compiler']} {stamp['build_type']}, BOLTED_OBS={stamp['bolted_obs']}; "
              f"source {stamp['git_commit']} {stamp['source_digest']}")
        result = publish(record, args.trace)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError) as exc:
        print(f"fleetbench/run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
