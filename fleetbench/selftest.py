#!/usr/bin/env python3
"""Self-test of the fleet lifecycle benchmark at small scale.

    python3 fleetbench/selftest.py

Run from the repository root.  Builds the benchmark like run.py, then
checks, for every workload at --small scale (same code paths, tiny fleet):

  - two untraced runs with one seed give identical simulated metrics,
    deterministic counts and digest;
  - a traced run gives the same simulated metrics and digest, and writes
    its host spans and obs metrics;
  - every correctness gate holds;

and that both command lines (fleetbench and run.py) reject unknown flags,
unknown workloads and non-numeric or non-positive values with exit code 2,
and print usage for --help without writing any file.  Exits 1 if any check
fails.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (after dont_write_bytecode: no __pycache__ in the tree)

SEED = 11
# Counts that depend only on the workload inputs; host-time metrics are
# compared nowhere.
DETERMINISTIC = (
    "sim.events", "net.messages_sent", "net.frames_delivered", "net.topology_epochs",
    "ipsec.messages", "ipsec.bytes_sealed", "keylime.verifications",
    "keylime.violations", "chunk.origin_fetches", "chunk.coalesced",
    "core.provisions", "core.releases", "shard.windows", "shard.frames_routed",
)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def fleetbench(binary, args, cwd=None):
    return subprocess.run([str(binary)] + args, cwd=cwd, text=True, capture_output=True,
                          timeout=run.RUN_TIMEOUT_S, check=False)


def record(binary, workload, trace, spans=None):
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--small"]
    if spans:
        args += ["--spans", str(spans)]
    proc = fleetbench(binary, args)
    check(proc.returncode == 0, f"{workload} trace={trace}: exit 0 (gates held)")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic_view(rec):
    view = {name: m["value"] for name, m in rec["metrics"].items()
            if "_sim_" in name or name in DETERMINISTIC}
    view["digest"] = rec["digest"]
    return view


def check_workload(binary, workload, spans_dir):
    first = record(binary, workload, 0)
    second = record(binary, workload, 0)
    spans_path = spans_dir / f"{workload}.json"
    traced = record(binary, workload, 1, spans_path)
    check(deterministic_view(first) == deterministic_view(second),
          f"{workload}: same seed, same simulated metrics and digest")
    check(deterministic_view(first) == deterministic_view(traced),
          f"{workload}: traced and untraced runs agree on simulated metrics and digest")
    check(traced["metrics"]["trace.overhead_ratio"]["value"] > 0,
          f"{workload}: traced run reports trace.overhead_ratio")
    spans = json.loads(spans_path.read_text())
    check(len(spans["spans"]) > 0, f"{workload}: traced run wrote host spans")
    if workload != "fleet_sharded":  # the scenario model has no Registry hook
        check(bool(spans["obs"]), f"{workload}: traced run exported obs metrics")


def check_cli(binary, workdir):
    good = ["--workload", "boot_storm", "--seed", "1", "--seconds", "1", "--trace", "0"]

    def with_flag(flag, value):
        args = list(good)
        args[args.index(flag) + 1] = value
        return args

    bad = {
        "unknown flag": good + ["--bogus"],
        "unknown workload": with_flag("--workload", "nope"),
        "non-numeric seed": with_flag("--seed", "abc"),
        "zero seed": with_flag("--seed", "0"),
        "negative seed": with_flag("--seed", "-3"),
        "zero seconds": with_flag("--seconds", "0"),
        "fractional seconds": with_flag("--seconds", "1.5"),
        "trace not 0/1": with_flag("--trace", "2"),
        "missing value": good + ["--seed"],
        "missing required flag": good[:6],
    }
    for what, args in bad.items():
        proc = fleetbench(binary, args)
        check(proc.returncode == 2 and not proc.stdout.strip().startswith("{"),
              f"fleetbench rejects {what}")
        proc = subprocess.run([sys.executable, str(run.ROOT / "fleetbench" / "run.py")] + args,
                              text=True, capture_output=True, check=False, timeout=60)
        check(proc.returncode == 2, f"run.py rejects {what}")
    proc = fleetbench(binary, ["--workload", "boot_storm", "--seed", "1", "--seconds", "1",
                               "--trace", "0", "--spans", "x.json"])
    check(proc.returncode == 2, "fleetbench rejects --spans without --trace 1")

    for name, command in (("fleetbench", [str(binary), "--help"]),
                          ("run.py", [sys.executable,
                                      str(run.ROOT / "fleetbench" / "run.py"), "--help"])):
        with tempfile.TemporaryDirectory(dir=workdir) as empty:
            proc = subprocess.run(command, cwd=empty, text=True, capture_output=True,
                                  check=False, timeout=60)
            check(proc.returncode == 0 and "usage" in proc.stdout.lower()
                  and not any(Path(empty).iterdir()),
                  f"{name} --help prints usage and writes no file")


def main():
    binary = run.build()
    workdir = run.BUILD / "selftest"
    workdir.mkdir(exist_ok=True)
    check_cli(binary, workdir)
    for workload in run.WORKLOADS:
        check_workload(binary, workload, workdir)
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
