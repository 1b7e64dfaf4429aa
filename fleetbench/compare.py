#!/usr/bin/env python3
"""Compare two sets of fleet lifecycle benchmark results.

    python3 fleetbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds untraced result records saved with
`fleetbench/run.py ... --trace 0 --out DIR/<name>.json`, one per run.
Refuses (exit 2) when any two records differ in host or build: cores, CPU
model, compiler, build type or BOLTED_OBS.  Otherwise prints, per workload
and end-to-end metric of BENCHMARK.json, both medians and quartile spreads
and a verdict against the metric's bound:

  regression   the change's median is worse than the base's by more than the bound
  unresolved   the base's own spread is wider than the bound, and not every
               change run beats every base run
  ok           neither

It also lists (workload, seed) pairs whose digest changed: a simulator-only
speed-up must leave every digest, and so every simulated metric, identical.
Exits 1 if any verdict is a regression.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_AND_BUILD = ("host_cores", "cpu_model", "compiler", "build_type", "bolted_obs")


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    records = [r for r in records if not r["trace"]]
    if not records:
        sys.exit(f"compare.py: no untraced records in {directory}")
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    stamps = {tuple(r["stamp"][k] for k in HOST_AND_BUILD) for r in base + change}
    if len(stamps) != 1:
        print("compare.py: refusing to compare results from different hosts or builds:")
        for stamp in sorted(stamps, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_AND_BUILD, stamp)))
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    regressions = 0
    for workload in sorted({r["workload"] for r in base}):
        a = [r for r in base if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        if not b:
            print(f"{workload}: no change runs")
            continue
        for metric in spec:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = sign * (mb - ma) / ma
            if worse > bound:
                verdict = "regression"
                regressions += 1
            elif spread(va) > bound and not all(sign * (y - x) < 0 for x in va for y in vb):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:14s} {name:22s} base {ma:.6g} (spread {spread(va):.3f}, n={len(va)})"
                  f"  change {mb:.6g} (spread {spread(vb):.3f}, n={len(vb)})"
                  f"  {-worse:+.3f}  {verdict}")
        digests = {r["seed"]: r["digest"] for r in a}
        moved = sorted(r["seed"] for r in b if r["seed"] in digests
                       and digests[r["seed"]] != r["digest"])
        if moved:
            print(f"{workload}: digest changed for seeds {moved}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
