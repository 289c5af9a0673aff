"""Measure the benchmark's baseline and write baseline.json.

    python3 perfbench/baseline.py [--first-seed 1] [--out perfbench/baseline.json]

For each workload: RUNS untraced runs, each with another seed, then one
traced run.  For every end-to-end metric it records the median, the
quartiles (as `statistics.quantiles(values, n=4)` gives them) and their
distance as a share of the median; from the traced run, every per-layer
metric and each module's share of the summed self time.  The machine
(Python version, `nproc`, CPU model) and the commit are recorded with them,
so two baselines can be checked to come from the same machine.  The runs
are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEED_STEP = 7919


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def module_shares(per_layer: dict) -> dict[str, float]:
    """Each module's share of the self time summed over its `.s` metrics."""
    secs: dict[str, float] = {}
    for name, m in per_layer.items():
        if name.endswith(".s"):
            module = name.split(".")[0]
            secs[module] = secs.get(module, 0.0) + m["value"]
    total = sum(secs.values()) or 1.0
    return {m: round(s / total, 4) for m, s in sorted(secs.items())}


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1,
                   help="seeds are first-seed, first-seed + 7919, ...")
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args()

    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "runs": RUNS,
           "first_seed": args.first_seed, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = [args.first_seed + i * SEED_STEP for i in range(RUNS)]
        runs = [run_once(workload, seed, spec["run_seconds"], False) for seed in seeds]
        traced = run_once(workload, seeds[0], spec["run_seconds"], True)
        e2e = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
               for m in spec["end_to_end"]}
        doc["workloads"][workload] = {
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "module_shares": module_shares(traced["metrics"]),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        line = ", ".join(f"{k} {v['median']:.4g} ({v['spread']:.1%})" for k, v in e2e.items())
        print(f"{workload}: {line}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
