"""Run one benchmark workload and print one JSON result line.

    python3 perfbench/run.py --workload fo2-pipeline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; combspec is imported from its `src/`.
The set-up is repeated SETUP_REPEATS times and `setup_s` is the import time
plus the median set-up.  Timed passes then repeat until `--seconds` have
passed (at least one), and `run_s` is their median.  Times are read from
`clock.SpeedClock`: wall time scaled to a reference speed of the host, which
on a shared host changes from second to second.  `peak_rss_mb` is the
process's peak resident memory at the end of the first pass.  Every pass's outputs
are checked outside the timed region; `attempted` and `failed` count those
checks.  With `--trace 0` the metrics are the end-to-end ones named in
BENCHMARK.json.  With `--trace 1` one more pass runs under the span
tracer, the metrics are the per-layer ones, and the spans are written to
`.perfbench_out/`.  Scratch files live in `.perfbench_tmp/` and are removed.
"""

from __future__ import annotations

import os

# numpy (used by the oracle checks) must not start a thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.clock import SpeedClock  # noqa: E402

SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_combspec() -> None:
    """Import combspec from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "combspec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no combspec sources under {src}")
    sys.path.insert(0, str(src))
    import combspec.cli  # pulls in every module the workloads time

    if Path(combspec.cli.__file__).resolve().parent != src / "combspec":
        sys.exit(f"perfbench: imported combspec from {combspec.cli.__file__}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    clock = SpeedClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args: argparse.Namespace, clock: SpeedClock) -> int:
    imported = clock.now()
    import_combspec()
    imported = (imported, clock.now())
    from perfbench import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        setup_spans, digests = [], set()
        for i in range(SETUP_REPEATS):
            t0 = clock.now()
            workdir = work / f"setup{i}"
            workdir.mkdir()
            digests.add(workload.setup(workdir))
            setup_spans.append((t0, clock.now()))
        checks.expect(len(digests) == 1, "set-up made different inputs from one seed")

        pass_spans, items, peak_kb = [], 0, 0
        started = clock.now()
        while not pass_spans or clock.seconds(started, clock.now()) < args.seconds:
            passdir = work / f"pass{len(pass_spans)}"
            passdir.mkdir()
            gc.collect()
            t0 = clock.now()
            outcome = workload.run(passdir)
            pass_spans.append((t0, clock.now()))
            # set-up plus one pass: later passes and the checks' own imports
            # would add only fragmentation and harness memory
            if len(pass_spans) == 1:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            items = workload.check(outcome, checks)
            shutil.rmtree(passdir)
            del outcome
        run_s = statistics.median(clock.seconds(*span) for span in pass_spans)

        if args.trace:
            tracer = trace.Tracer(f"{args.workload}-seed{args.seed}")
            passdir = work / "traced"
            passdir.mkdir()
            gc.collect()
            with tracer.installed():
                t0 = clock.now()
                outcome = workload.run(passdir)
                traced = (t0, clock.now())
            metrics = tracer.metrics()
            workload.check(outcome, checks)
            metrics["trace.overhead_frac"] = clock.seconds(*traced) / run_s - 1
            tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
            kind = "per_layer"
        else:
            metrics = {
                "setup_s": clock.seconds(*imported)
                + statistics.median(clock.seconds(*span) for span in setup_spans),
                "run_s": run_s,
                "items_per_s": items / run_s,
                "peak_rss_mb": peak_kb / 1024,
            }
            kind = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.exit(f"perfbench: no value for {missing}")
    for what in checks.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
