"""levellab benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  Every workload runs in a fresh worker
interpreter (worker.py) that calls the library from one thread, one item
after another.  ``--trace 0`` times the workload with tracing off and
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass of the same items and prints the per-layer metrics, with the
ratio of their wall times as ``trace.overhead_ratio``.  Metric names and
units come from BENCHMARK.json.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--self-check`` shows that output checks feed the failure count: a
corpus copy with one tampered coefficient, and a tower item with a wrong
expected h-vector, must each report failed items.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # items a tail percentile must leave above it


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n items above it."""
    best = 50
    for pct in range(50, 100):
        if n - math.ceil(pct * n / 100) >= TAIL_BEYOND:
            best = pct
    return best


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode: str, *extra: str) -> dict | None:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", str(OUT), *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise SystemExit("benchmark deadline passed")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{self.workload} {mode} run exceeded the deadline")
        if proc.returncode != 0:
            raise SystemExit(f"{self.workload} {mode} worker exited {proc.returncode}")
        if mode == "setup":
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_s(self) -> tuple[float, float]:
        """Median set-up time of fresh workers, calibrated and raw."""
        times, raw = [], []
        before = calibrate.probe()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.worker("setup")
            raw.append(time.perf_counter() - t0)
            after = calibrate.probe()
            times.append(raw[-1] * calibrate.factor(before, after))
            before = after
        return statistics.median(times), statistics.median(raw)


def pass_walls(run: dict, calibrated: bool = True) -> list[float]:
    walls: dict[int, float] = {}
    for pass_no, _, total, scale in run["timings"]:
        walls[pass_no] = walls.get(pass_no, 0.0) + total * (scale if calibrated else 1.0)
    return list(walls.values())


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup, setup_raw = runner.setup_s()
    run = runner.worker("plain", "--seconds", str(seconds))
    n = run["items_per_pass"]
    pct = tail_percentile(n)

    def metrics(calibrated: bool) -> dict:
        latencies = [lat * (scale if calibrated else 1.0)
                     for _, lat, _, scale in run["timings"]]
        return {
            "setup_s": setup if calibrated else setup_raw,
            "items_per_s": statistics.median(n / w for w in pass_walls(run, calibrated)),
            "item_p50_ms": 1000 * statistics.median(latencies),
            "item_tail_ms": 1000 * nearest_rank(latencies, pct),
            "peak_rss_mb": run["peak_rss_mb"],
        }

    raw = metrics(calibrated=False)
    print(f"# {runner.workload}: {run['attempted']} items in "
          f"{run['attempted'] // n} passes, tail is p{pct}, "
          f"fail_share {run['failed'] / run['attempted']:.4f}")
    print("# raw, uncalibrated: " + json.dumps({k: round(v, 4) for k, v in raw.items()}))
    return metrics(calibrated=True), run


def per_layer(runner: Runner) -> tuple[dict, dict]:
    plain = runner.worker("plain", "--passes", "1")
    traced = runner.worker("traced", "--passes", "1")
    if traced["missing_layers"]:
        raise SystemExit(f"traced {runner.workload} recorded no calls to "
                         f"{', '.join(traced['missing_layers'])}")
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = sum(pass_walls(traced)) / sum(pass_walls(plain))
    print(f"# {runner.workload}: {traced['span_count']} spans in {traced['spans_file']}")
    failed = plain["failed"] + traced["failed"]
    return values, {"attempted": plain["attempted"] + traced["attempted"],
                    "failed": failed, "failures": plain["failures"] + traced["failures"]}


def self_check() -> int:
    checks = [("replay_corpus", ("--tampered",)),
              ("tower_codim", ("--wrong-expected", "--items", "4"))]
    ok = True
    for workload, flags in checks:
        run = Runner(workload, 1).worker("plain", "--passes", "1", *flags)
        share = run["failed"] / run["attempted"]
        print(f"self-check {workload} {' '.join(flags)}: fail_share {share:.4f}")
        ok &= share > 0
    print("self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "levellab" / "__init__.py").is_file():
        print(f"error: no levellab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.self_check:
        return self_check()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads or None in (args.seed, args.seconds, args.trace):
        parser.error(f"need --workload ({', '.join(workloads)}), --seed, --seconds, --trace")

    print("# env " + json.dumps(environment(args.seed)))
    runner = Runner(args.workload, args.seed)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values, run = per_layer(runner)
    else:
        values, run = end_to_end(runner, args.seconds)
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    for failure in run["failures"]:
        print(f"# failed {failure}", file=sys.stderr)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
