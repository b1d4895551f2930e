"""Run one workload in a fresh interpreter and print its raw results as JSON.

Invoked by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE ...

``--mode setup`` imports levellab, builds the inputs and exits, so the
caller can time a fresh interpreter's set-up.  ``--mode plain`` measures
whole passes over the items until another pass would overrun
``--seconds`` (always at least one).  ``--mode traced`` measures one pass
with every layer wrapped, writes the spans and adds per-layer metrics.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import levellab  # noqa: E402

if not Path(levellab.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"levellab imported from {levellab.__file__}, not {ROOT / 'src'}")

import calibrate  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402


def build(args, out_dir: Path):
    flags = {"tampered": args.tampered, "wrong_expected": args.wrong_expected}
    wl = workloads.WORKLOADS[args.workload](
        args.seed, out_dir, **{name: True for name, on in flags.items() if on})
    if args.items:
        wl.items = wl.items[: args.items]
    return wl


def measure(wl, seconds: float, max_passes: int | None, tracer=None) -> dict:
    """Timed passes; each output is kept for the checks that follow.

    Every item is recorded as [pass, latency_s, total_s, factor]: latency
    covers the public call, total adds the work the item still owes, and
    factor is the host-speed calibration of the probes around it.
    """
    timings: list[list] = []
    probe_at: list[int] = []  # index of the probe taken before each item
    probes = [calibrate.probe()]
    last_probe = time.perf_counter()
    outputs: list[tuple[int, object, object]] = []
    errors: dict[int, str] = {}
    k = passes = 0
    start = time.perf_counter()

    def one(index, item):
        t0 = time.perf_counter()
        try:
            output = wl.call(item)
        finally:
            timings.append([passes, time.perf_counter() - t0])
        wl.follow(index, item, output)
        return output

    while True:
        for item in wl.items:
            if time.perf_counter() - last_probe >= calibrate.EVERY_S:
                probes.append(calibrate.probe())
                last_probe = time.perf_counter()
            probe_at.append(len(probes) - 1)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = one(k, item)
                else:
                    output = tracer.item(k, one, k, item)
                outputs.append((k, item, output))
            except Exception as exc:  # an item that raises is a failed item
                traceback.print_exc(file=sys.stderr)
                errors[k] = f"{type(exc).__name__}: {exc}"
            timings[k].append(time.perf_counter() - t0)
            k += 1
        passes += 1
        elapsed = time.perf_counter() - start
        if max_passes is not None and passes >= max_passes:
            break
        if elapsed + elapsed / passes > seconds:
            break
    probes.append(calibrate.probe())
    for row, j in zip(timings, probe_at):
        row.append(calibrate.factor(probes[j], probes[j + 1]))
    return {"timings": timings, "outputs": outputs, "errors": errors, "attempted": k}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--items", type=int, default=0, help="only the first N items")
    parser.add_argument("--tampered", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = build(args, out_dir)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = spantrace.Tracer()
        tracer.install()
        tracer.recording = True
    run = measure(wl, args.seconds, args.passes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.recording = False

    failures = dict(run["errors"])
    for index, item, output in run["outputs"]:
        reason = wl.check(item, output)
        if reason is not None:
            failures.setdefault(index, reason)
    for index, reason in wl.check_all().items():
        failures.setdefault(index, reason)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "items_per_pass": len(wl.items),
        "attempted": run["attempted"],
        "failed": len(failures),
        "failures": [f"item {i}: {r}" for i, r in sorted(failures.items())[:5]],
        "timings": run["timings"],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
        result["span_count"] = len(tracer.spans)
        result["layers"] = spantrace.layer_metrics(tracer.spans)
        result["missing_layers"] = spantrace.missing_layers(tracer.spans, args.workload)
        tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
