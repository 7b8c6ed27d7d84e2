"""Scan benchmark of qscramble: end-to-end and per-layer metrics.

    python3 scanbench/run.py --workload ising-n5 --seed 0 --seconds 40 --trace 0

Each scan runs in a fresh process (``child.py``) with the thread settings
a user gets: the benchmark sets no BLAS thread variables and records the
thread counts instead.  With ``--trace 0`` it repeats setup-only and
full-scan processes until ``--seconds`` is used up and reports medians of
the end-to-end metrics.  With ``--trace 1`` it runs one plain scan and one
traced scan of the same input and reports the per-layer metrics; their
difference, less the paused certificate checks, is ``trace.overhead_s``.
That difference carries the host's run-to-run noise and can be negative;
``trace.span_cost_s`` is the number of spans times the cost of one span,
timed on a wrapped no-op.

Every scan's rows go through the correctness gate in ``check.py``.  The
last line of stdout is the result object; the lines before it name each
metric with its unit and sample count, the environment record and any
failed row.  The full record, and the spans of a traced run, are written
to ``.scanbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".scanbench_out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: setup-only processes per run, on top of the one in each scan process
SETUP_RUNS = 4
#: scans per run even when one scan takes longer than --seconds
MIN_SCANS = 2
#: no process starts after this many seconds, so a run ends within 180 s
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "scan_s": "s", "setup_s": "s", "point_p50_ms": "ms",
    "point_p90_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = dict(
    [(f"{name}.{kind}", unit) for name in spans.REPORTED_SPANS
     for kind, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))]
    + [(c, "count") for c in spans.COUNTERS]
    + [("sdp.ipm.cho_factor.gflop", "GFLOP"), ("sdp.ipm.schur_dim.max", "rows"),
       ("trace.overhead_s", "s"), ("trace.span_cost_s", "s")])


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, mode: str, stop_at: float,
           trace_out: str = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    timeout = stop_at - time.perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for another process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out after {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def _checked(workload: str, seed: int, scans) -> dict:
    out = {"attempted": 0, "failed": 0, "problems": []}
    for k, scan in enumerate(scans):
        verdict = check.check_scan(workload, seed, scan["csv"], scan["times"])
        out["attempted"] += verdict["attempted"]
        out["failed"] += verdict["failed"]
        out["problems"] += [f"scan {k} point {i}: {'; '.join(p)}"
                            for i, p in verdict["problems"].items()]
        out["reference_checked"] = verdict["reference_checked"]
    return out


def measure(workload: str, seed: int, seconds: float, t0: float):
    """End-to-end metrics: medians over the processes that fit."""
    hard_stop = t0 + HARD_LIMIT_S
    setups = [_child(workload, seed, "setup", hard_stop)["setup_s"]
              for _ in range(SETUP_RUNS)]
    scans, longest = [], 0.0
    while True:
        now = time.perf_counter()
        if len(scans) >= MIN_SCANS and now + longest > t0 + seconds:
            break
        if scans and now + longest > hard_stop:
            break
        scans.append(_child(workload, seed, "scan", hard_stop))
        longest = max(longest, time.perf_counter() - now)
    setups += [s["setup_s"] for s in scans]
    points = [p * 1e3 for s in scans for p in s["point_s"]]
    metrics = {
        "scan_s": (statistics.median(s["scan_s"] for s in scans), len(scans)),
        "setup_s": (statistics.median(setups), len(setups)),
        "point_p50_ms": (statistics.median(points), len(points)),
        "point_p90_ms": (statistics.quantiles(points, n=10,
                                              method="inclusive")[8],
                         len(points)),
        "cpu_s": (statistics.median(s["cpu_s"] for s in scans), len(scans)),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in scans),
                        len(scans)),
    }
    p90 = metrics["point_p90_ms"][0]
    notes = [f"point_p90_ms: {sum(p > p90 for p in points)} of "
             f"{len(points)} grid-point times lie beyond it"]
    return metrics, scans, notes


def measure_traced(workload: str, seed: int, t0: float, trace_out: str):
    """Per-layer metrics of one traced scan, and the overhead of tracing."""
    hard_stop = t0 + HARD_LIMIT_S
    plain = _child(workload, seed, "scan", hard_stop)
    traced = _child(workload, seed, "trace", hard_stop, trace_out)
    metrics = {}
    for name in spans.REPORTED_SPANS:
        rec = traced["spans"].get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for kind in ("s", "self_s", "calls"):
            metrics[f"{name}.{kind}"] = (rec[kind], 1)
    for name in spans.COUNTERS:
        metrics[name] = (traced["counts"][name], 1)
    overhead = traced["scan_s"] - plain["scan_s"] - traced["paused_s"]
    metrics["trace.overhead_s"] = (overhead, 2)
    metrics["trace.span_cost_s"] = (traced["span_cost_s"], 1)
    absent = sorted(set(traced["absent"]))
    notes = [f"absent (reported as 0): {', '.join(absent) or 'none'}",
             f"certificate checks took {traced['paused_s']:.3f} s with the "
             f"clock paused; plain scan {plain['scan_s']:.3f} s, traced "
             f"{traced['scan_s']:.3f} s",
             f"spans written to {os.path.relpath(trace_out, ROOT)}"]
    return metrics, [plain, traced], notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    try:
        if args.trace:
            metrics, scans, notes = measure_traced(
                args.workload, args.seed, t0, stem + "-spans.json")
            units = PER_LAYER_UNITS
        else:
            metrics, scans, notes = measure(args.workload, args.seed,
                                            args.seconds, t0)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"scanbench: {exc}", file=sys.stderr)
        return 1

    verdict = _checked(args.workload, args.seed, scans)
    env = scans[-1]["env"]
    fail_frac = verdict["failed"] / verdict["attempted"]
    for name, (value, n) in metrics.items():
        print(f"{name:<45} {value:>14.6g} {units[name]:<6} n={n}")
    print(f"{'fail_frac':<45} {fail_frac:>14.6g} {'1':<6} "
          f"n={verdict['attempted']}")
    print("reference check: " + ("done" if verdict["reference_checked"] else
                                 f"skipped (seed {args.seed} is not the "
                                 f"default seed {check.DEFAULT_SEED}); "
                                 "invariants checked"))
    for line in notes + verdict["problems"][:20]:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, samples={k: n for k, (_, n) in
                                             metrics.items()},
                  fail_frac=fail_frac, notes=notes,
                  problems=verdict["problems"], env=env,
                  scans=[{k: v for k, v in s.items() if k != "csv"}
                         for s in scans])
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
