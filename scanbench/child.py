"""One scan in a fresh process, as a command-line user runs it.

    python3 scanbench/child.py --workload ising-n5 --seed 0 --mode scan

``--mode setup`` stops after the model's propagator is built, ``scan``
also runs the scan, and ``trace`` runs it with per-layer spans and writes
them to ``--trace-out``.  The result is one JSON object on stdout.

qscramble is imported from ``src/`` of the checkout this file sits in,
never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    if not os.path.isdir(os.path.join(SRC, "qscramble")):
        sys.exit(f"no qscramble sources under {SRC}")
    sys.path.insert(0, SRC)
    import qscramble
    if not os.path.abspath(qscramble.__file__).startswith(SRC + os.sep):
        sys.exit(f"qscramble imported from {qscramble.__file__}, not {SRC}")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "scan", "trace"),
                    required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    sys.path.insert(0, HERE)
    from workloads import scan_config

    cfg = scan_config(args.workload, args.seed)
    t0 = time.perf_counter()
    _import_program()
    from qscramble.experiments import (ExperimentConfig, model_propagator,
                                       run_scan)
    config = ExperimentConfig(**cfg)
    model_propagator(config)
    out = {"setup_s": time.perf_counter() - t0}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    import numpy as np
    import env
    import spans

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    ticks = []

    def progress(done, total):
        ticks.append(time.perf_counter())
        if tracer is not None:
            tracer.point = done

    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    report = run_scan(config, progress=progress)
    t2 = time.perf_counter()
    cpu = _cpu_s() - cpu0

    out.update(
        scan_s=t2 - t1, cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        point_s=list(np.diff([t1] + ticks)),
        times=[float(t) for t in np.linspace(
            config.t_start, config.t_max, config.points)],
        csv=report.to_csv(),
        env=env.record(ROOT))
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counts"] = tracer.counts
        out["absent"] = tracer.absent
        out["paused_s"] = tracer.paused_s
        out["span_cost_s"] = len(tracer.spans) * spans.span_cost()
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
