"""Command-line entry point.

Subcommands:
  scan           witness curves of a Hamiltonian model over a time grid
  clifford       witness curves of the interpolating Clifford circuit
  backflow       integrate witness revivals from a scan CSV
  sweep          backflow across system sizes for one model family
  haar-baseline  late-time tripartite-information reference value
  verify         run the built-in invariant suite
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import List, Optional

from .channels import PartitionSpec, haar_scrambled_baseline
from .experiments import (BackflowResult, ExperimentConfig,
                          ScramblingReport, backflow_integral, run_scan,
                          size_sweep)


def _add_scan_args(sub: argparse.ArgumentParser, model_choices) -> None:
    sub.add_argument("--config", help="JSON file with ExperimentConfig fields")
    if model_choices:
        sub.add_argument("--model", choices=model_choices, default=None)
    sub.add_argument("--n", type=int, default=None, help="number of qubits")
    sub.add_argument("--g", type=float, default=None,
                     help="transverse field strength")
    sub.add_argument("--h", type=float, default=None,
                     help="longitudinal field strength")
    sub.add_argument("--J", dest="j_coupling", type=float, default=None,
                     help="coupling scale of the random four-body model")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--nc", dest="n_c", type=int, default=None,
                     help="qubits in region C (default: the {q1,q2} block)")
    sub.add_argument("--tstart", dest="t_start", type=float, default=None)
    sub.add_argument("--tmax", dest="t_max", type=float, default=None)
    sub.add_argument("--points", type=int, default=None)
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes for the time grid")
    sub.add_argument("--unitary-file", default=None,
                     help="plain-text unitary for --model unitary-file")
    sub.add_argument("--out", default=None, help="CSV output path")
    sub.add_argument("--svg", default=None, help="SVG plot output path")
    sub.add_argument("--quiet", action="store_true")


def _config_from_args(args, defaults: Optional[dict] = None) -> ExperimentConfig:
    # config fields without a flag, such as measurements, read as None
    overrides = {f.name: getattr(args, f.name, None)
                 for f in fields(ExperimentConfig)}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.config:
        return ExperimentConfig.from_json(args.config, **overrides)
    base = dict(defaults or {})
    base.update(overrides)
    return ExperimentConfig(**base)


def _emit_report(report: ScramblingReport, args) -> None:
    text = report.to_csv(args.out)
    if args.svg:
        from .plotting import write_scan_svg
        write_scan_svg(report, args.svg)
    if args.out is None:
        sys.stdout.write(text)
    elif not args.quiet:
        print(f"wrote {len(report.rows)} rows to {args.out}"
              + (f" and plot to {args.svg}" if args.svg else ""))


def _progress(quiet: bool):
    if quiet or not sys.stderr.isatty():
        return None

    def show(done: int, total: int) -> None:
        sys.stderr.write(f"\r{done}/{total} grid points")
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()
    return show


def cmd_scan(args) -> int:
    config = _config_from_args(args)
    report = run_scan(config, progress=_progress(args.quiet))
    _emit_report(report, args)
    return 0


def cmd_clifford(args) -> int:
    config = _config_from_args(args, defaults=dict(model="clifford", n=3,
                                                   points=25))
    report = run_scan(replace(config, model="clifford"),
                      progress=_progress(args.quiet))
    _emit_report(report, args)
    return 0


def cmd_backflow(args) -> int:
    report = ScramblingReport.from_csv(args.infile)
    results: List[BackflowResult] = [
        backflow_integral(report, q, args.t_end, units=args.units)
        for q in (args.quantity.split(",") if args.quantity != "both"
                  else ["I3", "T3"])]
    if args.json:
        print(json.dumps([vars(r) for r in results], indent=2))
    else:
        for r in results:
            print(f"backflow[{r.quantity}](T={r.t_end:g}) = {r.value:.12g} "
                  f"{r.units} ({r.n_steps} steps of {r.dt:g})")
    return 0


def cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    partition = args.n_c if args.n_c else None
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    entries = size_sweep(args.family, sizes, partition=partition,
                         points=args.points, seed=args.seed, jobs=args.jobs)
    rows = []
    for e in entries:
        if args.out_dir:
            path = f"{args.out_dir}/{args.family}_n{e.n}.csv"
            e.report.to_csv(path)
        rows.append({"n": e.n, "n_c": e.n_c,
                     "backflow_I3": e.backflow_i3,
                     "backflow_T3": e.backflow_t3})
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'n':>3} {'n_c':>4} {'backflow_I3':>14} {'backflow_T3':>14}")
        for r in rows:
            print(f"{r['n']:>3} {r['n_c']:>4} {r['backflow_I3']:>14.6f} "
                  f"{r['backflow_T3']:>14.6f}")
    return 0


def cmd_haar_baseline(args) -> int:
    n_c = args.n_c or min(2, max(1, args.n - 1))
    partition = PartitionSpec.leading(args.n, n_c)
    base = haar_scrambled_baseline(args.n, partition, samples=args.samples,
                                   seed=args.seed)
    print(f"-I3 Haar baseline (n={args.n}, n_c={partition.n_c}, "
          f"{base.samples} samples): {base.mean:.6f} +- {base.stderr:.6f}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks
    ok = run_checks(quick=args.quick, names=args.only or None)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscramble",
        description="Operational scrambling witnesses of qubit dynamics")
    subs = parser.add_subparsers(dest="command", required=True)

    scan = subs.add_parser("scan", help="witness curves over a time grid")
    _add_scan_args(scan, ("ising", "syk", "unitary-file", "clifford"))
    scan.set_defaults(func=cmd_scan)

    cliff = subs.add_parser("clifford",
                            help="interpolating Clifford circuit curves")
    _add_scan_args(cliff, None)
    cliff.set_defaults(func=cmd_clifford)

    back = subs.add_parser("backflow", help="integrate witness revivals")
    back.add_argument("--in", dest="infile", required=True,
                      help="scan CSV produced by `scan` or `clifford`")
    back.add_argument("--quantity", default="both",
                      help="I3, T3, or both (default)")
    back.add_argument("--t-end", dest="t_end", type=float, default=None)
    back.add_argument("--units", choices=("nats", "bits"), default="nats",
                      help="normalization of the I3 integral")
    back.add_argument("--json", action="store_true")
    back.set_defaults(func=cmd_backflow)

    sweep = subs.add_parser("sweep", help="backflow across system sizes")
    sweep.add_argument("--family", required=True,
                       choices=("integrable", "chaotic", "syk"))
    sweep.add_argument("--sizes", default="3,4,5,8")
    sweep.add_argument("--nc", dest="n_c", type=int, default=None,
                       help="fixed region-C width (default: {q1,q2} block)")
    sweep.add_argument("--points", type=int, default=200)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--out-dir", default=None,
                       help="directory for per-size CSV files")
    sweep.add_argument("--json", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    haar = subs.add_parser("haar-baseline",
                           help="late-time -I3 reference from Haar draws")
    haar.add_argument("--n", type=int, required=True)
    haar.add_argument("--nc", dest="n_c", type=int, default=None)
    haar.add_argument("--samples", type=int, default=200)
    haar.add_argument("--seed", type=int, default=0)
    haar.set_defaults(func=cmd_haar_baseline)

    verify = subs.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--quick", action="store_true",
                        help="smaller samples and problem sizes")
    verify.add_argument("--only", nargs="*", default=None,
                        help="run only checks whose name contains a term")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
