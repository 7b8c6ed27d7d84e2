"""Scan workloads of the benchmark and their seeded inputs.

Each workload is one ``run_scan`` as a command-line user runs it.  The
program receives only the ``ExperimentConfig`` fields built here.

Why these three:

* ``ising-n5``: every row is two exact interior-point solves on small
  blocks (Schur matrices 96 and 384), so the scan is bound by the
  solver's per-block Python overhead.
* ``ising-n6``: the same solver on a 16-dimensional region D (Schur
  matrix 1536), so the scan is bound by LAPACK/BLAS-3 factorizations.
* ``syk-n8``: the only workload where the Choi state (2^9 dimensions),
  the 256-dimensional assemblage and the large-region bounded path of
  region D (dimension 64) carry real weight.
"""

from __future__ import annotations

from dataclasses import dataclass

#: golden-ratio stride: seed 0 gives offset 0, other seeds spread over [0, 1)
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Workload:
    model: str
    n: int
    points: int
    t_span: float
    why: str


WORKLOADS = {
    "ising-n5": Workload(
        "ising", 5, 41, 40.0,
        "mixed-field Ising n=5: small exact IPM solves, bound by the "
        "solver's per-block Python overhead"),
    "ising-n6": Workload(
        "ising", 6, 13, 40.0,
        "mixed-field Ising n=6: region D has d=16, so 1536x1536 Schur "
        "factorizations make the scan BLAS-3 bound"),
    "syk-n8": Workload(
        "syk", 8, 41, 148.0,
        "SYK n=8: Choi state on 2^9 dims, 256-dim assemblage and the "
        "bounded path for the 64-dim region D"),
}


def scan_config(name: str, seed: int) -> dict:
    """ExperimentConfig fields of workload ``name`` for ``seed``.

    The SYK couplings are drawn from ``seed``.  The Ising chains have no
    random element, so there the seed shifts the time grid by an offset
    in [0, dt); seed 0 keeps the grid on [0, t_span].
    """
    wl = WORKLOADS[name]
    cfg = dict(model=wl.model, n=wl.n, points=wl.points, jobs=1)
    if wl.model == "syk":
        cfg.update(seed=seed, t_start=0.0, t_max=wl.t_span)
    else:
        dt = wl.t_span / (wl.points - 1)
        offset = dt * ((seed * _GOLDEN) % 1.0)
        cfg.update(g=1.0, h=0.5, t_start=offset, t_max=wl.t_span + offset)
    return cfg
