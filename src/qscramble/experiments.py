"""Scan orchestration: configs, reports, backflow, size sweeps.

A scan evaluates both scrambling witnesses on a time grid of one model's
unitary and records them as rows of a report.  Reports serialize to CSV
with a fixed column set and 12 significant digits so reruns are bitwise
comparable, and the backflow functionals integrate the positive jumps of
the witnesses' negatives over any prefix of the grid.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .qla import Propagator
from .models import build_ising, build_syk, clifford_scan_unitary
from .channels import PartitionSpec, build_choi, tripartite_mutual_information
from .steering import MeasurementSet, minus_t3

#: numeric CSV columns in file order -> ScanRow fields; status ends a row
CSV_COLUMNS = {"t": "t", "minusI3": "minus_i3", "minusT3": "minus_t3",
               "IAC": "i_ac", "IAD": "i_ad", "TSWC": "tsw_c", "TSWD": "tsw_d",
               "TSWtot": "tsw_tot"}
CSV_HEADER = [*CSV_COLUMNS, "status"]

#: default scan horizons, in units of the model's coupling
SPIN_T_MAX = 40.0
SYK_T_MAX = 148.0


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one scan."""

    model: str = "ising"
    n: int = 7
    g: float = 1.0
    h: float = 0.5
    j_coupling: float = 1.0
    seed: int = 0
    n_c: int = 0           # 0: default partition, see resolved_n_c
    t_start: float = 0.0
    t_max: float = 0.0     # 0: model default horizon
    points: int = 200
    measurements: str = "xyz"
    unitary_file: Optional[str] = None
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not
                                    isinstance(value, numbers.Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not
                                      isinstance(value, numbers.Real)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        path = self.unitary_file
        if not (path is None or isinstance(path, str)):
            raise ValueError(f"unitary_file must be a path, got {path!r}")
        if self.model not in ("ising", "syk", "clifford", "unitary-file"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "unitary-file" and not self.unitary_file:
            raise ValueError("model 'unitary-file' needs --unitary-file")
        if self.points < 2:
            raise ValueError("points must be at least 2")
        if self.t_start < 0:
            raise ValueError("t_start must be nonnegative")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        coupling = {"ising": ("g", self.g),
                    "syk": ("j_coupling", self.j_coupling)}.get(self.model)
        if not self.t_max and coupling and coupling[1] == 0:
            raise ValueError(f"model {self.model!r} with {coupling[0]} = 0 "
                             "has no default horizon; set t_max (--tmax)")
        # a unitary file is one grid point, with no horizon of its own
        if self.t_max or self.model != "unitary-file":
            horizon = self.resolved_t_max()
            if horizon <= self.t_start:
                raise ValueError(f"t_max must exceed t_start, got t_start = "
                                 f"{self.t_start} and t_max = {horizon}")
        self.measurement_set = MeasurementSet.pauli(self.measurements)

    @classmethod
    def from_json(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object, "
                             f"got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def resolved_n_c(self) -> int:
        """Region-C width: q1 alone for the 3-qubit circuit scan, else the
        two-qubit block {q1, q2} that the backflow tables are built on."""
        if self.n_c:
            return self.n_c
        if self.model == "clifford":
            return 1
        return min(2, max(1, self.n - 1))

    def resolved_t_max(self) -> float:
        if self.t_max:
            return self.t_max
        if self.model == "syk":
            return SYK_T_MAX / abs(self.j_coupling)
        if self.model == "clifford":
            return float(np.pi)
        return SPIN_T_MAX / abs(self.g)

    def to_dict(self) -> Dict:
        return asdict(self)


@dataclass
class ScanRow:
    t: float
    minus_i3: float
    minus_t3: float
    i_ac: float
    i_ad: float
    tsw_c: float
    tsw_d: float
    tsw_tot: float
    status: str = "ok"

    def csv_fields(self) -> List[str]:
        return [f"{getattr(self, attr):.12g}"
                for attr in CSV_COLUMNS.values()] + [self.status]


@dataclass
class ScramblingReport:
    config: ExperimentConfig
    rows: List[ScanRow] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        attr = CSV_COLUMNS[name]
        return np.array([getattr(r, attr) for r in self.rows])

    def to_csv(self, path: Optional[str] = None) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow(row.csv_fields())
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path: str,
                 config: Optional[ExperimentConfig] = None) -> "ScramblingReport":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            records = (rec for rec in reader
                       if any(field.strip() for field in rec))
            header = next(records, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a CSV header")
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected CSV header {header}")
            for rec in records:
                where = f"{path}:{reader.line_num}"
                if len(rec) != len(CSV_HEADER):
                    raise ValueError(f"{where}: expected "
                                     f"{len(CSV_HEADER)} fields, got {len(rec)}")
                try:
                    vals = {attr: float(v)
                            for attr, v in zip(CSV_COLUMNS.values(), rec)}
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                rows.append(ScanRow(**vals, status=rec[-1]))
        return cls(config or ExperimentConfig(), rows)


def model_propagator(config: ExperimentConfig) -> Propagator:
    if config.model == "ising":
        return Propagator(build_ising(config.n, config.g, config.h).matrix())
    if config.model == "syk":
        return Propagator(build_syk(config.n, config.j_coupling,
                                    config.seed).matrix())
    raise ValueError(f"model {config.model!r} has no Hamiltonian propagator")


def load_unitary_file(path: str) -> np.ndarray:
    """Load and validate a unitary from a plain-text matrix file.

    One matrix row per line, entries whitespace separated in complex
    literal form such as ``0.5-0.5j``.  The dimension must be a power of
    two and the matrix unitary to 1e-8.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([complex(tok) for tok in line.split()])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: rows have inconsistent lengths")
    mat = np.array(rows, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got {mat.shape}")
    dim = mat.shape[0]
    if dim & (dim - 1) or dim < 2:
        raise ValueError(f"{path}: dimension {dim} is not a power of two")
    if not np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-8):
        raise ValueError(f"{path}: matrix is not unitary")
    return mat


def save_unitary_file(path: str, unitary: np.ndarray) -> None:
    """Write a unitary in the plain-text format load_unitary_file reads."""
    with open(path, "w") as fh:
        for row in np.asarray(unitary, dtype=complex):
            fh.write(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
            fh.write("\n")


def _witness_row(t: float, unitary: np.ndarray, partition: PartitionSpec,
                 ms: MeasurementSet) -> ScanRow:
    choi = build_choi(unitary)
    tmi = tripartite_mutual_information(choi, partition)
    try:
        rec = minus_t3(choi, partition.region_c, partition.region_d, ms)
    except Exception as exc:
        nan = float("nan")
        return ScanRow(t, tmi.minus_i3, nan, tmi.i_ac, tmi.i_ad,
                       nan, nan, nan, f"failed: {exc}")
    return ScanRow(t, tmi.minus_i3, rec.minus_t3, tmi.i_ac, tmi.i_ad,
                   rec.tsw_c, rec.tsw_d, rec.tsw_total, rec.status)


def _scan_row(config: ExperimentConfig, unitary_of: Callable,
              t: float) -> ScanRow:
    partition = PartitionSpec.leading(config.n, config.resolved_n_c())
    return _witness_row(t, unitary_of(t), partition, config.measurement_set)


_worker_state: Dict = {}


def _scan_worker_init(config: ExperimentConfig, unitary_of: Callable):
    _worker_state.update(config=config, unitary_of=unitary_of)


def _scan_worker_row(t: float) -> ScanRow:
    return _scan_row(_worker_state["config"], _worker_state["unitary_of"], t)


def run_scan(config: ExperimentConfig, progress=None) -> ScramblingReport:
    """Evaluate both witnesses over the configured time grid.

    The grid is time for the Hamiltonian models and theta for the
    3-qubit Clifford circuit.  ``progress(done, total)``, if given, is
    called after each grid point.  With ``jobs > 1`` each grid point is
    one task of a pool of at most one worker process per grid point, so
    costly points spread over the workers, and the rows come back in
    grid order.  Every row depends on its own time alone, so rows do not
    depend on the worker that computed them.
    """
    if config.model == "unitary-file":
        unitary = load_unitary_file(config.unitary_file)
        config = replace(config, n=unitary.shape[0].bit_length() - 1)
        unitary_of, times = (lambda t: unitary), [0.0]
    else:
        if config.model == "clifford":
            config = replace(config, n=3)   # the circuit is 3 qubits
            unitary_of = clifford_scan_unitary
        else:
            unitary_of = model_propagator(config).unitary
        times = [float(t) for t in np.linspace(
            config.t_start, config.resolved_t_max(), config.points)]
    rows: List[ScanRow] = []

    def collect(results):
        for row in results:
            rows.append(row)
            if progress is not None:
                progress(len(rows), len(times))

    if config.jobs == 1 or len(times) == 1:
        collect(_scan_row(config, unitary_of, t) for t in times)
    else:
        with ProcessPoolExecutor(
                max_workers=min(config.jobs, len(times)),
                initializer=_scan_worker_init,
                initargs=(config, unitary_of)) as pool:
            # map's default chunksize of 1: one grid point per task
            collect(pool.map(_scan_worker_row, times))
    return ScramblingReport(config, rows)


def run_clifford_scan(config: Optional[ExperimentConfig] = None,
                      points: Optional[int] = None) -> ScramblingReport:
    """Witness curves of the interpolating Clifford circuit over theta.

    The preset of :func:`run_scan` with ``model="clifford", n=3``; the
    ``t`` column holds theta in [0, t_max] (default one period, pi).
    """
    config = replace(config or ExperimentConfig(points=25), model="clifford")
    if points is not None:
        config = replace(config, points=points)
    return run_scan(config)


@dataclass
class BackflowResult:
    quantity: str
    t_end: float
    value: float
    n_steps: int
    dt: float
    units: str


def backflow_integral(report: ScramblingReport, quantity: str = "I3",
                      t_end: Optional[float] = None,
                      units: str = "nats") -> BackflowResult:
    """Accumulated revivals of a scrambling quantity up to ``t_end``.

    The integrand is the *negative* of the stored witness column: the
    witness grows under scrambling, so its negative Q in {I3, T3}
    decreases, and every positive increment of Q on the grid is a
    backflow event.  The total is sum_k max(Q(t_{k+1}) - Q(t_k), 0).

    The stored mutual-information columns are base-2, but the customary
    normalization for the accumulated I3 backflow is natural log, so the
    default converts by ln 2; pass ``units="bits"`` to keep base-2.  The
    weight-based T3 backflow is dimensionless and ignores ``units``.
    """
    col = {"I3": "minusI3", "T3": "minusT3"}.get(quantity.upper())
    if col is None:
        raise ValueError(f"quantity must be I3 or T3, got {quantity!r}")
    if units not in ("nats", "bits"):
        raise ValueError(f"units must be 'nats' or 'bits', got {units!r}")
    times = report.times
    if times.size < 2:
        raise ValueError("backflow needs at least two grid points")
    if t_end is None:
        t_end = float(times[-1])
    if not times[0] - 1e-12 <= t_end <= times[-1] + 1e-12:  # rejects nan
        raise ValueError(f"t_end {t_end} outside scan grid "
                         f"[{times[0]}, {times[-1]}]")
    q = -report.column(col)
    mask = times <= t_end + 1e-12
    q = q[mask]
    jumps = np.diff(q)
    value = float(np.clip(jumps, 0.0, None).sum())
    if quantity.upper() == "I3":
        if units == "nats":
            value *= float(np.log(2.0))
    else:
        units = "unitless"
    kept = times[mask]
    dt = float(kept[1] - kept[0]) if kept.size > 1 else 0.0
    return BackflowResult(quantity.upper(), float(t_end), value,
                          int(jumps.size), dt, units)


@dataclass
class SweepEntry:
    n: int
    n_c: int
    backflow_i3: float
    backflow_t3: float
    report: ScramblingReport


def size_sweep(family: str, sizes: Sequence[int] = (3, 4, 5, 8),
               partition=None, points: int = 200, seed: int = 0,
               jobs: int = 1, progress=None) -> List[SweepEntry]:
    """Backflow of both witnesses across system sizes for one family.

    ``family`` is "integrable" (transverse-field chain), "chaotic"
    (mixed-field chain) or "syk".  ``partition`` picks region C per size:
    None keeps the two-qubit block {q1, q2} that the published backflow
    tables correspond to, an int fixes one width for every size, and a
    mapping gives a width per size (e.g. {3: 1, 4: 2, 5: 3, 8: 4}).
    """
    presets = {
        "integrable": dict(model="ising", g=1.0, h=0.0),
        "chaotic": dict(model="ising", g=1.0, h=0.5),
        "syk": dict(model="syk"),
    }
    if family not in presets:
        raise ValueError(f"unknown family {family!r}")
    entries = []
    for n in sizes:
        if partition is None:
            n_c = 0
        elif isinstance(partition, dict):
            n_c = partition[n]
        else:
            n_c = int(partition)
        config = ExperimentConfig(n=n, n_c=n_c, points=points, seed=seed,
                                  jobs=jobs, **presets[family])
        report = run_scan(config, progress=progress)
        entries.append(SweepEntry(
            n, config.resolved_n_c(),
            backflow_integral(report, "I3").value,
            backflow_integral(report, "T3").value,
            report))
    return entries
