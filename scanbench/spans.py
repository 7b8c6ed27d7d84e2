"""Spans and counters around qscramble's public functions.

The program is not edited: :func:`install` replaces module and class
attributes with timing wrappers from outside.  Spans are kept in memory,
keyed by grid-point index, and written out by the caller at the end.  A
target that no longer exists is reported as absent, so the benchmark
survives the deletion of a layer.

Self time is a span's duration minus the time its child spans cover.
The certificate check runs with the clock paused, so it is outside every
timed span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

#: (span name, module, attribute path, rebind): with ``rebind`` every
#: qscramble module that imported the same function object is patched
#: too, so calls through ``from .x import f`` bindings are seen.
TARGETS = [
    ("experiments.model_propagator", "qscramble.experiments",
     "model_propagator", True),
    ("qla.Propagator.unitary", "qscramble.qla", "Propagator.unitary", False),
    ("channels.build_choi", "qscramble.channels", "build_choi", True),
    ("channels.tripartite_mutual_information", "qscramble.channels",
     "tripartite_mutual_information", True),
    ("steering.minus_t3", "qscramble.steering", "minus_t3", True),
    ("steering.encode_and_evolve", "qscramble.steering",
     "encode_and_evolve", True),
    ("steering.reduce_assemblage", "qscramble.steering",
     "reduce_assemblage", True),
    ("steering.total_steerable_weight", "qscramble.steering",
     "total_steerable_weight", True),
    ("steering.accel.try_solve", "qscramble.steering",
     "BoundTrackingAccelerator.try_solve", False),
    ("sdp.solve_steering_weight", "qscramble.sdp.problem",
     "solve_steering_weight", True),
    ("sdp.SteeringWeightProblem.reduce", "qscramble.sdp.problem",
     "SteeringWeightProblem.reduce", False),
    ("sdp.ipm.solve_conic", "qscramble.sdp.ipm", "solve_conic", True),
    ("sdp.ipm.ConicSolver.build_schur", "qscramble.sdp.ipm",
     "ConicSolver.build_schur", False),
    ("sdp.ipm.cho_factor", "qscramble.sdp.ipm", "cho_factor", False),
    ("sdp._kernels.congruence_rep", "qscramble.sdp.ipm", "congruence_rep",
     False),
]

#: spans reported as per-layer metrics (the cached total-weight solve is
#: traced only to tell scan-point solves from it)
REPORTED_SPANS = [name for name, *_ in TARGETS
                  if name != "steering.total_steerable_weight"]

COUNTERS = [
    "sdp.ipm.iterations", "sdp.ipm.iterations.max", "sdp.ipm.nonoptimal",
    "sdp.eliminated", "sdp.ipm.schur_dim.max", "sdp.ipm.cho_factor.gflop",
    "steering.accel.attempts", "steering.accel.warm_hits",
    "steering.accel.bounded", "sdp.certificates_checked",
    "sdp.certificates_ok",
]


class Tracer:
    """In-memory span recorder with a pausable clock."""

    def __init__(self):
        self.point = 0
        self.schur_dim = 0
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # finished spans: (name id, point, parent index, start, end, self)
        self.spans: List[tuple] = []
        # open spans: [name id, point, start, child time, own index]
        self._stack: List[list] = []
        self._paused = 0.0
        self.paused_s = 0.0
        self.counts: Dict[str, float] = {c: 0 for c in COUNTERS}
        self.solves: List[dict] = []
        self.absent: List[str] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        # reserve the span's slot so children can name it as parent
        self.spans.append(None)
        self._stack.append([nid, self.point, self.clock(), 0.0,
                            len(self.spans) - 1])

    def end(self) -> None:
        nid, point, start, child, idx = self._stack.pop()
        stop = self.clock()
        parent = self._stack[-1][4] if self._stack else -1
        self.spans[idx] = (nid, point, parent, start, stop,
                           stop - start - child)
        if self._stack:
            self._stack[-1][3] += stop - start

    def parent_name(self) -> Optional[str]:
        return self.names[self._stack[-1][0]] if self._stack else None

    def run_paused(self, fn: Callable, *args):
        """Call ``fn`` with the clock stopped, outside every span."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self._paused += dt
            self.paused_s += dt

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Inclusive time, self time and calls per span name."""
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0}
               for name in self.names}
        for nid, _, _, start, stop, self_s in self.spans:
            rec = out[self.names[nid]]
            rec["s"] += stop - start
            rec["self_s"] += self_s
            rec["calls"] += 1
        return out

    def dump(self) -> dict:
        """Spans keyed by grid-point index, plus counters and solves."""
        by_point: Dict[int, list] = {}
        for i, (nid, point, parent, start, stop, self_s) in \
                enumerate(self.spans):
            by_point.setdefault(point, []).append(
                [i, self.names[nid], parent, round(start, 7), round(stop, 7),
                 round(self_s, 7)])
        return {"fields": ["id", "name", "parent", "start", "end", "self"],
                "points": {str(p): v for p, v in sorted(by_point.items())},
                "counts": self.counts, "solves": self.solves,
                "absent": self.absent}


def _resolve(module: str, path: str):
    """(owner, attribute, current value) of a target, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


def _wrap(tracer: Tracer, name: str, fn: Callable,
          before: Optional[Callable], after: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, result)
        return result
    return wrapper


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds to a call, timed on a wrapped no-op."""
    def noop():
        return None

    wrapped = _wrap(Tracer(), "noop", noop, None, None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / n


def _hooks(tracer: Tracer):
    """Counters attached to some targets: (before, after) per span."""
    counts = tracer.counts
    try:
        from qscramble.sdp import verify_certificate
    except ImportError:
        verify_certificate = None
        tracer.absent.append("sdp.verify_certificate")

    def conic_done(args, res):
        counts["sdp.ipm.iterations"] += res.iterations
        counts["sdp.ipm.iterations.max"] = max(
            counts["sdp.ipm.iterations.max"], res.iterations)
        counts["sdp.ipm.nonoptimal"] += res.status != "Optimal"

    def schur_done(args, res):
        tracer.schur_dim = res.shape[0]
        counts["sdp.ipm.schur_dim.max"] = max(
            counts["sdp.ipm.schur_dim.max"], res.shape[0])

    def cho_start(args):
        p = args[0].shape[0]
        counts["sdp.ipm.cho_factor.gflop"] += p ** 3 / 3.0 / 1e9

    def accel_done(args, res):
        counts["steering.accel.attempts"] += 1
        if res is None:
            return
        if res.status == "Bounded":
            counts["steering.accel.bounded"] += 1
        else:
            counts["steering.accel.warm_hits"] += 1

    def solve_start(args):
        tracer.schur_dim = 0

    def solve_done(args, res):
        # the cached total-weight solve is not a scan-point solve
        if tracer.parent_name() == "steering.total_steerable_weight":
            return
        record = {"point": tracer.point, "iterations": res.iterations,
                  "schur_dim": tracer.schur_dim, "status": res.status}
        counts["sdp.eliminated"] += res.iterations == 0
        if verify_certificate is not None:
            ok = bool(tracer.run_paused(verify_certificate, args[0], res))
            counts["sdp.certificates_checked"] += 1
            counts["sdp.certificates_ok"] += ok
            record["certificate_ok"] = ok
        tracer.solves.append(record)

    return {
        "sdp.ipm.solve_conic": (None, conic_done),
        "sdp.ipm.ConicSolver.build_schur": (None, schur_done),
        "sdp.ipm.cho_factor": (cho_start, None),
        "steering.accel.try_solve": (None, accel_done),
        "sdp.solve_steering_weight": (solve_start, solve_done),
    }


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; record the others as absent."""
    hooks = _hooks(tracer)
    loaded = [m for name, m in sys.modules.items()
              if name == "qscramble" or name.startswith("qscramble.")]
    for name, module, path, rebind in TARGETS:
        found = _resolve(module, path)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attr, original = found
        before, after = hooks.get(name, (None, None))
        wrapped = _wrap(tracer, name, original, before, after)
        setattr(owner, attr, wrapped)
        if rebind:
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
