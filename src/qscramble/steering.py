"""Temporal steering of unitary dynamics and the -T3 witness.

The protocol: at t = 0 the first qubit of a maximally mixed register is
measured (3 Pauli settings by default), the whole register evolves under
the unitary, and the conditional states of a region form a temporal
assemblage

    sigma_{a|x}(t) = tr_rest[ U (E_{a|x} x 1) U^dag ] / 2^N .

That assemblage is the Born rule on the unitary's Choi state: with r1
the reference of q1, the r1 blocks of the marginal rho_{r1 R} are
tr_rest(U_a U_b^dag) / 2^N, and sigma_{a|x} = sum_ab E_{a|x}[a, b] rho_ab
(the Choi state and the pseudo-density matrix are one object).  So both
witnesses of a grid point are read off the marginals of one
:class:`channels.ChoiState`, each formed once, straight from U.  The
effects are one ``(settings, outcomes, 2, 2)`` array and the assemblage
one ``(settings, outcomes, d, d)`` array, the form the steerable-weight
solver takes.

The steerable weight TSW of that assemblage measures how much of the
measurement information remains recoverable from the region.  The
scrambling witness combines three regions:

    -T3(t) = TSW[total] - TSW[C] - TSW[D]

where TSW[total] is time independent (the weight is invariant under a
global unitary and under discarding maximally mixed ancillas, both exact
identities the tests probe) and equals the single-qubit weight of the
bare measurement set.  Each weight is one
:func:`qscramble.sdp.solve_steering_weight` call, which picks by itself
between its exact exits and the interior-point SDP, and returns every
weight with a dual certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .channels import ChoiState, system_labels
from .models import pauli_matrix
from .sdp import solve_steering_weight
from .sdp.ipm import NumericalFailure

_PAULI_BY_AXIS = {"x": pauli_matrix("X"), "y": pauli_matrix("Y"),
                  "z": pauli_matrix("Z")}

#: tolerance of the POVM checks on measurement effects
_EFFECT_TOL = 1e-10


@dataclass
class MeasurementSet:
    """Single-qubit measurement settings as one array of effects.

    ``effects[x, a]`` is the effect of outcome a under setting x, held as
    one complex ``(settings, outcomes, 2, 2)`` array.  Each setting must
    be a POVM: Hermitian, positive semidefinite effects that sum to the
    identity.  A setting with fewer outcomes is padded with zero effects.
    Two sets are equal when their names and effect arrays are.
    """

    name: str
    effects: np.ndarray

    def __post_init__(self):
        try:
            effects = np.array(self.effects, dtype=complex)
        except ValueError as exc:
            raise ValueError(f"measurement set {self.name!r} has ragged "
                             "settings; pad them with zero effects") from exc
        if (effects.ndim != 4 or effects.shape[2:] != (2, 2)
                or not effects.size):
            raise ValueError("effects must have shape (settings, outcomes, "
                             f"2, 2), got {effects.shape}")
        skew = np.abs(effects - effects.conj().swapaxes(-1, -2)).max()
        if skew > _EFFECT_TOL:
            raise ValueError(f"effects are not Hermitian (deviation "
                             f"{skew:.2e})")
        lowest = np.linalg.eigvalsh(effects)[..., 0]
        x, a = np.unravel_index(np.argmin(lowest), lowest.shape)
        if lowest[x, a] < -_EFFECT_TOL:
            raise ValueError(f"effect ({a}|{x}) has negative eigenvalue "
                             f"{lowest[x, a]:.2e}")
        for x, total in enumerate(effects.sum(axis=1)):
            if not np.allclose(total, np.eye(2), rtol=0, atol=_EFFECT_TOL):
                raise ValueError(f"setting {x} effects do not sum to identity")
        self.effects = effects

    def __eq__(self, other):
        if not isinstance(other, MeasurementSet):
            return NotImplemented
        return (self.name == other.name
                and np.array_equal(self.effects, other.effects))

    @classmethod
    def pauli(cls, axes: str = "xyz") -> "MeasurementSet":
        """Projective +/- measurements along the named Pauli axes."""
        if not isinstance(axes, str):
            raise ValueError("measurements must be a string of Pauli axes, "
                             f"got {axes!r}")
        if not axes:
            raise ValueError("measurements must name at least one Pauli "
                             f"axis, got {axes!r}")
        effects = []
        for ax in axes.lower():
            p = _PAULI_BY_AXIS.get(ax)
            if p is None:
                raise ValueError(f"unknown Pauli axis {ax!r} in {axes!r}")
            effects.append([(np.eye(2) + s * p) / 2.0 for s in (+1.0, -1.0)])
        return cls(f"pauli-{axes.lower()}", effects)

    @property
    def n_settings(self) -> int:
        return self.effects.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[1]


def temporal_assemblage(choi: ChoiState, measurements: MeasurementSet,
                        region: Optional[Sequence[str]] = None) -> np.ndarray:
    """Temporal assemblage on ``region``, read off the Choi state.

    The Choi marginal rho_{r1 R} has r1 blocks rho_ab = tr_rest(U_a U_b^dag)
    / 2^N, and the register that q1's effect E leaves behind evolves to
    sum_ab E[a, b] U_a U_b^dag / 2^N.  The partial trace is linear, so the
    Born rule on the marginal gives every member on R:

        sigma_{a|x} = sum_ab E_{a|x}[a, b] rho_ab .

    The marginal is :meth:`ChoiState.marginal`, formed from U and shared
    with the tripartite information of the same state; the dense Choi
    state is never built.  ``region=None`` keeps every system qubit.
    Returns the members as one ``(settings, outcomes, d, d)`` array.
    """
    region = (system_labels(choi.n_qubits) if region is None
              else tuple(region))
    rho = choi.marginal(("r1",) + region).matrix
    dim = rho.shape[0] // 2
    return np.einsum("xoab,aibj->xoij", measurements.effects,
                     rho.reshape(2, dim, 2, dim))


_TSW_TOTAL_CACHE: Dict[bytes, float] = {}


def total_steerable_weight(measurements: MeasurementSet) -> float:
    """TSW of the assemblage on the *entire* register, any unitary.

    Equal to the single-qubit weight of {E_{a|x} / 2}: the global unitary
    drops out (conjugating every member and every hidden state by the
    same unitary is a bijection of local models) and the maximally mixed
    unmeasured qubits factor out of every member.  Both identities hold
    exactly and are enforced by property tests, so the weight is solved
    once per measurement set and cached.  The cache key is the bytes of
    the effects: all effects sum to S times the identity for S settings,
    so two valid shapes never share them.
    """
    effects = measurements.effects
    key = effects.tobytes()
    if key not in _TSW_TOTAL_CACHE:
        _TSW_TOTAL_CACHE[key] = solve_steering_weight(
            effects / 2.0).steerable_weight
    return _TSW_TOTAL_CACHE[key]


@dataclass
class WitnessRecord:
    """-T3 at one time, with the three weights and solver diagnostics."""

    minus_t3: float
    tsw_c: float
    tsw_d: float
    tsw_total: float
    status_c: str = "Optimal"
    status_d: str = "Optimal"

    @property
    def status(self) -> str:
        if self.status_c == "Optimal" and self.status_d == "Optimal":
            return "ok"
        return f"C:{self.status_c}/D:{self.status_d}"


def minus_t3(choi: ChoiState, region_c: Sequence[str],
             region_d: Sequence[str],
             measurements: Optional[MeasurementSet] = None) -> WitnessRecord:
    """Temporal-steering scrambling witness of a unitary's Choi state.

    -T3 = TSW[total] - TSW[C] - TSW[D] for the measure-then-evolve
    protocol on the maximally mixed register, each region's assemblage
    read off ``choi`` by :func:`temporal_assemblage`.  Each region's
    weight is one :func:`solve_steering_weight` call, which takes the
    first of its exits that settles the region: the exact zero, the exact
    unit weight, the face zero or the interior-point SDP.  An IPM solve
    that ends short of its stop rule keeps its weight and labels the
    record, as in ``C:Optimal/D:NumericalFailure``.  A region past the
    solver's Schur-memory cap that no zero settles raises
    :class:`NumericalFailure` naming the region.  Every weight depends on
    this Choi state alone, never on earlier calls.
    """
    ms = measurements or MeasurementSet.pauli()
    tsw_tot = total_steerable_weight(ms)
    parts = {}
    for name, region in (("C", region_c), ("D", region_d)):
        members = temporal_assemblage(choi, ms, region)
        try:
            parts[name] = solve_steering_weight(members)
        except NumericalFailure as exc:
            raise NumericalFailure(f"region {name}: {exc}") from exc
    c, d = parts["C"], parts["D"]
    return WitnessRecord(tsw_tot - c.steerable_weight - d.steerable_weight,
                         c.steerable_weight, d.steerable_weight, tsw_tot,
                         c.status, d.status)
