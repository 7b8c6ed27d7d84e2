"""Invariant suite behind ``qscramble verify``: checks that cross layers.

Each check recomputes an expected value through an independent route
(index sums, a second construction, closed-form anchors, dual
certificates, a second solver) and compares it against the production
code path.  Single-function oracles (kron, partial trace, Pauli algebra,
model Hamiltonians and the like) live in the unit tests alone.  The two
exact-zero checks share one re-proof of the exit: its status, a weight
of exactly 0, the eigvalsh floor of its model, the equality residual
strategy by strategy and the certificate.
``run_checks(quick=True)`` trims sample counts and problem sizes for use
inside test runs; both forms time one d = 16 interior-point solve
against the scaling envelope.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from .qla import partial_trace, Propagator, mutual_information
from .models import (build_ising, clifford_scrambler_unitary,
                     haar_random_unitary, random_local_unitary)
from .channels import (PartitionSpec, build_choi, build_pdm,
                       tripartite_mutual_information, assemblage_from_pdm)
from .steering import (MeasurementSet, temporal_assemblage,
                       total_steerable_weight, minus_t3)
from .sdp import (first_order_steering_weight, solve_steering_weight,
                  verify_certificate, enumerate_strategies)

#: witness-level agreement between independent routes (entropic vs SDP,
#: invariance transports, first-order vs interior-point)
WITNESS_TOL = 2e-6

SCALING_DIM = 16
SCALING_BUDGET_S = 60.0


class CheckFailure(AssertionError):
    pass


def _ok(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ----------------------------------------------------------- channels ----

def check_choi_consistency(quick: bool) -> str:
    rng = _rng(18)
    choi = build_choi(haar_random_unitary(8, rng))
    full = choi.state
    _ok(abs(np.trace(full.matrix) - 1.0) < 1e-12, "Choi trace")
    vals = np.linalg.eigvalsh(full.matrix)
    _ok(vals.min() > -1e-12, "Choi positivity")
    # the scan's route: each region's marginal formed from U, never the state
    for keep in (("r1", "q1"), ("q3", "r1", "q2"), ("r1", "q1", "q2", "q3")):
        _ok(np.allclose(choi.marginal(keep).matrix,
                        partial_trace(full, keep).matrix, atol=1e-12),
            f"marginal on {keep} != traced Choi state")
    return "PSD, unit trace; marginals from U = traced dense state"


def check_tmi_values(quick: bool) -> str:
    part = PartitionSpec.leading(2, 1)
    tmi_id = tripartite_mutual_information(build_choi(np.eye(4)), part)
    _ok(abs(tmi_id.i_ac - 2.0) < 1e-12 and abs(tmi_id.i_ad) < 1e-12
        and abs(tmi_id.minus_i3) < 1e-12, "identity TMI")
    part3 = PartitionSpec.leading(3, 1)
    tmi_s = tripartite_mutual_information(
        build_choi(clifford_scrambler_unitary()), part3)
    _ok(abs(tmi_s.minus_i3 - 2.0) < 1e-12, "scrambler -I3 != 2")
    rng = _rng(19)
    for _ in range(3 if quick else 8):
        choi = build_choi(haar_random_unitary(8, rng))
        tmi = tripartite_mutual_information(choi, part3)
        _ok(tmi.minus_i3 >= -1e-9, f"-I3 negative: {tmi.minus_i3}")
        # computed, not taken from the identity the witness relies on
        i_acd = mutual_information(choi.state, part3.region_a,
                                   part3.region_c + part3.region_d)
        _ok(abs(i_acd - 2.0) < 1e-10, f"I(A:CD) = {i_acd}, not 2")
    return "identity, scrambler, -I3 >= 0 on Haar draws"


def check_pdm_routes(quick: bool) -> str:
    pdm_id = build_pdm(np.eye(2))
    vals = np.sort(pdm_id.eigenvalues())
    _ok(np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12),
        "identity PDM spectrum")
    rng = _rng(20)
    u = haar_random_unitary(4, rng)
    a = build_pdm(u, method="choi").matrix
    b = build_pdm(u, method="correlator").matrix
    _ok(np.linalg.norm(a - b) < 1e-10, "PDM construction routes disagree")
    ms = MeasurementSet.pauli()
    via_pdm = assemblage_from_pdm(build_pdm(u), ms.effects)
    direct = temporal_assemblage(build_choi(u), ms)
    worst = float(np.linalg.norm(via_pdm - direct, axis=(-2, -1)).max())
    _ok(worst < 1e-10, f"PDM Born rule vs operational: {worst}")
    return "spectrum, dual construction, Born rule"


# ----------------------------------------------------------- steering ----

def check_assemblage_sanity(quick: bool) -> str:
    rng = _rng(21)
    ms = MeasurementSet.pauli()
    choi = build_choi(haar_random_unitary(8, rng))
    asm = temporal_assemblage(choi, ms)
    marg = asm.sum(axis=1)
    _ok(np.abs(marg - marg[0]).max() < 1e-12, "no-signaling defect")
    _ok(np.allclose(marg[0], np.eye(8) / 8, atol=1e-12),
        "marginal not maximally mixed")
    probs = np.trace(asm, axis1=2, axis2=3).real
    _ok(np.allclose(probs, 0.5, atol=1e-12), "outcome probabilities != 1/2")
    red = temporal_assemblage(choi, ms, ("q2", "q3")).sum(axis=1)
    _ok(np.abs(red - red[0]).max() < 1e-12, "reduction breaks no-signaling")
    return "marginals, probabilities, reductions"


def check_tsw_anchors(quick: bool) -> str:
    ms = MeasurementSet.pauli()
    choi = build_choi(np.eye(8))
    w_q1 = solve_steering_weight(
        temporal_assemblage(choi, ms, ("q1",))).steerable_weight
    _ok(w_q1 == 1.0, f"projective TSW {w_q1} != 1 exactly")
    sol = solve_steering_weight(
        temporal_assemblage(choi, ms, ("q2", "q3")))
    _ok(sol.steerable_weight == 0.0 and sol.mu_star == 1.0
        and sol.iterations == 0, f"untouched region TSW "
        f"{sol.steerable_weight} after {sol.iterations} iterations")
    _ok(total_steerable_weight(ms) == 1.0, "TSW total != 1 exactly")
    return "t=0 anchors: 1 exact, 0 exact, total 1 exact"


def check_witness_gates(quick: bool) -> str:
    rng = _rng(22)
    local = random_local_unitary(PartitionSpec.leading(3, 1), rng)
    rec = minus_t3(build_choi(local), ("q1",), ("q2", "q3"))
    _ok(abs(rec.minus_t3) < WITNESS_TOL, f"local -T3 = {rec.minus_t3}")
    rec_s = minus_t3(build_choi(clifford_scrambler_unitary()), ("q1",),
                     ("q2", "q3"))
    _ok(abs(rec_s.minus_t3 - 1.0) < WITNESS_TOL,
        f"scrambler -T3 = {rec_s.minus_t3}")
    _ok(rec.status == "ok" and rec_s.status == "ok", "solver status")
    return "local product ~ 0, scrambler ~ 1"


def _unitary_invariance_defect(members: np.ndarray,
                               seeds) -> Tuple[float, float]:
    """TSW(sigma) and max |TSW(U sigma U^dag) - TSW(sigma)| over Haar
    unitaries drawn with ``seeds``.

    The exact invariance of the weight under global unitaries is a
    theorem; this measures how well the solver honors it and should stay
    within a few times the duality gap.
    """
    base = solve_steering_weight(members).steerable_weight
    worst = 0.0
    for seed in seeds:
        u = haar_random_unitary(members.shape[-1], _rng(seed))
        w = solve_steering_weight(u @ members @ u.conj().T).steerable_weight
        worst = max(worst, abs(w - base))
    return base, worst


def check_tsw_invariance(quick: bool) -> str:
    rng = _rng(23)
    asm = temporal_assemblage(build_choi(haar_random_unitary(4, rng)),
                              MeasurementSet.pauli(), ("q1",))
    seeds = (0,) if quick else (0, 1)
    base, defect = _unitary_invariance_defect(asm, seeds)
    _ok(defect < WITNESS_TOL, f"unitary invariance defect {defect}")
    w_pad = solve_steering_weight(np.kron(asm, np.eye(2) / 2)).steerable_weight
    _ok(abs(w_pad - base) < WITNESS_TOL,
        f"ancilla invariance {w_pad} vs {base}")
    return "conjugation and ancilla transport"


def _depolarized(members: np.ndarray, eta: float) -> np.ndarray:
    """eta sigma_{a|x} + (1 - eta) tr(sigma_{a|x}) I / 2 on a qubit."""
    traces = np.trace(members, axis1=2, axis2=3)[..., None, None]
    return eta * members + (1 - eta) * traces * np.eye(2) / 2


def check_mixing_convexity(quick: bool) -> str:
    ms = MeasurementSet.pauli()
    asm = temporal_assemblage(build_choi(np.eye(2)), ms)
    base = solve_steering_weight(asm).steerable_weight
    prev = base + 1e-9
    for eta in (0.8, 0.5, 0.2):
        w = solve_steering_weight(_depolarized(asm, eta)).steerable_weight
        _ok(w <= eta * base + WITNESS_TOL, f"convexity at eta={eta}")
        _ok(w <= prev + WITNESS_TOL, f"monotonicity at eta={eta}")
        prev = w
    return "TSW(eta) <= eta TSW(1), nonincreasing"


def check_dual_certificates(quick: bool) -> str:
    ms = MeasurementSet.pauli()
    mixed = _depolarized(temporal_assemblage(build_choi(np.eye(2)), ms), 0.75)
    sol = solve_steering_weight(mixed)
    _ok(verify_certificate(mixed, sol), "noisy qubit certificate")
    asm_c = temporal_assemblage(build_choi(clifford_scrambler_unitary()), ms,
                                ("q2", "q3"))
    sol_c = solve_steering_weight(asm_c)
    _ok(verify_certificate(asm_c, sol_c), "scrambler-region certificate")
    return "independent dual recheck on two instances"


def _reprove_zero(members: np.ndarray, sol, where: str) -> Tuple[float, float]:
    """Re-prove an exact-zero exit by the routes it skips: the status
    ``Optimal`` after 0 iterations with mu* exactly 1, the eigvalsh floor
    of the model, its equality residual summed strategy by strategy, and
    the I/n_settings certificate.  Returns the floor and the residual."""
    _ok(sol.status == "Optimal" and sol.iterations == 0
        and sol.mu_star == 1.0 and sol.steerable_weight == 0.0,
        f"{where}: {sol.status} after {sol.iterations} iterations with "
        f"mu* {sol.mu_star!r}, not an exact zero")
    psd = float(np.linalg.eigvalsh(sol.hidden_states)[:, 0].min())
    _ok(psd >= 0.0, f"{where}: hidden state eigenvalue {psd}")
    strategies = enumerate_strategies(*members.shape[:2])
    resid = max(
        float(np.abs(sum(h for h, s in zip(sol.hidden_states, strategies)
                         if s.selects(a, x)) - m).max())
        for x, row in enumerate(members) for a, m in enumerate(row))
    _ok(resid <= 1e-12, f"{where}: equality residual {resid}")
    _ok(verify_certificate(members, sol), f"{where}: certificate")
    return psd, resid


def check_exact_zero_exit(quick: bool) -> str:
    prop = Propagator(build_ising(5, 1.0, 0.5).matrix())
    asm = temporal_assemblage(build_choi(prop.unitary(20.0)),
                              MeasurementSet.pauli(), ("q3", "q4", "q5"))
    sol = solve_steering_weight(asm)
    weight = sol.steerable_weight
    _, resid = _reprove_zero(asm, sol, f"d={asm.shape[-1]}")
    res = first_order_steering_weight(asm, tol=1e-8)
    _ok(res.converged and abs(res.weight - weight) <= 1e-6,
        f"first-order {res.weight} vs exit {weight}")
    # region D of Ising n=7 with C = {q1}: d=64 is past the Schur cap, and
    # only the exit's long search settles it
    prop = Propagator(build_ising(7, 1.0, 0.5).matrix())
    big = temporal_assemblage(build_choi(prop.unitary(4.0)),
                              MeasurementSet.pauli(),
                              tuple(f"q{i}" for i in range(2, 8)))
    big_psd, big_resid = _reprove_zero(big, solve_steering_weight(big), "d=64")
    return (f"d={asm.shape[-1]} weight {weight:.1e}, residual {resid:.1e}, "
            f"first-order {res.weight:.1e}; d=64 past the Schur cap: "
            f"eigenvalue {big_psd:.1e}, residual {big_resid:.1e}")


def check_cholesky_zero_proofs(quick: bool) -> str:
    # grid points of the n = 5 Ising scan where both regions' least-norm
    # models are positive definite, so the exit proves them by Cholesky
    # alone; here eigvalsh, the strategy sums and the certificate re-prove
    prop = Propagator(build_ising(5, 1.0, 0.5).matrix())
    times = (4.0, 10.0, 40.0) if quick else (4.0, 5.0, 10.0, 12.0, 40.0)
    worst_psd, worst_resid = np.inf, 0.0
    for t in times:
        choi = build_choi(prop.unitary(t))
        for region in (("q1", "q2"), ("q3", "q4", "q5")):
            asm = temporal_assemblage(choi, MeasurementSet.pauli(), region)
            psd, resid = _reprove_zero(asm, solve_steering_weight(asm),
                                       f"t={t} {'/'.join(region)}")
            worst_psd = min(worst_psd, psd)
            worst_resid = max(worst_resid, resid)
    return (f"{2 * len(times)} regions: smallest eigenvalue "
            f"{worst_psd:.1e}, residual {worst_resid:.1e}")


def check_first_order_agreement(quick: bool) -> str:
    ms = MeasurementSet.pauli()
    mixed = _depolarized(temporal_assemblage(build_choi(np.eye(2)), ms), 0.8)
    w_ipm = solve_steering_weight(mixed).steerable_weight
    res = first_order_steering_weight(mixed, tol=1e-10,
                                      max_iter=40000 if quick else 200000)
    _ok(res.converged, "splitting method did not converge")
    _ok(abs(res.weight - w_ipm) < WITNESS_TOL,
        f"first-order {res.weight} vs interior-point {w_ipm}")
    return f"|{res.weight:.8f} - {w_ipm:.8f}| < {WITNESS_TOL}"


def check_determinism(quick: bool) -> str:
    rng = _rng(24)
    asm = temporal_assemblage(build_choi(haar_random_unitary(8, rng)),
                              MeasurementSet.pauli(), ("q1", "q2"))
    w1 = solve_steering_weight(asm).steerable_weight
    w2 = solve_steering_weight(asm).steerable_weight
    _ok(w1 == w2, f"repeat solve drifted: {w1} vs {w2}")
    return "bitwise repeatable solve"


def check_scaling_envelope(quick: bool) -> str:
    """Solve one full-rank steerable instance of member dimension
    ``SCALING_DIM`` by the interior-point method within
    ``SCALING_BUDGET_S``.

    There is no quick form: the d = 8 draw of this seed is unsteerable
    (as are 10 of seeds 20-35), so the exact-zero exit settles it before
    the interior-point method.
    """
    dim = SCALING_DIM
    n = dim.bit_length()           # dim = 2^(n-1) region of an n-qubit system
    rng = _rng(25)
    region = tuple(f"q{i}" for i in range(1, n))
    reduced = temporal_assemblage(build_choi(haar_random_unitary(2 ** n, rng)),
                                  MeasurementSet.pauli(), region)
    start = time.perf_counter()
    sol = solve_steering_weight(reduced)
    elapsed = time.perf_counter() - start
    _ok(sol.status == "Optimal", f"d={dim} solve ended {sol.status}")
    _ok(sol.iterations > 0, f"d={dim} solve ran no interior-point iteration")
    _ok(elapsed <= SCALING_BUDGET_S, f"d={dim} solve took {elapsed:.1f}s "
        f"(budget {SCALING_BUDGET_S:.0f}s)")
    return f"d={dim} weight {sol.steerable_weight:.6f} in {elapsed:.1f}s"


# ------------------------------------------------------------ registry ----

CHECKS: List[Tuple[str, Callable[[bool], str]]] = [
    ("choi consistency", check_choi_consistency),
    ("tripartite mutual information", check_tmi_values),
    ("pdm dual routes", check_pdm_routes),
    ("assemblage sanity", check_assemblage_sanity),
    ("steerable-weight anchors", check_tsw_anchors),
    ("witness gates", check_witness_gates),
    ("steerable-weight invariance", check_tsw_invariance),
    ("mixing convexity", check_mixing_convexity),
    ("dual certificates", check_dual_certificates),
    ("exact zero exit", check_exact_zero_exit),
    ("cholesky zero proofs", check_cholesky_zero_proofs),
    ("first-order agreement", check_first_order_agreement),
    ("determinism", check_determinism),
    ("scaling envelope", check_scaling_envelope),
]


def environment_line() -> str:
    """Core count and BLAS thread variables of this process."""
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"environment: cpu_count={os.cpu_count()} {threads}"


def run_checks(quick: bool = False,
               names: Optional[List[str]] = None) -> bool:
    """Run the invariant suite; returns True when every check passes.

    ``names`` keeps the checks whose names contain one of its terms, and
    a term that matches no check raises ``ValueError``.  The first line
    printed states the environment the timings depend on.
    """
    unmatched = [s for s in names or () if not any(s in n for n, _ in CHECKS)]
    selected = [(n, f) for n, f in CHECKS
                if names is None or any(s in n for s in names)]
    if unmatched or not selected:
        raise ValueError(f"no checks match {unmatched or names}")
    print(environment_line())
    n_fail = 0
    for name, fn in selected:
        start = time.perf_counter()
        try:
            detail = fn(quick)
            status = "PASS"
        except CheckFailure as exc:
            detail = str(exc)
            status = "FAIL"
            n_fail += 1
        except Exception as exc:   # a crashed check is a failed check
            detail = f"{type(exc).__name__}: {exc}"
            status = "FAIL"
            n_fail += 1
        dt = time.perf_counter() - start
        print(f"[{status}] {name} ({dt:.2f}s): {detail}")
    total = len(selected)
    print(f"{total - n_fail}/{total} checks passed"
            + (f", {n_fail} FAILED" if n_fail else ""))
    return n_fail == 0
