"""Self-contained invariant suite for every layer of the package.

Each check recomputes an expected value through an independent route
(index sums, closed forms, Monte Carlo moments, dual certificates) and
compares against the production code path.  ``run_checks(quick=True)``
trims sample counts and problem sizes for use inside test runs; the full
suite, including the d = 16 solver scaling envelope, is what the CLI
``verify`` subcommand executes.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import qla, models, channels
from .qla import (DensityMatrix, QubitRegister, kron, partial_trace,
                  partial_transpose, hermitian_eig, Propagator,
                  von_neumann_entropy, mutual_information,
                  random_density_matrix)
from .models import (PauliString, pauli_matrix, build_ising, build_syk,
                     jordan_wigner_majorana, clifford_scrambler_unitary,
                     clifford_scan_unitary, haar_random_unitary,
                     random_local_unitary)
from .channels import (PartitionSpec, build_choi, build_pdm,
                       tripartite_mutual_information, assemblage_from_pdm)
from .steering import (MeasurementSet, temporal_assemblage,
                       total_steerable_weight, minus_t3,
                       tsw_unitary_invariance_check)
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


# ---------------------------------------------------------------- qla ----

def check_kron_oracle(quick: bool) -> str:
    rng = _rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ab = kron(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    _ok(abs(ab[i * 3 + k, j * 3 + l] - a[i, j] * b[k, l])
                        < 1e-13, "kron entry mismatch")
    lhs = kron(a, b, c)
    rhs = kron(kron(a, b), c)
    _ok(np.allclose(lhs, rhs, atol=1e-12), "kron associativity")
    return "entry formula and associativity"


def check_partial_trace_oracle(quick: bool) -> str:
    rng = _rng(12)
    reg = QubitRegister(("a", "b", "c"))
    rho = random_density_matrix(8, rng)
    dm = DensityMatrix(rho, reg)
    # trace out b by explicit index sums
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for m in range(2):
                    expect[2 * i + k, 2 * j + m] += sum(
                        t[i, b, k, j, b, m] for b in range(2))
    got = partial_trace(dm, ("a", "c"))
    _ok(np.allclose(got.matrix, expect, atol=1e-12), "partial trace oracle")
    _ok(abs(np.trace(got.matrix) - 1.0) < 1e-12, "trace not preserved")
    _ok(got.register.labels == ("a", "c"), "kept-label order")
    single = partial_trace(dm, ("b",)).matrix
    _ok(abs(np.trace(single) - 1.0) < 1e-12
        and np.linalg.eigvalsh(single).min() > -1e-12,
        "single-qubit reduction not a state")
    return "explicit index-sum agreement"


def check_partial_transpose(quick: bool) -> str:
    rng = _rng(13)
    reg = QubitRegister(("a", "b"))
    rho = random_density_matrix(4, rng)
    dm = DensityMatrix(rho, reg)
    twice = partial_transpose(partial_transpose(dm, ("b",)), ("b",))
    _ok(np.allclose(twice.matrix, rho, atol=1e-13), "PT not an involution")
    ra = random_density_matrix(2, rng)
    rb = random_density_matrix(2, rng)
    prod = DensityMatrix(kron(ra, rb), reg)
    pt = partial_transpose(prod, ("b",))
    _ok(np.allclose(pt.matrix, kron(ra, rb.T), atol=1e-13),
        "PT on product state")
    return "involution and product rule"


def check_hermitian_eig(quick: bool) -> str:
    dim = 32 if quick else 96
    rng = _rng(14)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2
    vals, vecs = hermitian_eig(m)
    recon = (vecs * vals) @ vecs.conj().T
    _ok(np.linalg.norm(recon - m) < 1e-10 * dim, "eig reconstruction")
    _ok(np.all(np.diff(vals) >= -1e-12), "eigenvalues not ascending")
    try:
        hermitian_eig(m + 1e-3 * 1j * np.eye(dim))
    except ValueError:
        pass
    else:
        raise CheckFailure("non-Hermitian input not rejected")
    return f"d={dim} reconstruction 1e-10"


def check_propagator(quick: bool) -> str:
    h = build_ising(3, 1.0, 0.5).matrix()
    prop = Propagator(h)
    u = prop.unitary(1.7)
    _ok(np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12), "unitarity")
    _ok(np.allclose(prop.unitary(0.4) @ prop.unitary(1.3), u, atol=1e-12),
        "composition")
    z = pauli_matrix("Z")
    u1 = Propagator(z).unitary(0.9)
    _ok(np.allclose(u1, np.diag([np.exp(-0.9j), np.exp(0.9j)]), atol=1e-13),
        "closed form exp(-iZt)")
    return "unitarity, composition, closed form"


def check_entropy_mi(quick: bool) -> str:
    reg = QubitRegister(("a", "b"))
    bell = DensityMatrix.pure(np.array([1, 0, 0, 1]) / np.sqrt(2), reg)
    _ok(abs(von_neumann_entropy(partial_trace(bell, ("a",))) - 1.0) < 1e-12,
        "Bell marginal entropy")
    _ok(abs(von_neumann_entropy(bell)) < 1e-12, "pure state entropy")
    _ok(abs(mutual_information(bell, ("a",), ("b",)) - 2.0) < 1e-12,
        "Bell mutual information")
    classical = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex), reg)
    _ok(abs(mutual_information(classical, ("a",), ("b",)) - 1.0) < 1e-12,
        "classical correlation")
    rng = _rng(15)
    prod = DensityMatrix(kron(random_density_matrix(2, rng),
                              random_density_matrix(2, rng)), reg)
    _ok(abs(mutual_information(prod, ("a",), ("b",))) < 1e-10,
        "product state MI")
    return "Bell (1,0,2), classical 1 bit, product 0"


# ------------------------------------------------------------- models ----

def check_pauli_algebra(quick: bool) -> str:
    rng = _rng(16)
    labels = models.pauli_basis_labels(3)
    for _ in range(10 if quick else 30):
        la = labels[rng.integers(len(labels))]
        lb = labels[rng.integers(len(labels))]
        pa, pb = PauliString.from_label(la), PauliString.from_label(lb)
        prod = pa * pb
        _ok(np.allclose(prod.dense(), pa.dense() @ pb.dense(), atol=1e-13),
            f"product {la} * {lb}")
        comm = pa.dense() @ pb.dense() - pb.dense() @ pa.dense()
        _ok(pa.commutes_with(pb) == (np.linalg.norm(comm) < 1e-12),
            f"commutation {la}, {lb}")
    return "dense product and commutator agreement"


def check_ising_matrix(quick: bool) -> str:
    g, h = 0.7, 0.3
    x, z = pauli_matrix("X"), pauli_matrix("Z")
    eye = np.eye(2)
    expect = (-kron(z, z) - h * (kron(z, eye) + kron(eye, z))
              - g * (kron(x, eye) + kron(eye, x)))
    got = build_ising(2, g, h).matrix()
    _ok(np.allclose(got, expect, atol=1e-13), "n=2 matrix mismatch")
    h7 = build_ising(5, 1.0, 0.5).matrix()
    _ok(np.allclose(h7, h7.conj().T, atol=1e-12), "hermiticity")
    return "explicit n=2 sum, hermitian n=5"


def check_jordan_wigner(quick: bool) -> str:
    n = 2 if quick else 3
    chis = [jordan_wigner_majorana(i, n).dense()
            for i in range(1, 2 * n + 1)]
    eye = np.eye(2 ** n)
    for i, ci in enumerate(chis):
        for j, cj in enumerate(chis):
            anti = ci @ cj + cj @ ci
            expect = eye if i == j else 0 * eye
            _ok(np.allclose(anti, expect, atol=1e-12),
                f"anticommutator ({i + 1},{j + 1})")
    return f"all {2 * n} modes, {{chi_i, chi_j}} = delta_ij"


def check_syk_moments(quick: bool) -> str:
    h1 = build_syk(3, 1.0, seed=7).matrix()
    h2 = build_syk(3, 1.0, seed=7).matrix()
    _ok(np.array_equal(h1, h2), "seeded build not deterministic")
    _ok(np.allclose(h1, h1.conj().T, atol=1e-12), "hermiticity")
    # E[tr H^2 / dim] = C(N,4) var / 16 = N J^2 / 64 with chi^2 = 1/2
    n_seeds = 80 if quick else 400
    vals = [np.trace(build_syk(3, 1.0, seed=s).matrix()
                     @ build_syk(3, 1.0, seed=s).matrix()).real / 8
            for s in range(n_seeds)]
    expect = 6 * 1.0 / 64
    got = float(np.mean(vals))
    tol = (0.25 if quick else 0.12) * expect
    _ok(abs(got - expect) < tol,
        f"tr H^2/dim Monte Carlo {got:.4f} vs {expect:.4f}")
    return f"coupling variance via tr H^2 ({n_seeds} seeds)"


def check_scrambler_table(quick: bool) -> str:
    u = clifford_scrambler_unitary()
    _ok(np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12), "unitarity")
    table = {
        "XII": ("XYY", -1), "YII": ("YZZ", -1), "ZII": ("ZXX", -1),
        "IXI": ("YXY", -1), "IYI": ("ZYZ", -1), "IZI": ("XZX", -1),
        "IIX": ("YYX", -1), "IIY": ("ZZY", -1), "IIZ": ("XXZ", -1),
    }
    for src, (dst, sign) in table.items():
        got = u @ pauli_matrix(src) @ u.conj().T
        _ok(np.allclose(got, sign * pauli_matrix(dst), atol=1e-12),
            f"{src} -> {sign:+d} {dst}")
    return "9 single-site conjugations, all weight 3"


def check_scan_circuit(quick: bool) -> str:
    _ok(np.allclose(clifford_scan_unitary(0.0), np.eye(8), atol=1e-12),
        "U(0) != 1")
    th = 0.37
    lhs = clifford_scan_unitary(th + np.pi)
    rhs = -1j * pauli_matrix("ZZZ") @ clifford_scan_unitary(th)
    _ok(np.allclose(lhs, rhs, atol=1e-10), "pi shift identity")
    part = PartitionSpec.leading(3, 1)
    tmi = tripartite_mutual_information(
        build_choi(clifford_scan_unitary(np.pi / 2)), part)
    _ok(abs(tmi.minus_i3 - 2.0) < 1e-9, "-I3 at theta=pi/2 not maximal")
    return "identity at 0, period pi, maximal at pi/2"


def check_haar_moment(quick: bool) -> str:
    n_samp = 400 if quick else 3000
    rng = _rng(17)
    vals = [abs(np.trace(haar_random_unitary(8, rng))) ** 2
            for _ in range(n_samp)]
    got = float(np.mean(vals))
    tol = 4.0 / np.sqrt(n_samp)
    _ok(abs(got - 1.0) < tol, f"E|tr U|^2 = {got:.3f}, want 1 +- {tol:.3f}")
    return f"E|tr U|^2 = {got:.3f} over {n_samp} draws"


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
    w_rest = sol.steerable_weight
    _ok(w_rest <= 1e-12 and sol.iterations == 0,
        f"untouched region TSW {w_rest} after {sol.iterations} iterations")
    _ok(total_steerable_weight(ms) == 1.0, "TSW total != 1 exactly")
    return "t=0 anchors: 1 exact, 0 within 1e-12, total 1 exact"


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


def check_tsw_invariance(quick: bool) -> str:
    rng = _rng(23)
    asm = temporal_assemblage(build_choi(haar_random_unitary(4, rng)),
                              MeasurementSet.pauli(), ("q1",))
    seeds = (0,) if quick else (0, 1)
    defect = tsw_unitary_invariance_check(asm, seeds=seeds)
    _ok(defect < WITNESS_TOL, f"unitary invariance defect {defect}")
    base = solve_steering_weight(asm).steerable_weight
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


def check_exact_zero_exit(quick: bool) -> str:
    prop = Propagator(build_ising(5, 1.0, 0.5).matrix())
    asm = temporal_assemblage(build_choi(prop.unitary(20.0)),
                              MeasurementSet.pauli(), ("q3", "q4", "q5"))
    sol = solve_steering_weight(asm)
    weight = sol.steerable_weight
    _ok(sol.status == "Optimal" and sol.iterations == 0,
        f"{sol.status} after {sol.iterations} iterations, not the exit")
    _ok(verify_certificate(asm, sol), "I/n_settings certificate")
    worst_psd = min(float(np.linalg.eigvalsh(h)[0]) for h in sol.hidden_states)
    _ok(worst_psd >= 0.0, f"hidden state eigenvalue {worst_psd}")
    resid = _model_residual(asm, sol.hidden_states)
    _ok(resid <= 1e-12, f"equality residual {resid}")
    res = first_order_steering_weight(asm, tol=1e-8)
    _ok(res.converged and abs(res.weight - weight) <= 1e-6,
        f"first-order {res.weight} vs exit {weight}")
    # region D of Ising n=7 with C = {q1}: d=64 is past the Schur cap, and
    # only the exit's long search settles it
    prop = Propagator(build_ising(7, 1.0, 0.5).matrix())
    big = temporal_assemblage(build_choi(prop.unitary(4.0)),
                              MeasurementSet.pauli(),
                              tuple(f"q{i}" for i in range(2, 8)))
    sol = solve_steering_weight(big)
    _ok(sol.status == "Optimal" and sol.iterations == 0
        and sol.steerable_weight <= 1e-12,
        f"d=64: {sol.status} weight {sol.steerable_weight}")
    big_psd = float(np.linalg.eigvalsh(sol.hidden_states)[:, 0].min())
    _ok(big_psd >= 0.0, f"d=64: hidden state eigenvalue {big_psd}")
    big_resid = _model_residual(big, sol.hidden_states)
    _ok(big_resid <= 1e-12, f"d=64: equality residual {big_resid}")
    _ok(verify_certificate(big, sol), "d=64: I/n_settings certificate")
    return (f"d={asm.shape[-1]} weight {weight:.1e}, residual {resid:.1e}, "
            f"first-order {res.weight:.1e}; d=64 past the Schur cap: "
            f"eigenvalue {big_psd:.1e}, residual {big_resid:.1e}")


def _model_residual(members: np.ndarray, hidden: np.ndarray) -> float:
    """Largest entry of sum_{lam selects (a|x)} sigma_lam - sigma_{a|x},
    summed strategy by strategy."""
    strategies = enumerate_strategies(*members.shape[:2])
    return max(
        float(np.abs(sum(h for h, s in zip(hidden, strategies)
                         if s.selects(a, x)) - m).max())
        for x, row in enumerate(members) for a, m in enumerate(row))


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
            sol = solve_steering_weight(asm)
            where = f"t={t} {'/'.join(region)}"
            _ok(sol.status == "Optimal" and sol.iterations == 0,
                f"{where}: {sol.status} after {sol.iterations} iterations")
            psd = float(np.linalg.eigvalsh(sol.hidden_states)[:, 0].min())
            _ok(psd >= 0.0, f"{where}: hidden state eigenvalue {psd}")
            resid = _model_residual(asm, sol.hidden_states)
            _ok(resid <= 1e-12, f"{where}: equality residual {resid}")
            _ok(verify_certificate(asm, sol), f"{where}: certificate")
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


def check_strategies(quick: bool) -> str:
    strategies = enumerate_strategies(3, 2)
    _ok(len(strategies) == 8, "strategy count")
    _ok(strategies[5].outcomes == (1, 0, 1), "MSB-first ordering")
    sel = strategies[5].selects(0, 1)
    _ok(sel == 1.0, "deterministic response")
    return "2^3 enumeration, index 5 -> (1,0,1)"


def check_determinism(quick: bool) -> str:
    rng = _rng(24)
    asm = temporal_assemblage(build_choi(haar_random_unitary(8, rng)),
                              MeasurementSet.pauli(), ("q1", "q2"))
    w1 = solve_steering_weight(asm).steerable_weight
    w2 = solve_steering_weight(asm).steerable_weight
    _ok(w1 == w2, f"repeat solve drifted: {w1} vs {w2}")
    return "bitwise repeatable solve"


def scaling_check(dim: int = SCALING_DIM,
                  budget_s: float = SCALING_BUDGET_S) -> Tuple[float, float]:
    """Solve one full-rank steering instance of member dimension ``dim``.

    Returns (weight, seconds).  Raises on timeout or solver failure.
    """
    n = dim.bit_length()           # dim = 2^(n-1) region of an n-qubit system
    rng = _rng(25)
    region = tuple(f"q{i}" for i in range(1, n))
    reduced = temporal_assemblage(build_choi(haar_random_unitary(2 ** n, rng)),
                                  MeasurementSet.pauli(), region)
    start = time.perf_counter()
    sol = solve_steering_weight(reduced)
    elapsed = time.perf_counter() - start
    if sol.status != "Optimal":
        raise CheckFailure(f"d={dim} solve ended {sol.status}")
    if sol.iterations == 0:
        raise CheckFailure(f"d={dim} solve ran no interior-point iteration")
    if elapsed > budget_s:
        raise CheckFailure(f"d={dim} solve took {elapsed:.1f}s "
                           f"(budget {budget_s:.0f}s)")
    return sol.steerable_weight, elapsed


def check_scaling_envelope(quick: bool) -> str:
    dim = 8 if quick else SCALING_DIM
    weight, elapsed = scaling_check(dim)
    return f"d={dim} weight {weight:.6f} in {elapsed:.1f}s"


# ------------------------------------------------------------ registry ----

CHECKS: List[Tuple[str, Callable[[bool], str]]] = [
    ("kron index formula", check_kron_oracle),
    ("partial trace oracle", check_partial_trace_oracle),
    ("partial transpose", check_partial_transpose),
    ("hermitian eigensolve", check_hermitian_eig),
    ("propagator", check_propagator),
    ("entropy and mutual information", check_entropy_mi),
    ("pauli string algebra", check_pauli_algebra),
    ("ising matrix", check_ising_matrix),
    ("jordan-wigner anticommutators", check_jordan_wigner),
    ("syk coupling moments", check_syk_moments),
    ("scrambler conjugation table", check_scrambler_table),
    ("scan circuit", check_scan_circuit),
    ("haar moment", check_haar_moment),
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
    ("strategy enumeration", check_strategies),
    ("determinism", check_determinism),
    ("scaling envelope", check_scaling_envelope),
]


def environment_line() -> str:
    """Core count and BLAS thread variables of this process."""
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"environment: cpu_count={os.cpu_count()} {threads}"


def run_checks(quick: bool = False, names: Optional[List[str]] = None,
               printer: Callable[[str], None] = print) -> bool:
    """Run the invariant suite; returns True when every check passes.

    The first line printed states the environment the timings depend on.
    """
    selected = [(n, f) for n, f in CHECKS
                if names is None or any(s in n for s in names)]
    if not selected:
        raise ValueError(f"no checks match {names}")
    printer(environment_line())
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
        printer(f"[{status}] {name} ({dt:.2f}s): {detail}")
    total = len(selected)
    printer(f"{total - n_fail}/{total} checks passed"
            + (f", {n_fail} FAILED" if n_fail else ""))
    return n_fail == 0
