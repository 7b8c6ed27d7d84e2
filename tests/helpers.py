"""Small constructions shared by the test modules."""

import numpy as np
from scipy.linalg import solve_triangular

from qscramble.channels import (PartitionSpec, build_choi,
                                tripartite_mutual_information)
from qscramble.experiments import (ExperimentConfig, ScanRow,
                                   ScramblingReport, model_propagator)
from qscramble.models import pauli_matrix
from qscramble.sdp.strategies import enumerate_strategies

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def tmi_report(config: ExperimentConfig) -> ScramblingReport:
    """Mutual-information columns only, no SDP; enough for the I3 backflow."""
    prop = model_propagator(config)
    part = PartitionSpec.leading(config.n, config.resolved_n_c())
    times = np.linspace(config.t_start, config.resolved_t_max(), config.points)
    nan = float("nan")
    rows = []
    for t in times:
        tmi = tripartite_mutual_information(build_choi(prop.unitary(float(t))),
                                            part)
        rows.append(ScanRow(float(t), tmi.minus_i3, nan, tmi.i_ac, tmi.i_ad,
                            nan, nan, nan, "tmi-only"))
    return ScramblingReport(config, rows)


def bloch_assemblage(rho, axes):
    """Members tr_A[(E_{a|x} (x) 1) rho] for projective spin measurements.

    ``rho`` is a two-qubit state, ``axes`` a list of Bloch vectors; outcome
    a = 0, 1 corresponds to the +/- eigenspace along the axis.
    """
    members = []
    for v in axes:
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v)
        op = v[0] * PX + v[1] * PY + v[2] * PZ
        row = []
        for sign in (+1.0, -1.0):
            big = np.kron((I2 + sign * op) / 2.0, I2)
            t = (big @ rho).reshape(2, 2, 2, 2)
            row.append(np.trace(t, axis1=0, axis2=2))
        members.append(row)
    return members


def isotropic_assemblage(eta, axes):
    """sigma_{a|x} = (I/2 + (-1)^a eta P_x / 2) / 2 along Pauli axes.

    Steering a Bell pair through white noise of visibility ``eta``; the
    steerable weight is max(0, (sqrt(m) eta - 1) / (sqrt(m) - 1)) for m
    mutually unbiased axes.
    """
    return [[(I2 / 2 + s * eta * P / 2) / 2 for s in (+1.0, -1.0)]
            for P in axes]


def random_steerable_state(rng, vis_lo=0.7, vis_hi=0.95):
    """Random pure two-qubit state mixed lightly with white noise."""
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    vis = rng.uniform(vis_lo, vis_hi)
    return vis * np.outer(psi, psi.conj()) + (1 - vis) * np.eye(4) / 4


def random_axes(rng, n_axes=3):
    axes = rng.normal(size=(n_axes, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def max_step(l_factor, delta):
    """Largest alpha with X + alpha * delta still PSD, X = L L^dag.

    Per-block reference for the interior-point solver's batched step
    length: two triangular solves and one Hermitian eigensolve.
    """
    t = solve_triangular(l_factor, delta, lower=True, check_finite=False)
    s = solve_triangular(l_factor, t.conj().T, lower=True, check_finite=False)
    lam = np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0]
    if lam >= 0.0:
        return np.inf
    return -1.0 / lam


def choi_sandwich(unitary):
    """Choi marginal on ``r1 q1..qN`` as (1 x U) rho0 (1 x U)^dag.

    Dense reference for ``ChoiState.marginal``: rho0 is a Bell pair on
    r1 q1 times the maximally mixed state of q2..qN.
    """
    dim = unitary.shape[0]
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    rho0 = np.kron(bell, np.eye(dim // 2) / (dim // 2))
    big_u = np.kron(I2, unitary)
    return big_u @ rho0 @ big_u.conj().T


def evolve_sandwich(unitary, effects):
    """Members U (E x 1) U^dag / 2^N with E on q1, on the full register.

    Dense reference for ``temporal_assemblage``, one product per effect;
    ``effects`` is a (settings, outcomes, 2, 2) array and so is the result.
    """
    dim = unitary.shape[0]
    rest = np.eye(dim // 2) / dim
    return np.array([[unitary @ np.kron(effect, rest) @ unitary.conj().T
                      for effect in row] for row in effects])


def mixed_rank_assemblage(eta=0.2):
    """Qutrit assemblage whose facial reduction leaves blocks of sizes 1-3.

    Setting 0 splits I/3 into a rank-2 and a rank-1 member; settings 1
    and 2 are noisy splits along traceless Hermitian directions, PSD only
    for eta <= 1/(3 sqrt 2) and full rank below it.  No strategy is
    eliminated, so strategy blocks have sizes 2 and 1 and slack blocks
    sizes 2, 1 and 3.
    """
    def offdiag(i, j, phase):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = phase
        m[j, i] = np.conj(phase)
        return m

    third = np.eye(3, dtype=complex) / 3
    members = [[np.diag([1.0, 1.0, 0.0]).astype(complex) / 3,
                np.diag([0.0, 0.0, 1.0]).astype(complex) / 3]]
    for h in (offdiag(0, 1, 1.0) + offdiag(0, 2, -1j),
              offdiag(1, 2, 1.0) + offdiag(0, 1, -1j)):
        members.append([(third + eta * h) / 2, (third - eta * h) / 2])
    return members


def equality_residual(members, hidden):
    """Largest entry of sum_{lam selects (a|x)} sigma_lam - sigma_{a|x},
    summed strategy by strategy."""
    strategies = enumerate_strategies(len(members), len(members[0]))
    return max(float(np.abs(sum(h for h, s in zip(hidden, strategies)
                                if s.selects(a, x)) - m).max())
               for x, row in enumerate(members) for a, m in enumerate(row))


def random_density_matrix(dim, rng):
    """Full-rank random density matrix (Wishart / Hilbert-Schmidt style)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def swap_network(n, pairs):
    """One layer of disjoint qubit swaps as a permutation unitary.

    ``pairs`` lists 1-based qubit index pairs to exchange; they must be
    disjoint (a single network layer).  Deeper rearrangements are built by
    multiplying layers.
    """
    seen = set()
    for a, b in pairs:
        if a == b or not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"invalid swap pair ({a}, {b})")
        if a in seen or b in seen:
            raise ValueError("swap pairs overlap; split into layers")
        seen.update((a, b))
    dim = 1 << n
    src = np.arange(dim)
    dst = src.copy()
    for a, b in pairs:
        ba, bb = n - a, n - b  # bit positions (qubit 1 = msb)
        flip = ((src >> ba) ^ (src >> bb)) & 1
        dst = dst ^ (flip << ba) ^ (flip << bb)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[dst, src] = 1.0
    return mat


def random_clifford(n, rng):
    """Random Clifford circuit of 4n gates drawn from {H, S, CNOT}.

    Gates are ``("H", q)``, ``("S", q)`` or ``("CNOT", control, target)``
    with 0-based qubit indices, qubit 0 being q1; the first gate acts
    first.  Pass the list to :func:`clifford_unitary` for its matrix.
    """
    gates = []
    for _ in range(4 * n):
        kind = ("H", "S", "CNOT")[rng.integers(3)]
        qubits = rng.choice(n, 2 if kind == "CNOT" else 1, replace=False)
        gates.append((kind, *(int(q) for q in qubits)))
    return gates


def _pauli_on(n, letters):
    """Dense n-qubit Pauli string with ``letters`` {qubit index: letter}."""
    return pauli_matrix("".join(letters.get(q, "I") for q in range(n)))


def clifford_unitary(n, gates):
    """Dense unitary of a :func:`random_clifford` gate list, n <= 8."""
    u = np.eye(1 << n, dtype=complex)
    for kind, *q in gates:
        if kind == "H":
            g = (_pauli_on(n, {q[0]: "X"}) + _pauli_on(n, {q[0]: "Z"})) \
                / np.sqrt(2)
        elif kind == "S":  # diag(1, i) = ((1 + i) I + (1 - i) Z) / 2
            g = ((1 + 1j) * np.eye(1 << n)
                 + (1 - 1j) * _pauli_on(n, {q[0]: "Z"})) / 2
        else:  # |0><0| x I + |1><1| x X = (I + Z_c + X_t - Z_c X_t) / 2
            c, t = q
            g = (np.eye(1 << n) + _pauli_on(n, {c: "Z"})
                 + _pauli_on(n, {t: "X"}) - _pauli_on(n, {c: "Z", t: "X"})) / 2
        u = g @ u
    return u


def surviving_q1_paulis(n, gates, region):
    """How many of X1, Y1, Z1 the circuit maps into Pauli strings acting
    only on ``region`` (labels such as "q3"), so that they survive the
    partial trace onto it: 0, 1 or 3.

    Pauli propagation on (x, z) bit vectors, signs dropped, with no 2^n
    matrix: H swaps x and z, S adds x to z, CNOT(c, t) adds x_c to x_t and
    z_t to z_c.  The image of Y1 is the product of those of X1 and Z1.
    """
    images = []
    for x0, z0 in ((True, False), (False, True)):
        x, z = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        x[0], z[0] = x0, z0
        for kind, *q in gates:
            if kind == "H":
                x[q[0]], z[q[0]] = z[q[0]], x[q[0]]
            elif kind == "S":
                z[q[0]] ^= x[q[0]]
            else:
                c, t = q
                x[t] ^= x[c]
                z[c] ^= z[t]
        images.append((x, z))
    (xx, zx), (xz, zz) = images
    outside = np.ones(n, dtype=bool)
    outside[[int(label[1:]) - 1 for label in region]] = False
    return sum(not ((x | z) & outside).any()
               for x, z in ((xx, zx), (xx ^ xz, zx ^ zz), (xz, zz)))
