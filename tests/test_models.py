import numpy as np
import pytest

from helpers import I2, PX, PY, PZ, swap_network
from qscramble.channels import PartitionSpec
from qscramble.models import (PauliString, build_ising, build_syk,
                              clifford_scan_unitary,
                              clifford_scrambler_unitary, haar_random_unitary,
                              jordan_wigner_majorana, pauli_basis_labels,
                              pauli_matrix, random_local_unitary)

PAULI = {"I": I2, "X": PX, "Y": PY, "Z": PZ}


def dense(label):
    out = np.array([[1.0 + 0j]])
    for letter in label:
        out = np.kron(out, PAULI[letter])
    return out


@pytest.mark.parametrize("label", ["X", "ZZ", "XYZ", "IYI", "ZIXY"])
def test_pauli_matrix_matches_kron(label):
    np.testing.assert_allclose(pauli_matrix(label), dense(label), atol=1e-15)


def test_pauli_basis_labels_complete():
    labels = pauli_basis_labels(2)
    assert len(labels) == 16
    assert len(set(labels)) == 16
    assert all(len(l) == 2 for l in labels)


def test_pauli_string_product_and_matrix(rng):
    p = PauliString.from_label("XZ") * PauliString.from_label("ZX")
    assert p.label == "YY"
    assert p.coeff == pytest.approx(1.0)
    np.testing.assert_allclose(p.dense(), dense("XZ") @ dense("ZX"),
                               atol=1e-15)
    for la, lb in rng.choice(pauli_basis_labels(3), size=(30, 2)):
        prod = PauliString.from_label(la) * PauliString.from_label(lb)
        np.testing.assert_allclose(prod.dense(), dense(la) @ dense(lb),
                                   atol=1e-15)
    np.testing.assert_allclose(
        PauliString.from_label("XZ", 2.0).dense(), 2.0 * dense("XZ"))


def test_build_ising_matches_dense_sum():
    n, g, h = 3, 1.3, 0.4
    ham = build_ising(n, g, h).matrix()
    ref = -(dense("ZZI") + dense("IZZ"))
    ref -= h * (dense("ZII") + dense("IZI") + dense("IIZ"))
    ref -= g * (dense("XII") + dense("IXI") + dense("IIX"))
    np.testing.assert_allclose(ham, ref, atol=1e-14)


def test_build_ising_integrable_has_no_longitudinal_field():
    spec = build_ising(4, 1.0, 0.0)
    assert all(term.xmask == 0 or term.zmask == 0 for term in spec.terms)
    mat = spec.matrix()
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)
    with pytest.raises(ValueError):
        build_ising(1, 1.0, 0.0)


def test_jordan_wigner_anticommutators():
    n = 3
    chis = [jordan_wigner_majorana(i, n).dense()
            for i in range(1, 2 * n + 1)]
    for i, a in enumerate(chis):
        for j, b in enumerate(chis):
            anti = a @ b + b @ a
            want = np.eye(8) if i == j else np.zeros((8, 8))
            np.testing.assert_allclose(anti, want, atol=1e-12)
    with pytest.raises(ValueError):
        jordan_wigner_majorana(7, n)


def test_build_syk_shape_and_symmetries():
    spec = build_syk(3, j_coupling=1.0, seed=5)
    mat = spec.matrix()
    assert mat.shape == (8, 8)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
    # every four-body Majorana monomial is traceless
    assert abs(np.trace(mat)) < 1e-10
    assert len(spec.terms) == 15  # C(6, 4)


def test_build_syk_seed_determinism():
    a = build_syk(3, seed=2).matrix()
    b = build_syk(3, seed=2).matrix()
    c = build_syk(3, seed=3).matrix()
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3


def test_build_syk_coupling_scale():
    # J multiplies every coupling linearly
    a = build_syk(3, j_coupling=1.0, seed=1).matrix()
    b = build_syk(3, j_coupling=2.5, seed=1).matrix()
    np.testing.assert_allclose(b, 2.5 * a, atol=1e-12)
    # and sets their variance: with N = 6 Majoranas and chi^2 = 1/2,
    # E[tr H^2 / dim] = C(N, 4) var / 16 = N J^2 / 64
    mats = [build_syk(3, 1.0, seed=s).matrix() for s in range(400)]
    got = np.mean([np.trace(h @ h).real / 8 for h in mats])
    assert got == pytest.approx(6 / 64, rel=0.12)
    with pytest.raises(ValueError):
        build_syk(1)


def test_haar_random_unitary_is_unitary(rng):
    for d in (2, 4, 8):
        u = haar_random_unitary(d, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_haar_random_unitary_determinism():
    a = haar_random_unitary(4, np.random.default_rng(9))
    b = haar_random_unitary(4, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_haar_first_moment():
    # E|u_ij|^2 = 1/d and E|tr U|^2 = 1 for Haar measure; fixed seed keeps
    # this deterministic
    rng = np.random.default_rng(77)
    acc = np.zeros((3, 3))
    tr_sq = 0.0
    n_draws = 600
    for _ in range(n_draws):
        u = haar_random_unitary(3, rng)
        acc += np.abs(u) ** 2
        tr_sq += abs(np.trace(u)) ** 2
    np.testing.assert_allclose(acc / n_draws, np.full((3, 3), 1 / 3),
                               atol=0.05)
    assert tr_sq / n_draws == pytest.approx(1.0, abs=4 / np.sqrt(n_draws))


def test_swap_network_single_swap_action():
    u = swap_network(3, [(1, 3)])
    # basis state |abc> -> |cba>
    for a in range(2):
        for b in range(2):
            for c in range(2):
                src = np.zeros(8)
                src[(a << 2) | (b << 1) | c] = 1.0
                dst = np.zeros(8)
                dst[(c << 2) | (b << 1) | a] = 1.0
                np.testing.assert_allclose(u @ src, dst, atol=1e-15)


def test_swap_network_layer_composition():
    lhs = swap_network(4, [(1, 2), (3, 4)])
    rhs = swap_network(4, [(1, 2)]) @ swap_network(4, [(3, 4)])
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_swap_network_rejects_bad_pairs():
    with pytest.raises(ValueError):
        swap_network(3, [(1, 2), (2, 3)])  # qubit 2 used twice
    with pytest.raises(ValueError):
        swap_network(3, [(0, 1)])
    with pytest.raises(ValueError):
        swap_network(3, [(1, 4)])
    with pytest.raises(ValueError):
        swap_network(3, [(2, 2)])


def operator_schmidt_rank(u, d_left):
    d_right = u.shape[0] // d_left
    t = u.reshape(d_left, d_right, d_left, d_right)
    m = np.transpose(t, (0, 2, 1, 3)).reshape(d_left ** 2, d_right ** 2)
    return np.linalg.matrix_rank(m, tol=1e-10)


def test_random_local_unitary_is_block_product(rng):
    part = PartitionSpec.leading(4, 2)
    u = random_local_unitary(part, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-12)
    # a product U_C (x) U_D has operator Schmidt rank 1 across the cut
    assert operator_schmidt_rank(u, 4) == 1


def test_random_local_unitary_interleaved_regions(rng):
    part = PartitionSpec(("r1",), ("q1", "q3"), ("q2", "q4"))
    u = random_local_unitary(part, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-12)
    # rank 1 after permuting the cut to (q1,q3 | q2,q4)
    perm = swap_network(4, [(2, 3)])
    assert operator_schmidt_rank(perm @ u @ perm.conj().T, 4) == 1
    # but genuinely nonlocal for the leading cut
    assert operator_schmidt_rank(u, 4) > 1


def test_random_local_unitary_requires_tiling(rng):
    part = PartitionSpec(("r1",), ("q1",), ("q2", "q4"))
    with pytest.raises(ValueError):
        random_local_unitary(part, rng)


def test_clifford_scrambler_is_unitary():
    u = clifford_scrambler_unitary()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_clifford_scan_endpoints():
    np.testing.assert_allclose(clifford_scan_unitary(0.0), np.eye(8),
                               atol=1e-12)
    u = clifford_scan_unitary(1.234)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_clifford_scan_shift_is_local():
    # U(theta + pi) = -i Z1 Z2 Z3 U(theta), so every witness built on it
    # is exactly pi-periodic
    theta = 0.37
    w = clifford_scan_unitary(theta + np.pi) @ \
        clifford_scan_unitary(theta).conj().T
    np.testing.assert_allclose(w, -1j * dense("ZZZ"), atol=1e-12)
