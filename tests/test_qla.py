import numpy as np
import pytest
import scipy.linalg

from helpers import random_density_matrix
from qscramble.qla import (DensityMatrix, Propagator, QubitRegister,
                           hermitian_eig, kron, mutual_information,
                           partial_trace, partial_transpose,
                           von_neumann_entropy)

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def test_register_basics():
    reg = QubitRegister(["r1", "q1", "q2"])
    assert reg.n == 3
    assert reg.dim == 8
    assert reg.axes(["q2", "r1"]) == (2, 0)
    assert reg.complement(["q1"]) == ("r1", "q2")
    assert "q2" in reg and "q9" not in reg
    assert list(reg) == ["r1", "q1", "q2"]


def test_register_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        QubitRegister(["q1", "q1"])
    with pytest.raises(ValueError):
        QubitRegister([])
    with pytest.raises(KeyError):
        QubitRegister(["q1"]).complement(["q7"])


def test_density_matrix_shape_check():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, ["q1"])


def test_density_matrix_pure_normalizes():
    dm = DensityMatrix.pure([2.0, 0.0], ["q1"])
    np.testing.assert_allclose(dm.matrix, [[1, 0], [0, 0]], atol=1e-15)
    dm.validate()


def test_density_matrix_validate_rejects_bad_states():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]), ["q1"]).validate()
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex), ["q1"]).validate()


def test_kron_matches_numpy_chain(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2))
    # entry formula: kron(a, b)[i * 3 + k, j * 3 + l] = a[i, j] b[k, l]
    np.testing.assert_allclose(kron(a, b).reshape(2, 3, 2, 3),
                               np.einsum("ij,kl->ikjl", a, b),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(kron(a, b, c), np.kron(np.kron(a, b), c))


def test_partial_trace_bell_pair():
    dm = DensityMatrix(BELL, ["q1", "q2"])
    red = partial_trace(dm, ["q1"])
    assert red.register.labels == ("q1",)
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_keep_all_is_identity():
    dm = DensityMatrix(BELL, ["q1", "q2"])
    np.testing.assert_allclose(partial_trace(dm, ["q1", "q2"]).matrix, BELL)


def test_partial_trace_preserves_trace_and_hermiticity(rng):
    dm = DensityMatrix(random_density_matrix(8, rng), ["a", "b", "c"])
    red = partial_trace(dm, ["a", "c"])
    assert red.matrix.shape == (4, 4)
    np.testing.assert_allclose(np.trace(red.matrix), 1.0, atol=1e-12)
    np.testing.assert_allclose(red.matrix, red.matrix.conj().T, atol=1e-12)
    # tracing the rest out of the reduction agrees with the direct route
    np.testing.assert_allclose(partial_trace(red, ["c"]).matrix,
                               partial_trace(dm, ["c"]).matrix, atol=1e-12)


def test_partial_trace_ghz_marginal():
    psi = np.zeros(8)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    dm = DensityMatrix.pure(psi, ["q1", "q2", "q3"])
    red = partial_trace(dm, ["q1", "q2"])
    np.testing.assert_allclose(red.matrix, np.diag([0.5, 0, 0, 0.5]),
                               atol=1e-15)


def test_partial_transpose_bell_spectrum():
    # the canonical entanglement witness: one negative eigenvalue -1/2
    dm = DensityMatrix(BELL, ["q1", "q2"])
    pt = partial_transpose(dm, ["q2"])
    np.testing.assert_allclose(np.linalg.eigvalsh(pt.matrix),
                               [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_is_involution(rng):
    dm = DensityMatrix(random_density_matrix(8, rng), ["q1", "q2", "q3"])
    back = partial_transpose(partial_transpose(dm, ["q2"]), ["q2"])
    np.testing.assert_allclose(back.matrix, dm.matrix, atol=1e-14)


def test_partial_transpose_keeps_product_states_positive(rng):
    ra, rb = random_density_matrix(2, rng), random_density_matrix(2, rng)
    pt = partial_transpose(DensityMatrix(np.kron(ra, rb), ["q1", "q2"]),
                           ["q1"])
    np.testing.assert_allclose(pt.matrix, np.kron(ra.T, rb), atol=1e-15)
    assert np.linalg.eigvalsh(pt.matrix).min() > -1e-12


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(DensityMatrix.pure([1, 0], ["q1"])) == \
        pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(
        DensityMatrix(np.eye(4) / 4, ["q1", "q2"])) == \
        pytest.approx(2.0, abs=1e-12)


def test_entropy_known_diagonal():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    dm = DensityMatrix(np.diag(p).astype(complex), ["q1", "q2"])
    expected = -np.sum(p * np.log2(p))
    assert von_neumann_entropy(dm) == pytest.approx(expected, abs=1e-12)
    assert von_neumann_entropy(dm, base=np.e) == \
        pytest.approx(expected * np.log(2), abs=1e-12)


def test_mutual_information_bell_and_product(rng):
    bell = DensityMatrix(BELL, ["q1", "q2"])
    assert mutual_information(bell, ["q1"], ["q2"]) == \
        pytest.approx(2.0, abs=1e-12)
    rho = np.kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
    prod = DensityMatrix(rho, ["q1", "q2"])
    assert abs(mutual_information(prod, ["q1"], ["q2"])) < 1e-10


def test_mutual_information_ghz_pair():
    psi = np.zeros(8)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    dm = DensityMatrix.pure(psi, ["q1", "q2", "q3"])
    assert mutual_information(dm, ["q1"], ["q2"]) == \
        pytest.approx(1.0, abs=1e-12)


def test_propagator_matches_expm(rng):
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    prop = Propagator(h)
    for t in (0.0, 0.3, 1.7):
        np.testing.assert_allclose(prop.unitary(t),
                                   scipy.linalg.expm(-1j * t * h), atol=1e-10)


def test_propagator_group_property(rng):
    h = rng.normal(size=(4, 4))
    h = h + h.T
    prop = Propagator(h.astype(complex))
    u1, u2, u3 = prop.unitary(0.4), prop.unitary(1.1), prop.unitary(1.5)
    np.testing.assert_allclose(u2 @ u1, u3, atol=1e-12)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-12)


def test_hermitian_eig_check(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(ValueError):
        hermitian_eig(m)
    evals, evecs = hermitian_eig(m + m.conj().T)
    np.testing.assert_allclose(evecs @ np.diag(evals) @ evecs.conj().T,
                               m + m.conj().T, atol=1e-12)
    assert np.all(np.diff(evals) >= 0.0)


def test_random_density_matrix_is_a_state(rng):
    rho = random_density_matrix(6, rng)
    np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
