import numpy as np
import pytest

from helpers import I2, choi_sandwich, swap_network
from qscramble.channels import (PartitionSpec, build_choi, build_pdm,
                                haar_scrambled_baseline, reference_labels,
                                system_labels, tripartite_mutual_information)
from qscramble.models import (clifford_scrambler_unitary, haar_random_unitary,
                              random_local_unitary)
from qscramble.qla import mutual_information, partial_trace

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def test_label_helpers():
    assert system_labels(3) == ("q1", "q2", "q3")
    assert reference_labels(2) == ("r1", "r2")


def test_partition_leading():
    part = PartitionSpec.leading(4, 2)
    assert part.region_a == ("r1",)
    assert part.region_c == ("q1", "q2")
    assert part.region_d == ("q3", "q4")
    assert part.n_c == 2


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionSpec(("r1",), ("q1",), ("q1", "q2"))  # overlap
    with pytest.raises(ValueError):
        PartitionSpec(("r1",), (), ("q1",))  # empty region
    with pytest.raises(ValueError):
        PartitionSpec.leading(3, 3)
    with pytest.raises(ValueError):
        PartitionSpec.leading(3, 0)


def test_choi_identity_single_qubit_is_bell():
    choi = build_choi(np.eye(2))
    assert choi.state.register.labels == ("r1", "q1")
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    np.testing.assert_allclose(choi.state.matrix, bell, atol=1e-15)


def test_choi_full_reference_is_pure(rng):
    # every input keeps its reference, so the state is pure
    u = haar_random_unitary(4, rng)
    choi = build_choi(u)
    assert choi.state.register.labels == ("r1", "r2", "q1", "q2")
    choi.state.validate()
    m = choi.state.matrix
    assert m.shape == (16, 16)
    np.testing.assert_allclose(np.trace(m @ m).real, 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_choi_matches_dense_sandwich(rng, n):
    # the marginal on r1 q1..qN is the Bell pair on r1 q1, with the other
    # inputs maximally mixed, sent through U; n = 1 keeps the whole state
    u = haar_random_unitary(2 ** n, rng)
    got = build_choi(u).marginal(("r1",) + system_labels(n))
    np.testing.assert_allclose(got.matrix, choi_sandwich(u),
                               rtol=0, atol=1e-13)


def _computed_i_acd(choi, part):
    return mutual_information(choi.state, part.region_a,
                              part.region_c + part.region_d)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tmi_identity_matches_computed_i_acd(rng, n):
    for _ in range(3):
        u = haar_random_unitary(2 ** n, rng)
        choi = build_choi(u)
        for n_c in range(1, n):
            part = PartitionSpec.leading(n, n_c)
            tmi = tripartite_mutual_information(choi, part)
            assert tmi.i_acd == 2.0
            assert _computed_i_acd(choi, part) == pytest.approx(2.0, abs=1e-12)


def test_tmi_identity_on_full_reference_choi(rng):
    u = haar_random_unitary(8, rng)
    full = build_choi(u)
    for part in (PartitionSpec(("r1",), ("q1",), ("q2", "q3")),
                 PartitionSpec(("r2",), ("q1", "q3"), ("q2",)),
                 PartitionSpec(("r1", "r3"), ("q2",), ("q1", "q3"))):
        a, c, d = part.region_a, part.region_c, part.region_d
        tmi = tripartite_mutual_information(full, part)
        assert tmi.i_acd == 2.0 * len(a)
        assert _computed_i_acd(full, part) == pytest.approx(tmi.i_acd,
                                                            abs=1e-12)
        # the marginal terms agree with the dense state's
        assert tmi.i_ac == pytest.approx(
            mutual_information(full.state, a, c), abs=1e-12)
        assert tmi.i_ad == pytest.approx(
            mutual_information(full.state, a, d), abs=1e-12)


def test_tmi_partition_missing_a_qubit_is_computed(rng):
    # q2 belongs to neither C nor D, so the identity does not apply
    choi = build_choi(haar_random_unitary(8, rng))
    part = PartitionSpec(("r1",), ("q1",), ("q3",))
    tmi = tripartite_mutual_information(choi, part)
    assert tmi.i_acd == mutual_information(choi.marginal(("r1", "q1", "q3")),
                                           ("r1",), ("q1", "q3"))
    assert tmi.i_acd == pytest.approx(_computed_i_acd(choi, part), abs=1e-12)
    assert tmi.i_acd < 2.0 - 1e-3


@pytest.mark.parametrize("other_references", [False, True])
def test_marginal_matches_dense_partial_trace(rng, other_references):
    # without other references: r1 and outputs, up to r1 q1..q4 whole;
    # with them: r2..r4 too, up to the whole register
    u = haar_random_unitary(16, rng)
    choi = build_choi(u)
    keeps = [("r1", "q1"), ("q3", "r1"), ("r1", "q2", "q4"),
             ("q4", "q1", "r1", "q2"), ("q2",)]
    whole = ("r1",) + system_labels(4)
    if other_references:
        keeps += [("r2", "q1", "r1"), ("r3", "q3"), ("r4", "r2", "q2", "q4")]
        whole = choi.register.labels
    keeps += [whole, whole[::-1]]
    for keep in keeps:
        got = choi.marginal(keep)
        assert got.register.labels == keep
        np.testing.assert_allclose(got.matrix,
                                   partial_trace(choi.state, keep).matrix,
                                   rtol=0, atol=1e-13)
        assert choi.marginal(keep) is got  # formed once per state


def test_marginal_rejects_labels_outside_the_register(rng):
    choi = build_choi(haar_random_unitary(8, rng))
    for keep in (("r4", "q1"), ("r1", "q4"), ("q1", "q1"), ()):
        with pytest.raises(ValueError):
            choi.marginal(keep)


def test_choi_rejects_non_qubit_operator():
    with pytest.raises(ValueError):
        build_choi(np.eye(3))


def test_tmi_identity_channel():
    tmi = tripartite_mutual_information(build_choi(np.eye(8)),
                                        PartitionSpec.leading(3, 1))
    assert tmi.minus_i3 == pytest.approx(0.0, abs=1e-10)
    assert tmi.i_ac == pytest.approx(2.0, abs=1e-10)
    assert tmi.i_ad == pytest.approx(0.0, abs=1e-10)
    assert tmi.i_acd == pytest.approx(2.0, abs=1e-10)


def test_tmi_cnot_spreads_one_bit():
    # the control stays classically readable in C, its coherence leaks to CD
    tmi = tripartite_mutual_information(build_choi(CNOT),
                                        PartitionSpec.leading(2, 1))
    assert tmi.minus_i3 == pytest.approx(1.0, abs=1e-10)
    assert tmi.i_ac == pytest.approx(1.0, abs=1e-10)
    assert tmi.i_ad == pytest.approx(0.0, abs=1e-10)


def test_tmi_perfect_scrambler_saturates():
    tmi = tripartite_mutual_information(build_choi(clifford_scrambler_unitary()),
                                        PartitionSpec.leading(3, 1))
    assert tmi.minus_i3 == pytest.approx(2.0, abs=1e-10)
    assert tmi.i_ac == pytest.approx(0.0, abs=1e-10)
    assert tmi.i_ad == pytest.approx(0.0, abs=1e-10)


def test_tmi_swap_routes_information():
    # q1 -> q3 moves the referenced qubit into D without scrambling
    tmi = tripartite_mutual_information(build_choi(swap_network(3, [(1, 3)])),
                                        PartitionSpec.leading(3, 1))
    assert tmi.minus_i3 == pytest.approx(0.0, abs=1e-10)
    assert tmi.i_ad == pytest.approx(2.0, abs=1e-10)


def test_tmi_symmetric_under_cd_exchange(rng):
    u = haar_random_unitary(8, rng)
    choi = build_choi(u)
    a = tripartite_mutual_information(choi, PartitionSpec(
        ("r1",), ("q1",), ("q2", "q3")))
    b = tripartite_mutual_information(choi, PartitionSpec(
        ("r1",), ("q2", "q3"), ("q1",)))
    assert a.minus_i3 == pytest.approx(b.minus_i3, abs=1e-10)
    assert a.i_ac == pytest.approx(b.i_ad, abs=1e-10)


def test_tmi_invariant_under_local_unitaries(rng):
    part = PartitionSpec.leading(3, 1)
    v = haar_random_unitary(8, rng)
    w = random_local_unitary(part, rng)
    a = tripartite_mutual_information(build_choi(v), part)
    b = tripartite_mutual_information(build_choi(w @ v), part)
    assert b.minus_i3 == pytest.approx(a.minus_i3, abs=1e-9)
    assert b.i_ac == pytest.approx(a.i_ac, abs=1e-9)
    assert b.i_ad == pytest.approx(a.i_ad, abs=1e-9)


def test_pdm_identity_spectrum():
    pdm = build_pdm(np.eye(2))
    np.testing.assert_allclose(np.trace(pdm.matrix).real, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(pdm.matrix),
                               [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_pdm_routes_agree_spot_check(rng):
    u = haar_random_unitary(4, rng)
    a = build_pdm(u, method="choi")
    b = build_pdm(u, method="correlator")
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)
    np.testing.assert_allclose(a.matrix, a.matrix.conj().T, atol=1e-12)


def test_pdm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_pdm(np.eye(2), method="nonsense")
    with pytest.raises(ValueError):
        build_pdm(np.eye(3))
    with pytest.raises(ValueError):
        build_pdm(np.eye(64))  # past the small-system cap


def test_haar_baseline_deterministic_and_sized():
    part = PartitionSpec.leading(3, 1)
    a = haar_scrambled_baseline(3, part, samples=12, seed=4)
    b = haar_scrambled_baseline(3, part, samples=12, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.samples == 12 and a.values.shape == (12,)
    assert a.stderr == pytest.approx(a.values.std(ddof=1) / np.sqrt(12))
    # scrambled channels sit near the 2-bit ceiling for a 1-qubit reference
    assert 1.0 < a.mean <= 2.0


def test_haar_baseline_rejects_tiny_sample():
    with pytest.raises(ValueError):
        haar_scrambled_baseline(3, PartitionSpec.leading(3, 1), samples=1)
