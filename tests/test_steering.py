import numpy as np
import pytest

from helpers import (PZ, clifford_unitary, equality_residual,
                     evolve_sandwich, isotropic_assemblage, random_clifford,
                     surviving_q1_paulis, swap_network)
from qscramble.channels import (PartitionSpec, build_choi, system_labels,
                                tripartite_mutual_information)
from qscramble.models import (build_ising, clifford_scrambler_unitary,
                              haar_random_unitary, pauli_matrix,
                              random_local_unitary)
from qscramble.qla import DensityMatrix, Propagator, partial_trace
from qscramble.sdp import (NumericalFailure, SteeringWeightProblem,
                           solve_steering_weight, verify_certificate)
from qscramble.sdp import problem as sdp_problem
from qscramble.steering import (MeasurementSet, minus_t3, temporal_assemblage,
                                total_steerable_weight)
from qscramble.verify import _unitary_invariance_defect


def test_pauli_measurement_set():
    ms = MeasurementSet.pauli("xyz")
    assert ms.n_settings == 3 and ms.n_outcomes == 2
    assert ms.effects.shape == (3, 2, 2, 2) and ms.effects.dtype == complex
    for row in ms.effects:
        total = sum(row)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-15)
        for e in row:
            assert np.linalg.eigvalsh(e).min() > -1e-12
    assert MeasurementSet.pauli("xz").n_settings == 2
    with pytest.raises(ValueError):
        MeasurementSet.pauli("xq")


def test_encode_and_evolve_shape_and_no_signaling(rng):
    ms = MeasurementSet.pauli()
    asm = temporal_assemblage(build_choi(haar_random_unitary(8, rng)), ms)
    assert asm.shape == (3, 2, 8, 8)
    marginals = asm.sum(axis=1)
    assert np.abs(marginals - marginals[0]).max() < 1e-12
    probs = np.trace(asm, axis1=2, axis2=3).real
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    # measure-then-evolve on the maximally mixed register: the marginal
    # stays maximally mixed
    np.testing.assert_allclose(marginals[0], np.eye(8) / 8, atol=1e-12)


def _trine_and_biased_povm():
    """Non-projective settings with complex off-diagonal effects; the
    two-outcome setting is padded with a zero effect."""
    trine = []
    for k in range(3):
        phase = np.exp(2j * np.pi * k / 3)
        trine.append(np.array([[1, np.conj(phase)], [phase, 1]]) / 3)
    m = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    return MeasurementSet("trine-biased",
                          [trine, [m, np.eye(2) - m, np.zeros((2, 2))]])


@pytest.mark.parametrize("effects, match", [
    ([[np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])]], "negative eigenvalue"),
    ([[np.eye(4)]], "shape"),
    ([[np.eye(2)], [np.eye(2) / 2, np.eye(2) / 2]], "ragged"),
    ([[np.eye(2)], []], "ragged"),
    ([[]], "shape"),
    ([[np.eye(2) + [[0, 1], [0, 0]], -np.array([[0, 1], [0, 0]])]],
     "not Hermitian"),
    ([[PZ, np.eye(2) - PZ]], "negative eigenvalue"),
    ([[np.eye(2) / 2, np.eye(2) / 3]], "setting 0 .* identity"),
    ([[np.eye(2), np.zeros((2, 2))], [np.eye(2) / 2, np.eye(2) / 2 + 1e-9]],
     "setting 1 .* identity"),
], ids=["negative", "4x4", "ragged-outcomes", "empty-setting", "no-effects",
        "non-hermitian", "pauli-as-effect", "under-complete", "over-complete"])
def test_measurement_set_rejects_invalid_effects(effects, match):
    with pytest.raises(ValueError, match=match):
        MeasurementSet("bad", effects)


def test_measurement_sets_compare_by_name_and_effects():
    assert MeasurementSet.pauli() == MeasurementSet.pauli()
    assert MeasurementSet.pauli() != MeasurementSet.pauli("xz")
    pauli = MeasurementSet.pauli("xz")
    assert MeasurementSet("other", pauli.effects) != pauli
    assert MeasurementSet.pauli() != "xyz"


@pytest.mark.parametrize("measurements", [MeasurementSet.pauli(),
                                          _trine_and_biased_povm()],
                         ids=["1-pauli", "1-povm"])
def test_encode_and_evolve_matches_dense_sandwich(rng, measurements):
    # measure q1 (the "1-" in the ids), then evolve: the full-register
    # assemblage read off the Choi marginal equals the dense sandwich
    u = haar_random_unitary(8, rng)
    asm = temporal_assemblage(build_choi(u), measurements)
    ref = evolve_sandwich(u, measurements.effects)
    assert asm.shape == ref.shape
    np.testing.assert_allclose(asm, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: f"n={n}")
def test_temporal_assemblage_matches_traced_sandwich(rng, n):
    # every region C = q1..qk, its complement D and the full register,
    # read off the Choi marginal, against the partial trace of the dense
    # measure-then-evolve members
    u = haar_random_unitary(2 ** n, rng)
    choi = build_choi(u)
    labels = system_labels(n)
    regions = ([labels[:k] for k in range(1, n)]
               + [labels[k:] for k in range(1, n)] + [labels])
    for ms in (MeasurementSet.pauli(), _trine_and_biased_povm()):
        ref = evolve_sandwich(u, ms.effects)
        for region in regions:
            asm = temporal_assemblage(choi, ms, region)
            dim = 2 ** len(region)
            assert asm.shape == ref.shape[:2] + (dim, dim)
            for got, want in zip(asm.reshape(-1, dim, dim),
                                 ref.reshape(-1, 2 ** n, 2 ** n)):
                want = partial_trace(DensityMatrix(want, labels),
                                     region).matrix
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_reduce_assemblage(rng):
    ms = MeasurementSet.pauli()
    u = haar_random_unitary(8, rng)
    choi = build_choi(u)
    asm = temporal_assemblage(choi, ms)
    red = temporal_assemblage(choi, ms, ("q2", "q3"))
    assert red.shape == (3, 2, 4, 4)
    marginals = red.sum(axis=1)
    assert np.abs(marginals - marginals[0]).max() < 1e-12
    # probabilities are preserved by the partial trace
    np.testing.assert_allclose(np.trace(red, axis1=2, axis2=3),
                               np.trace(asm, axis1=2, axis2=3), atol=1e-12)
    full = temporal_assemblage(choi, ms, ("q1", "q2", "q3"))
    np.testing.assert_allclose(full, asm, atol=1e-13)
    # the region's members are the full members with q1 traced out
    labels = ("q1", "q2", "q3")
    traced = [partial_trace(DensityMatrix(m, labels), ("q2", "q3")).matrix
              for m in asm.reshape(-1, 8, 8)]
    np.testing.assert_allclose(red.reshape(-1, 4, 4), traced, atol=1e-13)


def test_identity_channel_is_maximally_steerable():
    red = temporal_assemblage(build_choi(np.eye(8)), MeasurementSet.pauli(),
                              ("q1",))
    assert solve_steering_weight(red).steerable_weight == \
        pytest.approx(1.0, abs=1e-9)


def test_classical_assemblage_is_unsteerable():
    # commuting diagonal members admit an exact hidden-state model
    zz = isotropic_assemblage(1.0, [PZ])[0]
    members = [zz, zz, [np.eye(2) / 4, np.eye(2) / 4]]
    assert solve_steering_weight(members).steerable_weight < 1e-7


def test_full_output_returns_solution():
    red = temporal_assemblage(build_choi(np.eye(4)), MeasurementSet.pauli(),
                              ("q1",))
    sol = solve_steering_weight(red)
    w = minus_t3(build_choi(np.eye(4)), ("q1",), ("q2",)).tsw_c
    assert w == sol.steerable_weight
    assert sol.status == "Optimal"


def test_total_weight_matches_direct_solve(rng):
    ms = MeasurementSet.pauli()
    total = total_steerable_weight(ms)
    assert total == pytest.approx(1.0, abs=1e-9)
    # the shortcut equals the honest full-register solve for a random U
    u = haar_random_unitary(4, rng)
    direct = solve_steering_weight(
        temporal_assemblage(build_choi(u), ms)).steerable_weight
    assert direct == pytest.approx(total, abs=2e-6)


def test_tsw_invariant_under_global_unitary():
    red = temporal_assemblage(build_choi(np.eye(4)), MeasurementSet.pauli(),
                              ("q1",))
    _, defect = _unitary_invariance_defect(red, seeds=(0, 1))
    assert defect < 1e-6


def test_minus_t3_identity_and_scrambler():
    rec = minus_t3(build_choi(np.eye(8)), ("q1",), ("q2", "q3"))
    assert abs(rec.minus_t3) < 2e-6
    assert rec.tsw_c == pytest.approx(1.0, abs=1e-9)
    assert rec.tsw_d < 2e-6
    assert rec.status == "ok"
    rec = minus_t3(build_choi(clifford_scrambler_unitary()), ("q1",),
                   ("q2", "q3"))
    assert rec.minus_t3 == pytest.approx(1.0, abs=2e-6)
    assert rec.tsw_c < 2e-6 and rec.tsw_d < 2e-6


def test_minus_t3_identity_decomposition(rng):
    u = haar_random_unitary(8, rng)
    rec = minus_t3(build_choi(u), ("q1",), ("q2", "q3"))
    assert rec.minus_t3 == pytest.approx(
        rec.tsw_total - rec.tsw_c - rec.tsw_d, abs=1e-15)
    assert 0.0 <= rec.tsw_c <= 1.0 and 0.0 <= rec.tsw_d <= 1.0


def test_local_unitary_cannot_scramble(rng):
    part = PartitionSpec.leading(4, 2)
    u = random_local_unitary(part, rng)
    rec = minus_t3(build_choi(u), part.region_c, part.region_d)
    assert abs(rec.minus_t3) < 2e-6


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.2])
def test_partly_reduced_ipm_on_a_physical_unitary(theta):
    # U = exp(-i theta Z2 X3 / 2) SWAP(q1, q2): on C = {q1, q2} Z stays
    # sharp while X and Y are unsharp with eta = cos(theta), so the solve
    # runs the IPM on the facially reduced problem with no strategy
    # eliminated, and TSW_C = 1 - mu* = eta exactly
    rot = (np.cos(theta / 2) * np.eye(8)
           - 1j * np.sin(theta / 2) * pauli_matrix("IZX"))
    choi = build_choi(rot @ swap_network(3, [(1, 2)]))
    region_c = ("q1", "q2")
    members = temporal_assemblage(choi, MeasurementSet.pauli(), region_c)
    sol = solve_steering_weight(members)
    assert sol.status == "Optimal" and sol.iterations > 0
    assert sol.reduced and sol.eliminated == ()
    assert verify_certificate(members, sol)
    rec = minus_t3(choi, region_c, ("q3",))
    assert rec.tsw_c == pytest.approx(np.cos(theta), abs=1e-6)


@pytest.mark.parametrize("n", [3, 5, 7], ids=lambda n: f"n={n}")
def test_face_zero_settles_one_pauli_region(n):
    # U = CNOT(q2 -> q1) SWAP(q1, q2): region D = {q2..qn} holds exactly
    # one evolved q1 Pauli, so one setting is sharp and TSW_D = 0.  The
    # least-norm model is PSD but singular, and at n = 7 the reduced Schur
    # system is past the cap; compressed onto the strategy faces it is
    # positive definite, which proves the zero without an IPM iteration
    rest = "I" * (n - 2)
    swap = sum(pauli_matrix(p + p + rest) for p in "IXYZ") / 2
    cnot = (pauli_matrix("II" + rest) + pauli_matrix("IZ" + rest)
            + pauli_matrix("XI" + rest) - pauli_matrix("XZ" + rest)) / 2
    choi = build_choi(cnot @ swap)
    region_d = system_labels(n)[1:]
    members = temporal_assemblage(choi, MeasurementSet.pauli(), region_d)
    sol = solve_steering_weight(members)
    assert sol.status == "Optimal" and sol.iterations == 0
    assert sol.mu_star == 1.0 and sol.steerable_weight == 0.0
    problem = SteeringWeightProblem(members)
    assert sdp_problem._exact_zero_weight(problem) is None
    faces = problem.reduce().q_bases
    for q, h in zip(faces, sol.hidden_states):
        if q.shape[1]:
            assert np.linalg.eigvalsh(q.conj().T @ h @ q)[0] >= 0.0
    assert equality_residual(members, sol.hidden_states) <= 1e-12
    assert verify_certificate(members, sol)
    rec = minus_t3(choi, ("q1",), region_d)
    assert (rec.tsw_d, rec.minus_t3, rec.status) == (0.0, 1.0, "ok")


def test_clifford_witnesses_match_pauli_propagation():
    # a Clifford U maps each q1 Pauli to one Pauli string, which survives
    # on a region only when it acts on that region alone.  k_R of X1, Y1,
    # Z1 survive on R (0, 1 or 3): k_R = 3 carries a whole qubit, TSW_R = 1
    # and I(A:R) = 2 bits; k_R = 1 is one sharp setting, TSW_R = 0 and 1
    # bit; k_R = 0 leaves nothing.  Every weight is an exact exit
    rng = np.random.default_rng(11)
    cases = [(n, n_c, random_clifford(n, rng))
             for n, n_c, count in ((4, 2, 20), (5, 2, 20), (6, 2, 20),
                                   (7, 2, 20), (7, 1, 10))
             for _ in range(count)]
    # SWAP(q1, q3) as three CNOTs moves the q1 Paulis into D = {q3, q4}
    cases.append((4, 2, [("CNOT", 0, 2), ("CNOT", 2, 0), ("CNOT", 0, 2)]))
    info_bits = {0: 0.0, 1: 1.0, 3: 2.0}
    pairs = {}
    for n, n_c, gates in cases:
        part = PartitionSpec.leading(n, n_c)
        k_c = surviving_q1_paulis(n, gates, part.region_c)
        k_d = surviving_q1_paulis(n, gates, part.region_d)
        pairs[k_c, k_d] = pairs.get((k_c, k_d), 0) + 1
        choi = build_choi(clifford_unitary(n, gates))
        rec = minus_t3(choi, part.region_c, part.region_d)
        assert rec.status == "ok"
        assert (rec.tsw_c, rec.tsw_d) == (float(k_c == 3), float(k_d == 3))
        assert rec.minus_t3 == 1.0 - (k_c == 3) - (k_d == 3)
        tmi = tripartite_mutual_information(choi, part)
        assert tmi.minus_i3 == pytest.approx(
            2.0 - info_bits[k_c] - info_bits[k_d], abs=1e-12)
    # every (k_C, k_D) class is met; two (0, 1) regions D have d = 64
    assert pairs == {(0, 0): 32, (1, 0): 38, (0, 1): 11, (3, 0): 9,
                     (0, 3): 1}


def test_ipm_sized_regions_keep_the_short_search(monkeypatch):
    # every region gets the same budget, MAX_ROUNDS; at t = 2 region q3 is
    # zeroed after two reflections, and the steerable region q2 q3 halves
    # its deficit once, at round 2, so it stops ZERO_EXIT_ROUNDS later and
    # goes on to its IPM solve
    reflect, runs = sdp_problem._reflect, []

    def spy(seed, to_null, shift, rounds):
        out = reflect(seed, to_null, shift, rounds)
        runs.append((rounds, out[1]))
        return out

    monkeypatch.setattr(sdp_problem, "_reflect", spy)
    prop = Propagator(build_ising(3, 1.0, 0.5).matrix())
    choi = build_choi(prop.unitary(2.0))
    zero, steerable = [
        solve_steering_weight(temporal_assemblage(choi, MeasurementSet.pauli(),
                                                  region))
        for region in (("q3",), ("q2", "q3"))]
    assert zero.iterations == 0 and zero.steerable_weight == 0.0
    assert steerable.iterations > 0 and steerable.steerable_weight > 0.05
    budget, stall = sdp_problem.MAX_ROUNDS, sdp_problem.ZERO_EXIT_ROUNDS
    assert runs == [(budget, 2), (budget, 2 + stall)]


def _ising8_region_d(t):
    prop = Propagator(build_ising(8, 1.0, 0.5).matrix())
    return build_choi(prop.unitary(t)), tuple(f"q{i}" for i in range(3, 9))


def test_exit_certifies_large_region():
    # region D has dimension 64: the interior point method is out of its
    # envelope there, and the exact-zero exit certifies TSW_D = 0
    choi, region_d = _ising8_region_d(2.0)
    rec = minus_t3(choi, ("q1", "q2"), region_d)
    assert rec.status == "ok"
    assert rec.tsw_d == 0.0
    assert rec.minus_t3 == pytest.approx(
        rec.tsw_total - rec.tsw_c - rec.tsw_d, abs=1e-15)


def test_long_search_zeroes_region_past_the_schur_cap():
    # region D of Ising n=7 --nc 1 (d=64) at t = 4: its Schur system is
    # past the cap, and ZERO_EXIT_ROUNDS reflections are too few, so the
    # exit's long search must prove TSW_D = 0 with a local model of mass 1
    # and a dual certificate
    prop = Propagator(build_ising(7, 1.0, 0.5).matrix())
    choi = build_choi(prop.unitary(4.0))
    region_d = tuple(f"q{i}" for i in range(2, 8))
    members = temporal_assemblage(choi, MeasurementSet.pauli(), region_d)
    sol = solve_steering_weight(members)
    assert members.shape == (3, 2, 64, 64)
    assert sol.status == "Optimal" and sol.iterations == 0
    assert sol.steerable_weight == 0.0
    assert np.linalg.eigvalsh(sol.hidden_states)[:, 0].min() >= 0.0
    assert equality_residual(members, sol.hidden_states) <= 1e-12
    assert verify_certificate(members, sol)


def test_bound_certifies_large_region():
    # the d=64 region D of Ising n=8 at t = 2, solved directly: the weight
    # is certified from scratch by a PSD local model of mass 1 and a
    # verified dual certificate
    choi, region_d = _ising8_region_d(2.0)
    members = temporal_assemblage(choi, MeasurementSet.pauli(), region_d)
    sol = solve_steering_weight(members)
    assert members.shape == (3, 2, 64, 64)
    assert sol.status == "Optimal"
    assert sol.steerable_weight == 0.0
    assert np.linalg.eigvalsh(sol.hidden_states)[:, 0].min() >= 0.0
    assert equality_residual(members, sol.hidden_states) <= 1e-12
    assert verify_certificate(members, sol)


def test_minus_t3_bounds_large_region_when_exit_fails(monkeypatch):
    # ZERO_EXIT_ROUNDS reflections do not zero region D of Ising n=7
    # --nc 1 at t = 4 (d=64, past the Schur cap); minus_t3 still reports
    # TSW_D from the long search, with status ok
    reflect, runs = sdp_problem._reflect, []

    def spy(seed, to_null, shift, rounds):
        out = reflect(seed, to_null, shift, rounds)
        runs.append((seed.shape[-1], rounds, out[1]))
        return out

    monkeypatch.setattr(sdp_problem, "_reflect", spy)
    prop = Propagator(build_ising(7, 1.0, 0.5).matrix())
    choi = build_choi(prop.unitary(4.0))
    region_d = tuple(f"q{i}" for i in range(2, 8))
    rec = minus_t3(choi, ("q1",), region_d)
    assert rec.status == "ok" and rec.status_d == "Optimal"
    assert rec.tsw_d == 0.0
    assert rec.minus_t3 == pytest.approx(
        rec.tsw_total - rec.tsw_c - rec.tsw_d, abs=1e-15)
    long = [(rounds, ran) for d, rounds, ran in runs if d == 64]
    assert len(long) == 1
    rounds, ran = long[0]
    assert rounds == sdp_problem.MAX_ROUNDS
    assert sdp_problem.ZERO_EXIT_ROUNDS < ran < rounds
    members = temporal_assemblage(choi, MeasurementSet.pauli(), region_d)
    assert rec.tsw_d == solve_steering_weight(members).steerable_weight


def test_stalled_search_past_the_schur_cap_fails_fast():
    # region D of Ising n=7 --nc 1 (d=64) at t = 2 is past the Schur cap;
    # its PSD deficit halves once, at round 2, and then stalls, so the
    # search gives up ZERO_EXIT_ROUNDS reflections later and the region
    # reads failed
    prop = Propagator(build_ising(7, 1.0, 0.5).matrix())
    members = temporal_assemblage(build_choi(prop.unitary(2.0)),
                                  MeasurementSet.pauli(),
                                  tuple(f"q{i}" for i in range(2, 8)))
    with pytest.raises(NumericalFailure, match=" 22 reflections found no"):
        solve_steering_weight(members)


def test_schur_cap_raises_clean_failure(rng, monkeypatch):
    ms = MeasurementSet.pauli()
    total_steerable_weight(ms)  # warm the cache before capping
    monkeypatch.setattr(sdp_problem, "_SCHUR_BYTE_CAP", 1.0)
    u = haar_random_unitary(8, rng)
    # region C is certified zero before the cap; region D reaches the IPM
    with pytest.raises(NumericalFailure, match="region D"):
        minus_t3(build_choi(u), ("q1",), ("q2", "q3"), measurements=ms)
