import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import (PX, PY, PZ, bloch_assemblage, equality_residual,
                     isotropic_assemblage, max_step, mixed_rank_assemblage,
                     random_steerable_state, swap_network)
from qscramble.channels import build_choi
from qscramble.models import build_ising, pauli_matrix
from qscramble.qla import Propagator
from qscramble.sdp import (NumericalFailure, SteeringWeightProblem,
                           first_order_steering_weight,
                           solve_steering_weight, verify_certificate)
from qscramble.sdp import _kernels, ipm
from qscramble.sdp import problem as sdp_problem
from qscramble.sdp.strategies import enumerate_strategies, selection
from qscramble.steering import MeasurementSet, minus_t3, temporal_assemblage

# steering a Bell pair through white noise of visibility eta and measuring
# along m mutually unbiased axes has weight (sqrt(m) eta - 1)/(sqrt(m) - 1)


def mub_weight(m, eta):
    return max(0.0, (np.sqrt(m) * eta - 1.0) / (np.sqrt(m) - 1.0))


@pytest.mark.parametrize("eta", [0.6, 0.8, 1.0])
def test_two_axes_analytic_weight(eta):
    sol = solve_steering_weight(isotropic_assemblage(eta, [PX, PZ]))
    assert sol.steerable_weight == pytest.approx(mub_weight(2, eta), abs=5e-7)


@pytest.mark.parametrize("eta", [0.5, 0.8, 1.0])
def test_three_axes_analytic_weight(eta):
    sol = solve_steering_weight(isotropic_assemblage(eta, [PX, PY, PZ]))
    assert sol.steerable_weight == pytest.approx(mub_weight(3, eta), abs=5e-7)


def test_generic_full_rank_oracle():
    # value frozen from an independent conic solver on the same instance
    psi = np.array([0.8, 0.1 + 0.2j, -0.3j, 0.45 - 0.1j])
    psi /= np.linalg.norm(psi)
    rho = 0.85 * np.outer(psi, psi.conj()) + 0.15 * np.eye(4) / 4
    axes = [(1.0, 0, 0), (0, 1.0, 0), (0.6, 0, 0.8)]
    sol = solve_steering_weight(bloch_assemblage(rho, axes))
    assert sol.steerable_weight == pytest.approx(0.220344607271, abs=5e-7)
    assert sol.status == "Optimal"
    assert sol.gap <= 1e-7


def test_rank_deficient_members_solved_exactly():
    # pure non-commuting members kill every deterministic strategy, so the
    # facial reduction returns weight 1 with no interior-point iterations
    ms = MeasurementSet.pauli()
    sol = solve_steering_weight(ms.effects / 2)
    assert sol.steerable_weight == 1.0
    assert sol.mu_star == 0.0
    assert sol.reduced
    assert len(sol.eliminated) == 8
    assert sol.iterations == 0


def test_primal_model_is_feasible():
    members = isotropic_assemblage(0.8, [PX, PY, PZ])
    sol = solve_steering_weight(members)
    strategies = enumerate_strategies(3, 2)
    assert len(sol.hidden_states) == len(strategies)
    for h in sol.hidden_states:
        assert np.linalg.eigvalsh(h).min() > -1e-8
    for x in range(3):
        for a in range(2):
            tot = sum(h for h, s in zip(sol.hidden_states, strategies)
                      if s.selects(a, x))
            gap = members[x][a] - tot
            assert np.linalg.eigvalsh(gap).min() > -1e-7
    mass = sum(float(np.trace(h).real) for h in sol.hidden_states)
    assert mass == pytest.approx(sol.mu_star, abs=1e-6)


def test_certificate_checks_and_tampering_fails():
    members = isotropic_assemblage(0.8, [PX, PY, PZ])
    sol = solve_steering_weight(members)
    assert verify_certificate(members, sol)
    bad_cert = [[f.copy() for f in row] for row in sol.dual_certificate]
    bad_cert[0][0] *= 0.2
    bad = dataclasses.replace(sol, dual_certificate=bad_cert)
    assert not verify_certificate(members, bad)
    assert not verify_certificate(members,
                                  dataclasses.replace(sol,
                                                      dual_certificate=None))
    # one tampering per remaining rejection, each passing the checks
    # before it: a missing setting, a Hermiticity defect far above
    # 1e-8 s, and an eigenvalue of -1e-3 in F_{0|0}
    cert = np.asarray(sol.dual_certificate)
    skew, negative = cert.copy(), cert.copy()
    skew[0, 0, 0, 1] += 1e-3
    w, v = np.linalg.eigh(cert[0, 0])
    negative[0, 0] -= (w[0] + 1e-3) * np.outer(v[:, 0], v[:, 0].conj())
    assert np.linalg.eigvalsh(negative[0, 0])[0] == pytest.approx(-1e-3)
    for tampered in (cert[:2], skew, negative):
        assert not verify_certificate(
            members, dataclasses.replace(sol, dual_certificate=tampered))


def test_validation_rejects_malformed_assemblages():
    good = isotropic_assemblage(0.5, [PX, PZ])
    bad = [row[:] for row in good]
    bad[0] = bad[0][:1]  # ragged
    with pytest.raises(ValueError, match="ragged assemblage"):
        solve_steering_weight(bad)
    with pytest.raises(ValueError, match=r"shape \(1, 0\) is not"):
        solve_steering_weight([[]])  # one setting, no outcome
    with pytest.raises(ValueError, match=r"shape \(4, 2, 2\) is not"):
        solve_steering_weight(np.reshape(good, (4, 2, 2)))  # no outcome axis
    bad = [[m.copy() for m in row] for row in good]
    bad[0][0] = bad[0][0] + 0.2j * np.eye(2)  # not Hermitian
    with pytest.raises(ValueError):
        solve_steering_weight(bad)
    bad = [[m.copy() for m in row] for row in good]
    bad[1][1] = bad[1][1] + 0.2j * np.eye(2)  # only (1|1) is not Hermitian
    with pytest.raises(ValueError, match=r"member \(1\|1\) is not Hermitian"):
        solve_steering_weight(bad)
    bad = [[m.copy() for m in row] for row in good]
    bad[1] = [m + 0.1 * PZ for m in bad[1]]  # traces kept, marginal moved
    with pytest.raises(ValueError, match="violates no-signaling"):
        solve_steering_weight(bad)
    bad = _malformed("negative")  # traces and marginals kept
    with pytest.raises(ValueError, match=r"member \(0\|0\) has negative "
                       r"eigenvalue -2\.65e-01"):
        solve_steering_weight(bad)
    bad = [[2.0 * m for m in row] for row in good]  # traces sum to 2
    with pytest.raises(ValueError, match=r"setting 0: member traces sum to "
                       r"2\.0, expected 1"):
        solve_steering_weight(bad)
    bad = [[m.copy() for m in row] for row in good]
    bad[0][0] = bad[0][0] - 0.5 * np.eye(2)  # negative, and traces off
    with pytest.raises(ValueError, match=r"setting 0: member traces sum to "
                       r"0\.0, expected 1"):
        solve_steering_weight(bad)  # the eigenvalue check comes last
    for value, entry in ((np.nan, (0, 1)), (np.inf, (0, 0))):
        bad = [[m.copy() for m in row] for row in good]
        bad[1][0][entry] = value  # one non-finite entry in (0|1)
        with pytest.raises(ValueError,
                           match=r"member \(0\|1\) has a non-finite entry"):
            solve_steering_weight(bad)


def _malformed(kind):
    bad = [[m.copy() for m in row]
           for row in isotropic_assemblage(0.5, [PX, PZ])]
    if kind == "trace":
        bad[0][1] = 2.0 * bad[0][1]
    elif kind == "hermitian":
        bad[1][0] = bad[1][0] + 0.2j * PX
    elif kind == "negative":  # traces and marginals kept
        bad[0][0] = bad[0][0] + 0.5 * PZ
        bad[0][1] = bad[0][1] - 0.5 * PZ
    else:  # traces kept, marginal moved
        bad[1] = [m + 0.1 * PZ for m in bad[1]]
    return bad


@pytest.mark.parametrize("kind", ["trace", "hermitian", "negative",
                                  "signalling"])
def test_first_order_rejects_what_the_solver_rejects(kind):
    with pytest.raises(ValueError) as ipm_err:
        solve_steering_weight(_malformed(kind))
    with pytest.raises(ValueError) as oracle_err:
        first_order_steering_weight(_malformed(kind))
    assert str(oracle_err.value) == str(ipm_err.value)


@pytest.mark.parametrize("n_settings, n_outcomes",
                         [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_selection_matches_strategy_enumeration(n_settings, n_outcomes):
    a_mat, pinv = selection(n_settings, n_outcomes)
    strategies = enumerate_strategies(n_settings, n_outcomes)
    assert a_mat.shape == (n_settings * n_outcomes, len(strategies))
    for strat in strategies:
        for x in range(n_settings):
            for a in range(n_outcomes):
                assert a_mat[x * n_outcomes + a, strat.index] == \
                    strat.selects(a, x)
    np.testing.assert_allclose(a_mat @ pinv @ a_mat, a_mat, atol=1e-12)
    np.testing.assert_allclose(pinv @ a_mat @ pinv, pinv, atol=1e-12)
    for arr in (a_mat, pinv):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5


def test_cached_index_tables_are_read_only():
    # every later svec/smat or Pauli build shares these cached arrays, so
    # an in-place write into one must raise instead of corrupting them
    from qscramble.models import _popcount_table
    for arr in _kernels.svec_indices(4) + (_popcount_table(3),):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr += 1
    np.testing.assert_array_equal(_kernels.svec_indices(4)[0], range(4))
    np.testing.assert_array_equal(_popcount_table(3), [0, 1, 1, 2, 1, 2, 2, 3])


def test_strategy_margin_matches_per_strategy_loop(rng):
    # the selection-matrix contraction sums the same operators as the
    # per-strategy loop, in another order: tolerance set from float64
    cert = _random_herm_stack(rng, 6, 3)
    expected = min(
        float(np.linalg.eigvalsh(sum(cert[x * 2 + s.outcomes[x]]
                                     for x in range(3)) - np.eye(3))[0])
        for s in enumerate_strategies(3, 2))
    a_mat, _ = selection(3, 2)
    got = sdp_problem._worst_strategy_margin(a_mat, cert)
    assert got == pytest.approx(expected, abs=1e-12)


def _nested(stack):
    return [[np.array(m) for m in row] for row in stack]


@pytest.mark.parametrize("case, ipm_iterates", [
    ("isotropic-xz", False), ("isotropic-xyz", True), ("mixed-rank", True),
    ("unit-t0", False), ("ising-zero", False)])
def test_list_and_array_members_agree(case, ipm_iterates):
    # the zero exit (isotropic xz at eta = 0.5, Ising region D at t = 20),
    # the unreduced and the partly reduced interior-point solve, and the
    # eliminated unit weight of region C at t = 0
    members = {
        "isotropic-xz": lambda: isotropic_assemblage(0.5, [PX, PZ]),
        "isotropic-xyz": lambda: isotropic_assemblage(0.8, [PX, PY, PZ]),
        "mixed-rank": lambda: mixed_rank_assemblage(0.2),
        "unit-t0": lambda: _nested(_ising_region(5, 0.0, ("q1", "q2"))),
        "ising-zero": lambda: _nested(
            _ising_region(5, 20.0, ("q3", "q4", "q5"))),
    }[case]()
    stack = np.array(members)
    from_list = solve_steering_weight(members)
    from_array = solve_steering_weight(stack)
    assert (from_list.iterations > 0) == ipm_iterates
    assert from_list.steerable_weight == from_array.steerable_weight
    assert from_list.mu_star == from_array.mu_star
    assert from_array.hidden_states.shape[1:] == stack.shape[2:]
    np.testing.assert_array_equal(from_list.hidden_states,
                                  from_array.hidden_states)
    assert from_array.dual_certificate.shape == stack.shape
    np.testing.assert_array_equal(from_list.dual_certificate,
                                  from_array.dual_certificate)
    rebuilt = dataclasses.replace(
        from_array, dual_certificate=_nested(from_array.dual_certificate))
    for form in (members, stack):
        assert verify_certificate(form, from_array)
        assert verify_certificate(form, rebuilt)


def test_strategy_enumeration():
    strategies = enumerate_strategies(3, 2)
    assert len(strategies) == 8
    assert strategies[5].outcomes == (1, 0, 1)
    assert strategies[5].selects(1, 0) and strategies[5].selects(0, 1)
    assert [s.index for s in strategies] == list(range(8))
    with pytest.raises(ValueError):
        enumerate_strategies(0, 2)


def test_first_order_against_analytic():
    members = isotropic_assemblage(0.8, [PX, PY, PZ])
    res = first_order_steering_weight(members, tol=1e-9)
    assert res.converged
    assert res.weight == pytest.approx(mub_weight(3, 0.8), abs=1e-6)
    assert res.residual < 1e-8
    assert 0 < res.iterations


def test_first_order_on_unsteerable_input():
    res = first_order_steering_weight(isotropic_assemblage(0.5, [PX, PY, PZ]),
                                      tol=1e-9)
    assert res.converged
    assert abs(res.weight) < 1e-6


def test_routes_agree_on_random_instance(rng):
    members = bloch_assemblage(random_steerable_state(rng),
                               rng.normal(size=(3, 3)))
    sol = solve_steering_weight(members)
    res = first_order_steering_weight(members, tol=1e-8)
    assert sol.steerable_weight == pytest.approx(res.weight, abs=1e-5)


def test_schur_cap_guard(monkeypatch):
    members = isotropic_assemblage(0.8, [PX, PY, PZ])
    monkeypatch.setattr(sdp_problem, "_SCHUR_BYTE_CAP", 1.0)
    with pytest.raises(NumericalFailure, match="Schur system"):
        solve_steering_weight(members)


def test_kernel_svec_smat_batch_matches_per_matrix(rng):
    # the first-order oracle vectorizes every cone block in one call; each
    # slice must be bitwise what the single-matrix call gives
    x = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    x = x + x.conj().swapaxes(-1, -2)
    v = _kernels.svec(x)
    assert v.shape == (2, 3, 16)
    back = _kernels.smat(v, 4)
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(v[i, j], _kernels.svec(x[i, j]))
            np.testing.assert_array_equal(back[i, j],
                                          _kernels.smat(v[i, j], 4))
    np.testing.assert_allclose(back, x, atol=1e-13)


@pytest.mark.parametrize("s, r", [(4, 4), (3, 5), (5, 2)])
def test_kernel_congruence_action(rng, s, r):
    # congruence_rep(G) acting on svec(X) must equal svec(G X G^H); facial
    # reduction hands the solver rectangular G, so s != r is covered too
    g = rng.normal(size=(s, r)) + 1j * rng.normal(size=(s, r))
    x = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    x = x + x.conj().T
    v = _kernels.svec(x)
    np.testing.assert_allclose(_kernels.smat(v, r), x, atol=1e-13)
    rep = _kernels.congruence_rep(g)
    assert rep.shape == (s * s, r * r)
    lhs = rep @ v
    rhs = _kernels.svec(g @ x @ g.conj().T)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _random_pd_stack(rng, n_blocks, d):
    a = rng.normal(size=(n_blocks, d, d)) + 1j * rng.normal(size=(n_blocks, d, d))
    return a @ a.conj().swapaxes(-1, -2) + 0.5 * np.eye(d)


def _random_herm_stack(rng, n_blocks, d):
    a = rng.normal(size=(n_blocks, d, d)) + 1j * rng.normal(size=(n_blocks, d, d))
    return a + a.conj().swapaxes(-1, -2)


def test_batched_step_length_matches_per_block_reference(rng):
    # two stacks of different block sizes in one call, against the
    # two-triangular-solve loop; tolerance fixed before the comparison
    xs = [_random_pd_stack(rng, 4, 3), _random_pd_stack(rng, 3, 5)]
    ls = [np.linalg.cholesky(m) for m in xs]
    l_inv = [np.linalg.inv(m) for m in ls]
    deltas = [_random_herm_stack(rng, 4, 3), _random_herm_stack(rng, 3, 5)]
    expected = min(max_step(lk, dk) for lg, dg in zip(ls, deltas)
                   for lk, dk in zip(lg, dg))
    step = ipm._step_length(l_inv, deltas)
    assert np.isfinite(expected)
    np.testing.assert_allclose(step, expected, rtol=1e-10)

    def per_block_pd(alpha):
        return all(np.linalg.eigvalsh(xk + alpha * dk)[0] > 0.0
                   for xg, dg in zip(xs, deltas) for xk, dk in zip(xg, dg))

    for alpha, pd in ((0.9 * step, True), (1.1 * step, False)):
        trial = [xg + alpha * dg for xg, dg in zip(xs, deltas)]
        assert ipm._all_pd(trial) == per_block_pd(alpha) == pd

    # a PSD direction never leaves the cone: the step is unbounded
    psd = [_random_pd_stack(rng, 4, 3), _random_pd_stack(rng, 3, 5)]
    assert all(max_step(lk, dk) == np.inf for lg, dg in zip(ls, psd)
               for lk, dk in zip(lg, dg))
    assert ipm._step_length(l_inv, psd) == np.inf
    assert ipm._all_pd([xg + 1e3 * dg for xg, dg in zip(xs, psd)])


def _capture_conic_calls(monkeypatch):
    calls = []
    real = ipm.solve_conic

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(ipm, "solve_conic", spy)
    return calls


def test_solve_with_blocks_of_several_sizes(monkeypatch):
    # rank-deficient members shrink some strategy and slack blocks, so the
    # solver holds stacks of three block sizes; weight frozen from the
    # per-block solver
    calls = _capture_conic_calls(monkeypatch)
    members = mixed_rank_assemblage(0.2)
    sol = solve_steering_weight(members)
    (c_blocks, *_), _, _ = calls[0]
    assert sorted({len(c) for c in c_blocks}) == [1, 2, 3]
    assert sol.reduced and not sol.eliminated
    assert sol.status == "Optimal"
    assert verify_certificate(members, sol)
    assert sol.steerable_weight == pytest.approx(0.644175972291354, abs=1e-9)


def test_backtracking_exhaustion_keeps_last_accepted_iterate(monkeypatch):
    calls = _capture_conic_calls(monkeypatch)
    solve_steering_weight(mixed_rank_assemblage(0.2))
    monkeypatch.undo()
    args, kwargs, _ = calls[0]
    kwargs = dict(kwargs, max_iter=2)
    reference = ipm.solve_conic(*args, **kwargs)
    assert reference.status == "MaxIterations"

    # from the third iteration on, no trial step passes the PSD check
    real_all_pd = ipm._all_pd
    iteration = [0]

    def track(it, *_):
        iteration[0] = it

    monkeypatch.setattr(ipm, "_all_pd",
                        lambda stacks: iteration[0] < 3 and real_all_pd(stacks))
    res = ipm.solve_conic(*args, **dict(kwargs, max_iter=50, callback=track))
    assert res.status == "NumericalFailure"
    assert res.iterations == 3
    for got, want in zip(res.x + res.z, reference.x + reference.z):
        assert np.linalg.eigvalsh(got)[0] > 0.0
        np.testing.assert_array_equal(got, want)
    for got, want in zip(res.y, reference.y):
        np.testing.assert_array_equal(got, want)


def test_failed_iterate_factorization_ends_the_solve(monkeypatch):
    # from the third iteration on, the Cholesky factorization of every x
    # and z stack fails; the 2-D Schur factorizations are left alone.
    # The solve ends there with the last accepted iterate, as backtracking
    # exhaustion does, and the witness row carries the label
    calls = _capture_conic_calls(monkeypatch)
    solve_steering_weight(mixed_rank_assemblage(0.2))
    monkeypatch.undo()
    args, _, _ = calls[0]
    reference = ipm.solve_conic(*args, max_iter=2)
    assert reference.status == "MaxIterations"

    real_cholesky, real_solve = np.linalg.cholesky, ipm.solve_conic
    iteration = [0]

    def track(it, *_):
        iteration[0] = it

    def flaky(mat):
        if mat.ndim == 3 and iteration[0] >= 2:
            raise np.linalg.LinAlgError("injected")
        return real_cholesky(mat)

    monkeypatch.setattr(np.linalg, "cholesky", flaky)
    res = real_solve(*args, max_iter=50, callback=track)
    assert res.status == "NumericalFailure"
    assert res.iterations == 3
    for got, want in zip(res.x + res.z + res.y,
                         reference.x + reference.z + reference.y):
        np.testing.assert_array_equal(got, want)

    def faulty_solve(*args, **kwargs):
        # the fault starts over with each solve and stays out of the
        # exact-zero proofs between solves
        try:
            return real_solve(*args, callback=track, **kwargs)
        finally:
            iteration[0] = 0

    iteration[0] = 0
    monkeypatch.setattr(ipm, "solve_conic", faulty_solve)
    # U = exp(-i theta Z2 X3 / 2) SWAP(q1, q2) at theta = 0.3: region C
    # needs the IPM, region D = {q3} is an exact zero
    rot = (np.cos(0.15) * np.eye(8) - 1j * np.sin(0.15) * pauli_matrix("IZX"))
    rec = minus_t3(build_choi(rot @ swap_network(3, [(1, 2)])),
                   ("q1", "q2"), ("q3",))
    assert rec.status == "C:NumericalFailure/D:Optimal"
    assert 0.0 < rec.tsw_c < 1.0 and rec.tsw_d == 0.0
    assert rec.minus_t3 == rec.tsw_total - rec.tsw_c - rec.tsw_d


@pytest.mark.parametrize("p", [1, 31, 32, 33, 96, 100])
def test_cholesky_solve_matches_dense_solve(rng, p):
    # sizes around the 32-row substitution block, and the Schur sizes of
    # the small scans
    a = rng.standard_normal((p, p))
    mat = a @ a.T + p * np.eye(p)
    b = rng.standard_normal(p)
    x = ipm.cho_solve(ipm.cho_factor(mat), b)
    ref = np.linalg.solve(mat, b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cholesky_rejects_indefinite_matrix(rng):
    a = rng.standard_normal((40, 40))
    mat = a @ a.T + np.eye(40)
    mat[35, 35] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        ipm.cho_factor(mat)


def _failing_cho_factor(monkeypatch, failures):
    """Make the first ``failures`` Schur factorizations raise."""
    real = ipm.cho_factor
    calls = [0]

    def flaky(mat):
        calls[0] += 1
        if calls[0] <= failures:
            raise np.linalg.LinAlgError("injected")
        return real(mat)

    monkeypatch.setattr(ipm, "cho_factor", flaky)
    return calls


def test_schur_factorization_retries_regularised(monkeypatch):
    members = isotropic_assemblage(0.8, [PX, PY, PZ])
    reference = solve_steering_weight(members)
    assert reference.status == "Optimal" and reference.iterations > 0
    calls = _failing_cho_factor(monkeypatch, 1)
    sol = solve_steering_weight(members)
    assert calls[0] > 1
    assert sol.status == "Optimal"
    assert sol.steerable_weight == pytest.approx(reference.steerable_weight,
                                                 abs=1e-7)


def test_schur_factorization_failing_twice_is_a_numerical_failure(
        monkeypatch):
    calls = _failing_cho_factor(monkeypatch, 2)
    sol = solve_steering_weight(isotropic_assemblage(0.8, [PX, PY, PZ]))
    assert calls[0] == 2
    assert sol.status == "NumericalFailure"


def test_solvers_never_import_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import qscramble",
        "from qscramble.sdp import first_order_steering_weight, "
        "solve_steering_weight",
        "eta = 0.8",
        "pauli = [np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])]",
        "members = [[(np.eye(2) + s * eta * p) / 4 for s in (1, -1)]",
        "           for p in pauli]",
        "assert solve_steering_weight(members).iterations > 0",
        "assert first_order_steering_weight(members, tol=1e-6).converged",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_first_order_oracle_binds_nothing_from_the_ipm():
    # the oracle is a second route only if it shares no svec coordinates,
    # kernels or conic solver with the interior-point path
    from qscramble.sdp import firstorder
    foreign = {"qscramble.sdp._kernels", "qscramble.sdp.ipm"}
    bound = sorted(name for name, obj in vars(firstorder).items()
                   if getattr(obj, "__module__", None) in foreign
                   or getattr(obj, "__name__", None) in foreign)
    assert bound == []


def _ising_region(n, t, region):
    prop = Propagator(build_ising(n, 1.0, 0.5).matrix())
    return temporal_assemblage(build_choi(prop.unitary(t)),
                               MeasurementSet.pauli(), region)


# grid points of the scans' 41- and 13-point grids on [0, 40]; at t = 20
# region D's least-norm seed is not PSD, so the reflections are exercised
@pytest.mark.parametrize("n, region", [
    (5, ("q1", "q2")), (5, ("q3", "q4", "q5")),
    (6, ("q1", "q2")), (6, ("q3", "q4", "q5", "q6"))],
    ids=["n5-C", "n5-D", "n6-C", "n6-D"])
def test_zero_exit_certifies_ising_grid_point(n, region):
    members = _ising_region(n, 20.0, region)
    sol = solve_steering_weight(members)
    assert sol.status == "Optimal"
    assert sol.iterations == 0 and sol.gap == 0.0
    assert not sol.reduced and not sol.eliminated
    assert min(np.linalg.eigvalsh(h)[0] for h in sol.hidden_states) >= 0.0
    assert equality_residual(members, sol.hidden_states) <= 1e-12
    assert sol.steerable_weight == 0.0
    assert verify_certificate(members, sol)
    for row in sol.dual_certificate:
        for f in row:
            np.testing.assert_array_equal(f, np.eye(len(f)) / len(members))
    res = first_order_steering_weight(members, tol=1e-8)
    assert res.converged
    assert abs(res.weight - sol.steerable_weight) <= 1e-6


@pytest.mark.parametrize("members, weight", [
    (isotropic_assemblage(0.8, [PX, PY, PZ]), mub_weight(3, 0.8)),
    (mixed_rank_assemblage(0.2), 0.644175972291354)],
    ids=["isotropic", "mixed-rank"])
def test_zero_exit_never_taken_when_steerable(members, weight):
    assert sdp_problem._exact_zero_weight(
        SteeringWeightProblem(members)) is None
    sol = solve_steering_weight(members)
    assert sol.iterations > 0
    assert sol.steerable_weight == pytest.approx(weight, abs=5e-7)


def test_zero_exit_needs_exact_equalities():
    # a signalling defect of 1e-9 passes validation, but then no local
    # model meets the equalities to 1e-12, so the IPM takes the solve
    members = isotropic_assemblage(0.3, [PX, PY, PZ])
    members[0][0] = members[0][0] + 1e-9 * PZ
    assert sdp_problem._exact_zero_weight(
        SteeringWeightProblem(members)) is None
    assert solve_steering_weight(members).iterations > 0


def test_zero_exit_skips_reflections_when_rank_deficient(monkeypatch):
    # a floor <= 0 member leaves no room for the shrunken cone; the
    # reflections are the exit's only eigh calls
    def no_reflections(*_):
        raise AssertionError("reflection ran")

    full_rank = SteeringWeightProblem(_ising_region(5, 20.0,
                                                    ("q3", "q4", "q5")))
    rank_deficient = SteeringWeightProblem(_ising_region(5, 0.0,
                                                         ("q1", "q2")))
    monkeypatch.setattr(np.linalg, "eigh", no_reflections)
    with pytest.raises(AssertionError, match="reflection ran"):
        sdp_problem._exact_zero_weight(full_rank)
    assert sdp_problem._exact_zero_weight(rank_deficient) is None


def test_zero_exit_at_member_dimension_32():
    # region D of the CLI default n = 7: past the point where the
    # interior-point method takes tens of seconds
    members = _ising_region(7, 20.0, tuple(f"q{i}" for i in range(3, 8)))
    sol = solve_steering_weight(members)
    assert len(members[0][0]) == 32
    assert sol.status == "Optimal" and sol.iterations == 0
    assert sol.steerable_weight == 0.0
    assert verify_certificate(members, sol)


def test_member_data_is_computed_once_per_solve(monkeypatch):
    # with the Schur cap at zero no route but the exact-zero exit remains;
    # its search zeroes this region from one least-norm model and one
    # eigensolve of the stacked members
    members = _ising_region(5, 20.0, ("q3", "q4", "q5"))
    monkeypatch.setattr(sdp_problem, "_SCHUR_BYTE_CAP", 1.0)
    stack = np.stack([m for row in members for m in row])
    selections, member_eigensolves = [], []
    selection, eigvalsh = sdp_problem.selection, np.linalg.eigvalsh

    def count_selection(*args):
        selections.append(args)
        return selection(*args)

    def count_eigvalsh(a, *args, **kwargs):
        if np.shape(a) == stack.shape and np.array_equal(a, stack):
            member_eigensolves.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(sdp_problem, "selection", count_selection)
    monkeypatch.setattr(np.linalg, "eigvalsh", count_eigvalsh)
    sol = solve_steering_weight(members)
    assert sol.status == "Optimal" and sol.iterations == 0
    assert sol.steerable_weight == 0.0
    assert len(selections) == 1
    assert len(member_eigensolves) == 1


# grid points where the region's least-norm seed is positive definite
@pytest.mark.parametrize("n, t, region", [
    (5, 10.0, ("q3", "q4", "q5")), (6, 20.0, ("q1", "q2"))],
    ids=["n5-D", "n6-C"])
def test_zero_exit_proves_positive_definite_seed_without_eigensolve(
        monkeypatch, n, t, region):
    def no_eigensolve(*_, **__):
        raise AssertionError("eigensolve ran")

    members = _ising_region(n, t, region)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        patch.setattr(np.linalg, "eigh", no_eigensolve)
        sol = solve_steering_weight(members)
    assert sol.status == "Optimal" and sol.iterations == 0
    assert sol.steerable_weight == 0.0
    assert np.linalg.eigvalsh(sol.hidden_states)[:, 0].min() >= 0.0
    assert equality_residual(members, sol.hidden_states) <= 1e-12
    assert verify_certificate(members, sol)


@pytest.mark.parametrize("n, points, zeros, steerable",
                         [(5, 41, 80, 2), (6, 13, 25, 1)], ids=["n5", "n6"])
def test_cholesky_exit_accepts_what_the_eigvalsh_route_accepts(
        n, points, zeros, steerable):
    # on the scans' grids the one prover accepts only models that an
    # eigvalsh floor and the strategy-by-strategy equalities re-prove, and
    # every region it rejects has a positive interior-point or unit weight
    prop = Propagator(build_ising(n, 1.0, 0.5).matrix())
    regions = (("q1", "q2"), tuple(f"q{i}" for i in range(3, n + 1)))
    accepted = rejected = 0
    for t in np.linspace(0.0, 40.0, points):
        choi = build_choi(prop.unitary(t))
        for region in regions:
            members = temporal_assemblage(choi, MeasurementSet.pauli(),
                                          region)
            zero = sdp_problem._exact_zero_weight(
                SteeringWeightProblem(members))
            if zero is None:
                sol = solve_steering_weight(members)
                assert sol.iterations > 0 or sol.steerable_weight == 1.0
                assert sol.steerable_weight > 0.5, (t, region)
                rejected += 1
                continue
            assert zero.mu_star == 1.0 and zero.steerable_weight == 0.0
            floor = np.linalg.eigvalsh(zero.hidden_states)[:, 0].min()
            assert floor >= 0.0, (t, region)
            assert equality_residual(members, zero.hidden_states) <= 1e-12
            accepted += 1
    assert (accepted, rejected) == (zeros, steerable)


def test_negative_member_rejected_before_reduction(monkeypatch):
    # without the exit, the solver still reads the member eigenvalues
    # before facial reduction, and the oracle does the same
    monkeypatch.setattr(sdp_problem, "_exact_zero_weight", lambda p: None)
    reductions = []
    reduce = SteeringWeightProblem.reduce
    monkeypatch.setattr(SteeringWeightProblem, "reduce",
                        lambda self: reductions.append(self) or reduce(self))
    for solver in (solve_steering_weight, first_order_steering_weight):
        with pytest.raises(ValueError, match="has negative eigenvalue"):
            solver(_malformed("negative"))
    assert not reductions
    unchecked = SteeringWeightProblem(_malformed("negative"), validate=False)
    assert unchecked.floor < 0.0


def _face_reference(members):
    """Face projector of every strategy and the eliminated strategies.

    Each member's support keeps the eigenvectors above max(1e-10 lambda_max,
    1e-12); a strategy's face is the null space, by SVD, of the complement
    projectors of the members it selects stacked on top of each other.
    """
    flat = np.asarray(members, dtype=complex).reshape(
        -1, *np.shape(members)[-2:])
    dim = flat.shape[-1]
    comps = []
    for m in flat:
        w, v = np.linalg.eigh(m)
        keep = v[:, w > max(1e-10 * w[-1], 1e-12)]
        comps.append(np.eye(dim) - keep @ keep.conj().T)
    a_mat, _ = selection(*np.shape(members)[:2])
    faces, eliminated = [], []
    for lam, column in enumerate(a_mat.T):
        _, s, vh = np.linalg.svd(np.vstack([comps[r]
                                            for r in np.flatnonzero(column)]))
        assert ((s < 1e-6) | (s > 0.1)).all()   # a clean kernel gap
        null = vh[s < 1e-6].conj().T
        faces.append(null @ null.conj().T)
        if not null.shape[1]:
            eliminated.append(lam)
    return faces, tuple(eliminated)


def _two_qubit_swap_then_cnot():
    # SWAP, then CNOT with control q2 and target q1 (q1 is the leading bit)
    cnot = np.eye(4)[:, [0, 3, 2, 1]]
    return cnot @ swap_network(2, [(1, 2)])


def _near_threshold_assemblage(ratio):
    # sigma_{0|Z} has lambda_min / lambda_max = ratio; the X members are
    # sharp, so every strategy that keeps a qubit line is eliminated
    plus = np.full((2, 2), 0.5, dtype=complex)
    return [[np.diag([1.0, ratio]).astype(complex) / 2,
             np.diag([0.0, 1.0 - ratio]).astype(complex) / 2],
            [plus / 2, (np.eye(2) - plus) / 2]]


def _region(unitary, region):
    return temporal_assemblage(build_choi(unitary), MeasurementSet.pauli(),
                               region)


_FACE_CASES = {
    "mixed-rank-0.2": lambda: mixed_rank_assemblage(0.2),
    "mixed-rank-0.5": lambda: mixed_rank_assemblage(0.5),
    # the largest eta at which the noisy settings stay PSD: all six
    # members are rank deficient
    "mixed-rank-edge": lambda: mixed_rank_assemblage(1 / (3 * np.sqrt(2))),
    "identity-q1": lambda: _region(np.eye(8), ("q1",)),
    "identity-q1q2": lambda: _region(np.eye(8), ("q1", "q2")),
    "rotated-swap-q1q2": lambda: _region(
        (np.cos(0.35) * np.eye(8) - 1j * np.sin(0.35) * pauli_matrix("IZX"))
        @ swap_network(3, [(1, 2)]), ("q1", "q2")),
    "swap-cnot-q2": lambda: _region(_two_qubit_swap_then_cnot(), ("q2",)),
    "swap-q1q7-d64": lambda: _region(swap_network(7, [(1, 7)]),
                                     tuple(f"q{i}" for i in range(2, 8))),
    "near-threshold-1e-9": lambda: _near_threshold_assemblage(1e-9),
    "near-threshold-1e-11": lambda: _near_threshold_assemblage(1e-11),
}


@pytest.mark.parametrize("case", list(_FACE_CASES), ids=list(_FACE_CASES))
def test_reduce_faces_match_stacked_null_space(case):
    members = _FACE_CASES[case]()
    # at eta = 0.5 the noisy members of mixed_rank_assemblage have negative
    # eigenvalues, which validation rejects; their supports are still
    # defined, by the same rule
    red = SteeringWeightProblem(members, validate=case != "mixed-rank-0.5"
                                ).reduce()
    faces, eliminated = _face_reference(members)
    assert red.eliminated == eliminated
    for q, face in zip(red.q_bases, faces, strict=True):
        np.testing.assert_allclose(q @ q.conj().T, face, atol=1e-10)


def test_vanishing_member_leaves_the_weight_unchanged():
    # a zero third effect per setting: its member has an empty support, and
    # the 19 of 27 strategies that ever answer it are eliminated exactly
    base = isotropic_assemblage(0.8, [PX, PY, PZ])
    padded = [row + [np.zeros((2, 2), dtype=complex)] for row in base]
    sol = solve_steering_weight(padded)
    assert sol.steerable_weight == solve_steering_weight(base).steerable_weight
    assert sol.steerable_weight == pytest.approx(mub_weight(3, 0.8), abs=5e-7)
    assert verify_certificate(padded, sol)
    assert sol.reduced and len(sol.eliminated) == 19


def test_full_rank_solve_reduces_without_eigensolve(monkeypatch):
    # the one interior-point solve of the ising-n5 scan: its members have
    # full rank, so the reduction is the identity and decomposes nothing
    members = _ising_region(5, 1.0, ("q1", "q2"))
    inside, calls = [], []
    reduce, eigh = SteeringWeightProblem.reduce, np.linalg.eigh

    def spy_reduce(self):
        inside.append(True)
        try:
            return reduce(self)
        finally:
            inside.pop()

    def spy_eigh(a, *args, **kwargs):
        if inside:
            calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(SteeringWeightProblem, "reduce", spy_reduce)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    sol = solve_steering_weight(members)
    assert sol.iterations > 0 and not sol.reduced
    assert sol.steerable_weight == pytest.approx(0.676, abs=5e-4)
    assert calls == []
