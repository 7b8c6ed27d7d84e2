"""The whole invariant suite of ``qscramble verify``, one test per check.

The checks that only repeated a single function's oracle were folded into
that function's unit tests, which now make every one of their assertions.
Each keeps its id here and runs those unit tests, so the assertions have
one home and the ids still name what they covered.
"""

import functools
import inspect

import numpy as np
import pytest

import test_acceptance as acceptance_tests
import test_channels as channels_tests
import test_models as models_tests
import test_qla as qla_tests
import test_sdp as sdp_tests
from qscramble import verify


def _run_unit_tests(*tests):
    def check(quick):
        for test in tests:
            if "rng" in inspect.signature(test).parameters:
                # a fresh copy of the conftest ``rng`` fixture per test
                test(rng=np.random.default_rng(2053))
            else:
                test()
    return check


def _marginal_test(other_references):
    return functools.partial(
        channels_tests.test_marginal_matches_dense_partial_trace,
        other_references=other_references)


#: folded checks, each with the unit tests that now make its assertions;
#: the acceptance criteria run undecorated so they leave no summary line
FOLDED = [
    ("kron index formula", _run_unit_tests(
        qla_tests.test_kron_matches_numpy_chain)),
    ("partial trace oracle", _run_unit_tests(
        _marginal_test(False), _marginal_test(True),
        qla_tests.test_partial_trace_bell_pair,
        qla_tests.test_partial_trace_keep_all_is_identity,
        qla_tests.test_partial_trace_preserves_trace_and_hermiticity,
        qla_tests.test_partial_trace_ghz_marginal)),
    ("partial transpose", _run_unit_tests(
        qla_tests.test_partial_transpose_is_involution,
        qla_tests.test_partial_transpose_keeps_product_states_positive)),
    ("hermitian eigensolve", _run_unit_tests(
        qla_tests.test_hermitian_eig_check)),
    ("propagator", _run_unit_tests(
        qla_tests.test_propagator_matches_expm,
        qla_tests.test_propagator_group_property)),
    ("entropy and mutual information", _run_unit_tests(
        qla_tests.test_entropy_pure_and_mixed,
        qla_tests.test_entropy_known_diagonal,
        qla_tests.test_mutual_information_bell_and_product,
        qla_tests.test_mutual_information_ghz_pair)),
    ("pauli string algebra", _run_unit_tests(
        models_tests.test_pauli_string_product_and_matrix)),
    ("ising matrix", _run_unit_tests(
        models_tests.test_build_ising_matches_dense_sum,
        models_tests.test_build_ising_integrable_has_no_longitudinal_field)),
    ("jordan-wigner anticommutators", _run_unit_tests(
        models_tests.test_jordan_wigner_anticommutators)),
    ("syk coupling moments", _run_unit_tests(
        models_tests.test_build_syk_seed_determinism,
        models_tests.test_build_syk_shape_and_symmetries,
        models_tests.test_build_syk_coupling_scale)),
    ("scrambler conjugation table", _run_unit_tests(
        acceptance_tests.test_criterion_06_conjugation_identities.__wrapped__,
        models_tests.test_clifford_scrambler_is_unitary)),
    ("scan circuit", _run_unit_tests(
        models_tests.test_clifford_scan_endpoints,
        models_tests.test_clifford_scan_shift_is_local,
        acceptance_tests.test_criterion_05_clifford_interpolation.__wrapped__)),
    ("haar moment", _run_unit_tests(models_tests.test_haar_first_moment)),
    ("strategy enumeration", _run_unit_tests(
        sdp_tests.test_strategy_enumeration)),
]


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS + FOLDED],
                         ids=[name for name, _ in verify.CHECKS + FOLDED])
def test_verify_check_quick(check):
    check(True)
