"""Steerable-weight semidefinite programming.

Public surface: strategy enumeration, the steering-weight problem with
its one entry point :func:`solve_steering_weight` (exact exits and the
interior-point solver) and certificates, and a first-order oracle used
to cross-check the solver in tests.  Both solvers take the members as a
(settings, outcomes, d, d) array or as nested lists, and validate them
the same way; hidden states come back as a (strategies, d, d) array and
certificates shaped like the members.
"""

from ._kernels import congruence_rep, smat, svec, svec_indices
from .firstorder import FirstOrderResult, first_order_steering_weight
from .ipm import ConicResult, NumericalFailure, solve_conic
from .problem import (SdpSolution, SteeringWeightProblem,
                      solve_steering_weight, verify_certificate)
from .strategies import (MAX_STRATEGIES, DeterministicStrategy,
                         enumerate_strategies)

__all__ = [
    "congruence_rep",
    "smat",
    "svec",
    "svec_indices",
    "FirstOrderResult",
    "first_order_steering_weight",
    "ConicResult",
    "NumericalFailure",
    "solve_conic",
    "SdpSolution",
    "SteeringWeightProblem",
    "solve_steering_weight",
    "verify_certificate",
    "MAX_STRATEGIES",
    "DeterministicStrategy",
    "enumerate_strategies",
]
