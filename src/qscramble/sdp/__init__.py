"""Steerable-weight semidefinite programming.

Public surface: strategy enumeration, the steering-weight problem with
its one entry point :func:`solve_steering_weight` (exact exits and the
interior-point solver, whose internals stay in :mod:`.ipm`) and
certificates, :class:`NumericalFailure`, and a first-order oracle used
to cross-check the solver in tests.  Both solvers take the members as a
(settings, outcomes, d, d) array or as nested lists, and validate them
the same way; hidden states come back as a (strategies, d, d) array and
certificates shaped like the members.
"""

from .firstorder import FirstOrderResult, first_order_steering_weight
from .ipm import NumericalFailure
from .problem import (SdpSolution, SteeringWeightProblem,
                      solve_steering_weight, verify_certificate)
from .strategies import (MAX_STRATEGIES, DeterministicStrategy,
                         enumerate_strategies)

__all__ = [
    "FirstOrderResult",
    "first_order_steering_weight",
    "NumericalFailure",
    "SdpSolution",
    "SteeringWeightProblem",
    "solve_steering_weight",
    "verify_certificate",
    "MAX_STRATEGIES",
    "DeterministicStrategy",
    "enumerate_strategies",
]
