"""First-order cross-check for the steerable weight.

Douglas-Rachford splitting on the raw primal (no facial reduction, no
Schur complement, no scaling) over the L hidden states and R member
slacks, held as one complex (L + R, d, d) stack U.  With M = [A | 1] the
constraints sum_lam D_lam(a|x) sigma_lam + G_{a|x} = sigma_{a|x} read
M U = B, so one step is the affine projection (1 - M^T (M M^T)^-1 M) U
plus a fixed offset, paying the linear objective; the other projects
every block onto the PSD cone with one batched ``eigh``.  Only the input
validation, the selection matrix A and its stack product are shared
with the interior-point path: no svec coordinates, no Schur system, no
conic solver, which makes it a genuine second route for tests.  It is
also much slower, so it stays a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import SteeringWeightProblem, _apply


@dataclass
class FirstOrderResult:
    weight: float
    mu: float
    residual: float
    iterations: int
    converged: bool


def first_order_steering_weight(members, tol: float = 1e-10,
                                max_iter: int = 200000) -> FirstOrderResult:
    """Steerable weight by projected splitting on the unreduced primal.

    ``members`` is validated exactly as :func:`solve_steering_weight`
    validates it.  Suited to generic (full-rank) assemblages of small
    dimension; exact boundary instances converge slowly and belong to the
    interior-point path with its facial reduction.
    """
    problem = SteeringWeightProblem(members)
    problem.eigenvalues  # rejects a negative member, as the solver does
    n_members, n_strat = problem.a_mat.shape
    m_mat = np.hstack([problem.a_mat, np.eye(n_members)])
    lift = np.linalg.solve(m_mat @ m_mat.T, m_mat).T     # M^T (M M^T)^-1
    to_null = np.eye(n_strat + n_members) - lift @ m_mat
    offset = _apply(lift, problem.flat)

    c_mat = np.zeros_like(offset)
    c_mat[:n_strat] = -np.eye(problem.dim)

    def proj_affine(u):
        return _apply(to_null, u) + offset

    def proj_cone(u):
        # every block at once: one batched eigh per iteration
        evals, evecs = np.linalg.eigh(u)
        evals = np.clip(evals, 0.0, None)
        return (evecs * evals[:, None, :]) @ evecs.conj().swapaxes(-1, -2)

    s_mat = np.zeros_like(offset)
    residual = np.inf
    it = 0
    check_every = 25
    for it in range(1, max_iter + 1):
        y = proj_affine(s_mat - c_mat)
        u = proj_cone(2.0 * y - s_mat)
        s_mat += u - y
        if it % check_every == 0:
            residual = float(np.linalg.norm(u - y) / (1.0 + np.linalg.norm(y)))
            if residual <= tol:
                break
    y = proj_affine(s_mat - c_mat)
    mu = float(-np.vdot(c_mat, y).real)
    return FirstOrderResult(float(min(1.0, max(0.0, 1.0 - mu))), mu,
                            residual, it, residual <= tol)
