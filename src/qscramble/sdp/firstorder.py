"""First-order cross-check for the steerable weight.

Douglas-Rachford splitting on the raw primal (no facial reduction, no
Schur complement, no scaling): one proximal step projects onto the
affine constraints sum_lam D_lam(a|x) sigma_lam + G_{a|x} = sigma_{a|x}
while paying the linear objective, the other projects every block onto
the PSD cone.  It shares nothing with the interior-point path beyond the
strategy enumeration and the Cholesky helpers that factor its Gram
matrix, which makes it a genuine second route for tests; it is also
much slower, so it stays a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ._kernels import smat, svec
from .ipm import cho_factor, cho_solve
from .strategies import enumerate_strategies


@dataclass
class FirstOrderResult:
    weight: float
    mu: float
    residual: float
    iterations: int
    converged: bool


def first_order_steering_weight(members, tol: float = 1e-10,
                                max_iter: int = 200000,
                                step: float = 1.0) -> FirstOrderResult:
    """Steerable weight by projected splitting on the unreduced primal.

    Suited to generic (full-rank) assemblages of small dimension; exact
    boundary instances converge slowly and belong to the interior-point
    path with its facial reduction.
    """
    members = [[np.asarray(m, dtype=complex) for m in row] for row in members]
    n_settings = len(members)
    n_outcomes = len(members[0])
    d = members[0][0].shape[0]
    strategies = enumerate_strategies(n_settings, n_outcomes)
    n_strat = len(strategies)
    n_members = n_settings * n_outcomes
    blk = d * d
    n_blocks = n_strat + n_members
    ntot = n_blocks * blk

    # Constraint matrix row block (x, a): selected strategies + its slack.
    rows_per = blk
    p = n_members * rows_per
    a_mat = np.zeros((p, ntot))
    eye_blk = np.eye(blk)
    b_vec = np.empty(p)
    r = 0
    for x in range(n_settings):
        for a in range(n_outcomes):
            for s_i, strat in enumerate(strategies):
                if strat.outcomes[x] == a:
                    a_mat[r:r + rows_per, s_i * blk:(s_i + 1) * blk] = eye_blk
            slack = n_strat + x * n_outcomes + a
            a_mat[r:r + rows_per, slack * blk:(slack + 1) * blk] = eye_blk
            b_vec[r:r + rows_per] = svec(members[x][a])
            r += rows_per
    gram = cho_factor(a_mat @ a_mat.T)

    c_vec = np.zeros(ntot)
    for s_i in range(n_strat):
        c_vec[s_i * blk:(s_i + 1) * blk] = -svec(np.eye(d))

    def proj_affine(u):
        return u - a_mat.T @ cho_solve(gram, a_mat @ u - b_vec)

    def proj_cone(u):
        # every block at once: one batched eigh per iteration
        evals, evecs = np.linalg.eigh(smat(u.reshape(n_blocks, blk), d))
        evals = np.clip(evals, 0.0, None)
        return svec((evecs * evals[:, None, :])
                    @ evecs.conj().swapaxes(-1, -2)).reshape(ntot)

    s_vec = np.zeros(ntot)
    residual = np.inf
    it = 0
    check_every = 25
    for it in range(1, max_iter + 1):
        y = proj_affine(s_vec - step * c_vec)
        u = proj_cone(2.0 * y - s_vec)
        s_vec += u - y
        if it % check_every == 0:
            residual = float(np.linalg.norm(u - y) / (1.0 + np.linalg.norm(y)))
            if residual <= tol:
                break
    y = proj_affine(s_vec - step * c_vec)
    mu = float(-np.dot(c_vec, y))
    return FirstOrderResult(float(min(1.0, max(0.0, 1.0 - mu))), mu,
                            residual, it, residual <= tol)
