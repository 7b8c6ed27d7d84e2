"""Primal-dual interior-point solver for block Hermitian SDPs.

Solves the standard conic pair

    min <c, x>   s.t.  A(x) = b,  x in PSD cone (block Hermitian)
    max <b, y>   s.t.  A*(y) + z = c,  z in PSD cone

where x is a list of Hermitian blocks and every equality row is itself a
Hermitian block: row r reads  sum_j  A_j X_{k_j} A_j^dag = B_r.  Passing
``None`` for an A_j means the identity congruence; the Schur assembly
short-circuits on it.

The algorithm is the classic infeasible-start Nesterov-Todd
predictor-corrector: one NT scaling per block and iteration, a Schur
complement over the constraint blocks in svec coordinates, a Mehrotra
second-order corrector, and fraction-to-the-boundary steps with a
backtracking safeguard.  Everything is deterministic; identical inputs
produce identical iterates.

The variable blocks are held as (B, d, d) stacks, one per block size, so
the Cholesky factors, the NT-scaling SVDs, the corrector's scaled-frame
products, the step lengths and the backtracking PSD check each run once
per stack through NumPy's broadcasting ``linalg``.  The linear maps and
the Schur assembly see the same blocks as a per-block list of views.

The Schur system is solved with NumPy alone: :func:`cho_factor` is one
LAPACK Cholesky factorization plus the inverses of the factor's 32-row
diagonal blocks, and :func:`cho_solve` is blocked forward and back
substitution made of matrix-vector products.  A Schur factorization
that fails is retried once with a small diagonal shift.  A second
failure, a failed Cholesky factorization of an accepted iterate, a
singular NT scaling or a step that no backtracking makes PSD ends the
solve as ``NumericalFailure`` with the last accepted iterate.  The stop
rule is fixed: ``Optimal`` means both relative infeasibilities within
``FEAS_TOL`` and the relative gap within ``GAP_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import congruence_rep, smat, svec

GAP_TOL = 1e-7
FEAS_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_STEP_FRACTION = 0.98
_BACKTRACK_ROUNDS = 40
_SOLVE_BLOCK = 32


class NumericalFailure(RuntimeError):
    pass


@dataclass
class ConicResult:
    """Raw solver output; the steering layer interprets the blocks."""

    x: List[np.ndarray]
    y: List[np.ndarray]
    z: List[np.ndarray]
    pobj: float
    dobj: float
    gap: float            # relative duality gap
    abs_gap: float        # complementarity <x, z>
    pinf: float
    dinf: float
    iterations: int
    status: str
    history: List[Tuple[float, float, float]] = field(default_factory=list, repr=False)


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a block or of every block in a stack."""
    return x.conj().swapaxes(-1, -2)


def _herm(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + _ct(x))


def _inner(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> float:
    return float(sum(np.vdot(a, b).real for a, b in zip(xs, ys)))


def _row_blocks(p: int) -> List[Tuple[int, int]]:
    """Row ranges of the substitution blocks of a p x p factor."""
    return [(i, min(p, i + _SOLVE_BLOCK)) for i in range(0, p, _SOLVE_BLOCK)]


def cho_factor(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of a symmetric positive definite matrix, for
    :func:`cho_solve`.

    Returns the lower factor L of ``mat = L L^T`` and the inverses of its
    diagonal blocks of ``_SOLVE_BLOCK`` rows, the last one padded with the
    identity.  Reading ``mat`` through its transpose hands LAPACK a
    column-major view of the same symmetric matrix, so NumPy skips a
    strided copy.  Raises ``np.linalg.LinAlgError`` when ``mat`` is not
    positive definite.
    """
    low = np.linalg.cholesky(mat.T)
    cuts = _row_blocks(low.shape[0])
    diag = np.tile(np.eye(_SOLVE_BLOCK), (len(cuts), 1, 1))
    for k, (i0, i1) in enumerate(cuts):
        diag[k, :i1 - i0, :i1 - i0] = low[i0:i1, i0:i1]
    return low, np.linalg.inv(diag)


def cho_solve(factor: Tuple[np.ndarray, np.ndarray],
              b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` from a :func:`cho_factor` result.

    Blocked forward and back substitution: each block of rows takes one
    matrix-vector product with the panel already solved and one with its
    diagonal block's inverse.
    """
    low, diag_inv = factor
    cuts = _row_blocks(low.shape[0])
    y = np.array(b, dtype=float)
    for k, (i0, i1) in enumerate(cuts):
        y[i0:i1] = diag_inv[k, :i1 - i0, :i1 - i0] @ (
            y[i0:i1] - low[i0:i1, :i0] @ y[:i0])
    for k, (i0, i1) in reversed(list(enumerate(cuts))):
        y[i0:i1] = diag_inv[k, :i1 - i0, :i1 - i0].T @ (
            y[i0:i1] - low[i1:, i0:i1].T @ y[i1:])
    return y


def _step_length(l_inv: Sequence[np.ndarray],
                 delta: Sequence[np.ndarray]) -> float:
    """Largest alpha with X + alpha * delta PSD in every block.

    ``l_inv`` holds the inverse Cholesky factors of X, stack by stack:
    the step is -1 / lambda_min(L^-1 delta L^-dag) over all blocks, or
    infinite when no eigenvalue is negative.
    """
    lam = min((float(np.linalg.eigvalsh(_herm(li @ d @ _ct(li)))[:, 0].min())
               for li, d in zip(l_inv, delta)), default=np.inf)
    if lam >= 0.0:
        return np.inf
    return -1.0 / lam


def _all_pd(stacks: Sequence[np.ndarray]) -> bool:
    """True when every block of every stack has a positive eigenvalue floor."""
    return all(bool((np.linalg.eigvalsh(s)[:, 0] > 0.0).all()) for s in stacks)


class _Stacks:
    """Variable blocks grouped by size: one (B, d, d) stack per size."""

    def __init__(self, sizes: Sequence[int]):
        groups: dict = {}
        for k, s in enumerate(sizes):
            groups.setdefault(s, []).append(k)
        self.groups = list(groups.values())
        self.n_blocks = len(sizes)

    def stack(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [np.stack([blocks[k] for k in ks]) for ks in self.groups]

    def unstack(self, stacks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-block views into the stacks, in variable order."""
        out: list = [None] * self.n_blocks
        for ks, st in zip(self.groups, stacks):
            for k, m in zip(ks, st):
                out[k] = m
        return out


class ConicSolver:
    """Holds problem data plus reusable buffers across iterations."""

    def __init__(self, c_blocks, b_blocks, rows):
        self.c = [np.asarray(m, dtype=complex) for m in c_blocks]
        self.b = [np.asarray(m, dtype=complex) for m in b_blocks]
        self.rows = [[(k, None if a is None else np.asarray(a, dtype=complex))
                      for k, a in row] for row in rows]
        # reverse index: variable -> [(row, A)]
        self.var_rows: List[List[Tuple[int, Optional[np.ndarray]]]] = \
            [[] for _ in self.c]
        for r, row in enumerate(self.rows):
            for k, a in row:
                self.var_rows[k].append((r, a))
        # svec offsets of the constraint rows inside the Schur matrix
        self.offsets = np.concatenate([[0], np.cumsum([m.size for m in self.b])])
        self.p = int(self.offsets[-1])
        # congruence representations of the fixed A maps (None = identity)
        self.reps: List[List[Optional[np.ndarray]]] = \
            [[None if a is None else congruence_rep(a) for _, a in entries]
             for entries in self.var_rows]
        self._schur = np.zeros((self.p, self.p))

    # -- linear operators ------------------------------------------------
    def aop(self, x: Sequence[np.ndarray]) -> List[np.ndarray]:
        out = []
        for r, row in enumerate(self.rows):
            acc = np.zeros_like(self.b[r])
            for k, a in row:
                acc += x[k] if a is None else a @ x[k] @ a.conj().T
            out.append(acc)
        return out

    def aadj(self, y: Sequence[np.ndarray]) -> List[np.ndarray]:
        out = []
        for c, entries in zip(self.c, self.var_rows):
            acc = np.zeros_like(c)
            for r, a in entries:
                acc += y[r] if a is None else a.conj().T @ y[r] @ a
            out.append(acc)
        return out

    # -- Schur complement -------------------------------------------------
    def build_schur(self, w_blocks: Sequence[np.ndarray]) -> np.ndarray:
        m = self._schur
        m[:] = 0.0
        off = self.offsets
        for k, entries in enumerate(self.var_rows):
            kw = congruence_rep(w_blocks[k])
            reps = self.reps[k]
            n_e = len(entries)
            for i in range(n_e):
                ri, _ = entries[i]
                left = kw if reps[i] is None else reps[i] @ kw
                for j in range(i, n_e):
                    rj, _ = entries[j]
                    blk = left if reps[j] is None else left @ reps[j].T
                    i0, j0 = off[ri], off[rj]
                    si, sj = blk.shape
                    m[i0:i0 + si, j0:j0 + sj] += blk
                    if rj != ri:
                        m[j0:j0 + sj, i0:i0 + si] += blk.T
        return m

    def svec_rows(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([svec(m) for m in mats])

    def smat_rows(self, vec: np.ndarray) -> List[np.ndarray]:
        return [smat(vec[self.offsets[r]:self.offsets[r + 1]], len(m))
                for r, m in enumerate(self.b)]


def solve_conic(c_blocks, b_blocks, rows,
                max_iter: int = DEFAULT_MAX_ITER,
                callback=None) -> ConicResult:
    """Run the predictor-corrector iteration to convergence: both
    infeasibilities within ``FEAS_TOL`` and the relative gap within
    ``GAP_TOL``.  Block sizes are read off ``c_blocks`` and ``b_blocks``."""
    prob = ConicSolver(c_blocks, b_blocks, rows)
    blocks = _Stacks([len(m) for m in prob.c])
    nu = float(sum(len(m) for m in prob.c))
    c = blocks.stack(prob.c)
    x = [np.tile(np.eye(m.shape[-1], dtype=complex), (len(m), 1, 1)) for m in c]
    z = [m.copy() for m in x]
    y = [np.zeros_like(m) for m in prob.b]

    b_norm = 1.0 + np.sqrt(sum(np.linalg.norm(m) ** 2 for m in prob.b))
    c_norm = 1.0 + np.sqrt(sum(np.linalg.norm(m) ** 2 for m in prob.c))

    def residuals(x, y, z):
        rp = [prob.b[r] - m for r, m in enumerate(prob.aop(blocks.unstack(x)))]
        atj = blocks.stack(prob.aadj(y))
        rd = [cg - ag - zg for cg, ag, zg in zip(c, atj, z)]
        pinf = np.sqrt(sum(np.linalg.norm(m) ** 2 for m in rp)) / b_norm
        dinf = np.sqrt(sum(np.linalg.norm(m) ** 2 for m in rd)) / c_norm
        return rp, rd, pinf, dinf

    status = "MaxIterations"
    history: List[Tuple[float, float, float]] = []
    it = 0
    best_mu = np.inf
    stall = 0
    for it in range(1, max_iter + 1):
        try:
            lx = [np.linalg.cholesky(m) for m in x]
            lz = [np.linalg.cholesky(m) for m in z]
        except np.linalg.LinAlgError:
            status = "NumericalFailure"
            break
        # NT scaling per stack: x = R diag(sig) R^dag, z = R^-dag diag(sig) R^-1
        rw, rw_inv, sig = [], [], []
        for l_x, l_z in zip(lx, lz):
            u, s, vh = np.linalg.svd(_ct(l_z) @ l_x)
            if s.min() <= 0.0:
                status = "NumericalFailure"
                break
            inv_sqrt = 1.0 / np.sqrt(s)[:, None, :]
            rw.append(l_x @ _ct(vh) * inv_sqrt)
            rw_inv.append(_ct(u * inv_sqrt) @ _ct(l_z))
            sig.append(s)
        if status == "NumericalFailure":
            break

        abs_gap = float(sum(np.vdot(s, s) for s in sig))
        mu = abs_gap / nu
        rp, rd, pinf, dinf = residuals(x, y, z)
        pobj = _inner(c, x)
        dobj = _inner(prob.b, y)
        rel_gap = abs_gap / (1.0 + abs(pobj) + abs(dobj))
        history.append((pinf, dinf, rel_gap))
        if callback is not None:
            callback(it, pinf, dinf, rel_gap, mu)
        if pinf <= FEAS_TOL and dinf <= FEAS_TOL and rel_gap <= GAP_TOL:
            status = "Optimal"
            break
        if mu < best_mu * 0.9999:
            best_mu = mu
            stall = 0
        else:
            stall += 1
            if stall >= 20:
                status = "SlowProgress"
                break

        w = [r @ _ct(r) for r in rw]
        schur = prob.build_schur(blocks.unstack(w))
        try:
            factor = cho_factor(schur)
        except np.linalg.LinAlgError:
            reg = max(1e-14, 1e-14 * float(np.trace(schur)) / prob.p)
            schur = schur + reg * np.eye(prob.p)
            try:
                factor = cho_factor(schur)
            except np.linalg.LinAlgError:
                status = "NumericalFailure"
                break

        a_w_rd_w = prob.aop(blocks.unstack([wg @ r @ wg for wg, r in zip(w, rd)]))

        def newton(rc):
            rhs_mats = [rp[r] - m1 + m2 for r, (m1, m2)
                        in enumerate(zip(prob.aop(blocks.unstack(rc)), a_w_rd_w))]
            dy_vec = cho_solve(factor, prob.svec_rows(rhs_mats))
            dy = prob.smat_rows(dy_vec)
            adj = blocks.stack(prob.aadj(dy))
            dz = [r - a for r, a in zip(rd, adj)]
            dx = [_herm(r - wg @ d @ wg) for r, wg, d in zip(rc, w, dz)]
            return dx, dy, [_herm(d) for d in dz]

        # both steps measure against the same factors: X = Lx Lx^dag
        lx_inv = [np.linalg.inv(m) for m in lx]
        lz_inv = [np.linalg.inv(m) for m in lz]

        # predictor
        dx_a, dy_a, dz_a = newton([-m for m in x])
        ap_c = min(1.0, _step_length(lx_inv, dx_a))
        ad_c = min(1.0, _step_length(lz_inv, dz_a))
        gap_aff = (abs_gap + ap_c * _inner(dx_a, z) + ad_c * _inner(x, dz_a)
                   + ap_c * ad_c * _inner(dx_a, dz_a))
        sigma = min(0.99999, max(1e-8, (max(gap_aff, 0.0) / abs_gap) ** 3))

        # corrector: scaled-frame second-order term
        rc = []
        for r, r_inv, s, dxg, dzg in zip(rw, rw_inv, sig, dx_a, dz_a):
            h2 = _herm((r_inv @ dxg @ _ct(r_inv)) @ (_ct(r) @ dzg @ r))
            core = np.eye(s.shape[-1]) * (sigma * mu / s - s)[:, None, :] - h2
            rc.append(_herm(r @ core @ _ct(r)))
        dx, dy, dz = newton(rc)

        ap = min(1.0, _STEP_FRACTION * _step_length(lx_inv, dx))
        ad = min(1.0, _STEP_FRACTION * _step_length(lz_inv, dz))
        if ap < 1e-10 and ad < 1e-10:
            status = "SlowProgress"
            break
        # safeguard: shrink until every block of both iterates is PD
        for _ in range(_BACKTRACK_ROUNDS):
            x_new = [_herm(m + ap * d) for m, d in zip(x, dx)]
            z_new = [_herm(m + ad * d) for m, d in zip(z, dz)]
            if _all_pd(x_new) and _all_pd(z_new):
                break
            ap *= 0.8
            ad *= 0.8
        else:
            # no verified step: keep the last accepted iterate
            status = "NumericalFailure"
            break
        x, z = x_new, z_new
        y = [y[r] + ad * dy[r] for r in range(len(y))]

    # final diagnostics on the returned iterate
    rp, rd, pinf, dinf = residuals(x, y, z)
    pobj = _inner(c, x)
    dobj = _inner(prob.b, y)
    abs_gap = _inner(x, z)
    rel_gap = abs_gap / (1.0 + abs(pobj) + abs(dobj))
    if status != "Optimal" and pinf <= FEAS_TOL and dinf <= FEAS_TOL \
            and rel_gap <= GAP_TOL:
        status = "Optimal"
    return ConicResult(blocks.unstack(x), y, blocks.unstack(z), pobj, dobj,
                       rel_gap, abs_gap, pinf, dinf, it, status, history)
