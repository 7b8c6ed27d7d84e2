"""Steerable-weight SDP: problem setup, facial reduction, certificates.

The steerable weight of an assemblage {sigma_{a|x}} is 1 - mu* with

    mu* = max  sum_lam tr(sigma_lam)
          s.t. sum_lam D_lam(a|x) sigma_lam <= sigma_{a|x}  for all a, x
               sigma_lam >= 0

over deterministic strategies lam.

Two exits settle the common extremes exactly, without an interior-point
iteration.  An unsteerable assemblage has a local model of mass 1; the
exact-zero exit looks for one (the least-norm solution of the equality
constraints, refined by a few reflections if it is not PSD) and returns
TSW = 0 with the dual certificate F_{a|x} = I/n_settings.  It runs
first, at any member dimension.

Assemblages produced by projective measurements at t = 0 are rank
deficient, so the primal has no interior and a straight interior-point
run stalls.  The fix implemented here is a facial reduction: each
sigma_lam is confined to the intersection of the supports of the members
its strategy selects, slack blocks are confined to the member supports,
and strategies whose intersection is trivial are eliminated exactly.
For fully projective assemblages every strategy dies and the weight is
returned as exactly 1 with a synthesized dual certificate (the second
exit); for full-rank assemblages the reduction is the identity and adds
no work.  Whatever remains goes to the interior-point solver, unless its
reduced Schur system is past ``_SCHUR_BYTE_CAP``.

For those regions the solver proves an upper bound TSW <= 1 - m from an
explicit local model of mass m instead.  It runs the exact-zero exit's
search from the same least-norm model, with more rounds and toward the
PSD cone itself, then scales the result to exact feasibility.
:func:`solve_steering_weight` is the one entry point and takes every
exit in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from . import ipm
from .strategies import enumerate_strategies, selection

#: refuse interior-point solves whose dense Schur factor would not fit in
#: memory; 64-dimensional members need ~4.8 GB, well past a small box
_SCHUR_BYTE_CAP = 2e9

SUPPORT_RTOL = 1e-10
DROP_TRACE = 1e-12
_INTERSECT_TOL = 1e-9

#: averaged reflections the exact-zero exit tries before giving up
ZERO_EXIT_ROUNDS = 20
#: largest equality residual of a local model the exact-zero exit accepts
ZERO_EXIT_RESIDUAL = 1e-12
#: widest accepted bound 1 - m on the steerable weight of a large region
BOUND_TOL = 1e-6
#: averaged reflections per bounded solve
MAX_ROUNDS = 4000
#: reflections without halving the PSD deficit before a search gives up
_STALL_ROUNDS = 400


@dataclass
class SdpSolution:
    """Solver output in the original (unreduced) assemblage space."""

    mu_star: float
    hidden_states: List[np.ndarray]
    dual_certificate: Optional[List[List[np.ndarray]]]
    status: str
    gap: float
    iterations: int
    pinf: float = 0.0
    dinf: float = 0.0
    reduced: bool = False
    eliminated: Tuple[int, ...] = ()

    @property
    def steerable_weight(self) -> float:
        return float(min(1.0, max(0.0, 1.0 - self.mu_star)))


def _support_basis(mat: np.ndarray) -> Optional[np.ndarray]:
    """Orthonormal basis of the numerical range of a PSD matrix.

    Returns None when the matrix has full rank (identity embedding) and a
    (d, 0) array when it vanishes entirely.
    """
    d = mat.shape[0]
    evals, evecs = np.linalg.eigh(mat)
    top = evals[-1]
    if top <= DROP_TRACE:
        return np.zeros((d, 0), dtype=complex)
    keep = evals > max(SUPPORT_RTOL * top, DROP_TRACE)
    if keep.all():
        return None
    return np.ascontiguousarray(evecs[:, keep])


def _intersect(basis_a: Optional[np.ndarray], basis_b: Optional[np.ndarray],
               dim: int) -> Optional[np.ndarray]:
    """Intersection of two subspaces given by orthonormal bases.

    None stands for the full space.  Uses principal angles: directions of
    B_a^dag B_b with singular value 1 span the intersection.
    """
    if basis_a is None:
        return basis_b
    if basis_b is None:
        return basis_a
    if basis_a.shape[1] == 0 or basis_b.shape[1] == 0:
        return np.zeros((dim, 0), dtype=complex)
    u, s, _ = np.linalg.svd(basis_a.conj().T @ basis_b)
    keep = s > 1.0 - _INTERSECT_TOL
    if not keep.any():
        return np.zeros((dim, 0), dtype=complex)
    return np.ascontiguousarray(basis_a @ u[:, : int(keep.sum())])


class SteeringWeightProblem:
    """Validated assemblage plus its deterministic-strategy structure.

    The members are stacked setting-major once (``flat``) and their
    eigenvalues computed once; validation, the exits and the large-region
    bound all read them, and share one least-norm model.

    Parameters
    ----------
    members : sequence over settings of sequences over outcomes
        Subnormalized states sigma_{a|x} as Hermitian PSD matrices whose
        traces sum to one within each setting.
    """

    def __init__(self, members, validate: bool = True):
        self.members = [[np.asarray(m, dtype=complex) for m in row]
                        for row in members]
        self.n_settings = len(self.members)
        if self.n_settings == 0:
            raise ValueError("assemblage has no settings")
        self.n_outcomes = len(self.members[0])
        self.dim = self.members[0][0].shape[0]
        if validate:
            self._validate()
        self.strategies = enumerate_strategies(self.n_settings, self.n_outcomes)

    @cached_property
    def flat(self) -> np.ndarray:
        """Members stacked setting-major."""
        return np.stack([m for row in self.members for m in row])

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of every member, setting-major."""
        return np.linalg.eigvalsh(self.flat)

    @property
    def floor(self) -> float:
        """Smallest eigenvalue of any member."""
        return float(self.eigenvalues[:, 0].min())

    @cached_property
    def least_norm(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The selection map A, the least-norm model pinv @ members and
        the null-space projector 1 - pinv A."""
        a_mat, pinv = selection(self.n_settings, self.n_outcomes)
        seed = _hermitian(np.einsum("lr,rij->lij", pinv, self.flat))
        return a_mat, seed, np.eye(len(pinv)) - pinv @ a_mat

    def _validate(self):
        for x, row in enumerate(self.members):
            if len(row) != self.n_outcomes:
                raise ValueError("ragged assemblage: outcome counts differ")
            for a, m in enumerate(row):
                if m.shape != (self.dim, self.dim):
                    raise ValueError(f"member ({a}|{x}) has shape {m.shape}")
        flat = self.flat
        bad = ~np.isfinite(flat).all(axis=(1, 2))
        if bad.any():
            x, a = divmod(int(np.argmax(bad)), self.n_outcomes)
            raise ValueError(f"member ({a}|{x}) has a non-finite entry")
        adj = flat.conj().transpose(0, 2, 1)
        skew = ~(np.abs(flat - adj)
                 <= 1e-8 + 1e-5 * np.abs(adj)).all(axis=(1, 2))
        if skew.any():
            x, a = divmod(int(np.argmax(skew)), self.n_outcomes)
            raise ValueError(f"member ({a}|{x}) is not Hermitian")
        lam_min = self.eigenvalues[:, 0].reshape(self.n_settings,
                                                 self.n_outcomes)
        for x, row in enumerate(self.members):
            total = 0.0
            for a, m in enumerate(row):
                if lam_min[x, a] < -1e-8:
                    raise ValueError(f"member ({a}|{x}) has negative "
                                     f"eigenvalue {lam_min[x, a]:.2e}")
                total += float(np.trace(m).real)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(
                    f"setting {x}: member traces sum to {total}, expected 1")
        marginals = flat.reshape(self.n_settings, self.n_outcomes, self.dim,
                                 self.dim).sum(axis=1)
        if not np.isclose(marginals[1:], marginals[0], atol=1e-7).all():
            raise ValueError("assemblage violates no-signaling: "
                             "setting marginals differ")

    # -- facial reduction -------------------------------------------------
    def reduce(self):
        d = self.dim
        pis: List[List[Optional[np.ndarray]]] = []
        dropped: List[List[bool]] = []
        for row in self.members:
            pi_row, drop_row = [], []
            for m in row:
                basis = _support_basis(m)
                pi_row.append(basis)
                drop_row.append(basis is not None and basis.shape[1] == 0)
            pis.append(pi_row)
            dropped.append(drop_row)

        q_bases: List[Optional[np.ndarray]] = []
        eliminated: List[int] = []
        for strat in self.strategies:
            basis: Optional[np.ndarray] = None
            for x in range(self.n_settings):
                basis = _intersect(basis, pis[x][strat.outcomes[x]], d)
                if basis is not None and basis.shape[1] == 0:
                    break
            if basis is not None and basis.shape[1] == 0:
                eliminated.append(strat.index)
                q_bases.append(np.zeros((d, 0), dtype=complex))
            else:
                q_bases.append(basis)
        return _Reduction(self, pis, dropped, q_bases, tuple(eliminated))


@dataclass
class _Reduction:
    problem: SteeringWeightProblem
    pis: List[List[Optional[np.ndarray]]]
    dropped: List[List[bool]]
    q_bases: List[Optional[np.ndarray]]
    eliminated: Tuple[int, ...]

    @property
    def engaged(self) -> bool:
        if self.eliminated:
            return True
        return any(p is not None for row in self.pis for p in row)

    def compressed_member(self, x: int, a: int) -> np.ndarray:
        m = self.problem.members[x][a]
        pi = self.pis[x][a]
        return m if pi is None else pi.conj().T @ m @ pi


def solve_steering_weight(members,
                          gap_tol: float = ipm.DEFAULT_GAP_TOL) -> SdpSolution:
    """Steerable weight of an assemblage, by the first exit that settles it.

    In order: the exact zero, facial reduction with the exact unit
    weight (both ``iterations == 0``), the interior-point solve, and for
    a reduced Schur system past the memory cap the certified bound of
    :func:`_bound_weight` (status "Bounded"), which raises
    :class:`ipm.NumericalFailure` when it cannot pin the weight.  Returns
    an :class:`SdpSolution`; the weight itself is
    ``solution.steerable_weight`` and the hidden-state decomposition and
    dual certificate live in the original member space.
    """
    problem = SteeringWeightProblem(members)
    zero = _exact_zero_weight(problem)
    if zero is not None:
        return zero
    red = problem.reduce()
    d = problem.dim
    survivors = [s for s in problem.strategies if s.index not in red.eliminated]

    if not survivors:
        return _exact_unit_weight(problem, red)

    schur_dim = 0
    for x in range(problem.n_settings):
        for a in range(problem.n_outcomes):
            if red.dropped[x][a]:
                continue
            pi = red.pis[x][a]
            s = d if pi is None else pi.shape[1]
            schur_dim += s * s
    if schur_dim ** 2 * 8 > _SCHUR_BYTE_CAP:
        return _bound_weight(
            problem, f"Schur system {schur_dim}x{schur_dim} needs "
            f"~{schur_dim ** 2 * 8 / 1e9:.1f} GB; member dimension {d} is "
            "past the interior-point envelope")

    # conic blocks: one per surviving strategy, then one slack per kept member
    var_sizes, c_blocks = [], []
    strat_pos = {}
    for strat in survivors:
        q = red.q_bases[strat.index]
        r = d if q is None else q.shape[1]
        strat_pos[strat.index] = len(var_sizes)
        var_sizes.append(r)
        c_blocks.append(-np.eye(r, dtype=complex))

    con_sizes, b_blocks, rows, row_key = [], [], [], []
    for x in range(problem.n_settings):
        for a in range(problem.n_outcomes):
            if red.dropped[x][a]:
                continue
            pi = red.pis[x][a]
            s = d if pi is None else pi.shape[1]
            entries = []
            for strat in survivors:
                if strat.outcomes[x] != a:
                    continue
                q = red.q_bases[strat.index]
                if pi is None and q is None:
                    a_map = None
                elif pi is None:
                    a_map = q
                elif q is None:
                    a_map = pi.conj().T
                else:
                    a_map = pi.conj().T @ q
                entries.append((strat_pos[strat.index], a_map))
            slack_idx = len(var_sizes)
            var_sizes.append(s)
            c_blocks.append(np.zeros((s, s), dtype=complex))
            entries.append((slack_idx, None))
            con_sizes.append(s)
            b_blocks.append(red.compressed_member(x, a))
            rows.append(entries)
            row_key.append((x, a))

    res = ipm.solve_conic(var_sizes, con_sizes, c_blocks, b_blocks, rows,
                          gap_tol=gap_tol)

    mu = float(sum(np.trace(res.x[strat_pos[s.index]]).real for s in survivors))
    hidden = []
    for strat in problem.strategies:
        if strat.index in red.eliminated:
            hidden.append(np.zeros((d, d), dtype=complex))
            continue
        h = res.x[strat_pos[strat.index]]
        q = red.q_bases[strat.index]
        hidden.append(h.copy() if q is None else q @ h @ q.conj().T)

    # dual certificate: slack-block z is exactly PSD and approximates -y
    f_tilde = {}
    for pos, (x, a) in enumerate(row_key):
        slack_idx = len(var_sizes) - len(row_key) + pos
        f_tilde[(x, a)] = res.z[slack_idx]
    certificate = _lift_certificate(problem, red, f_tilde)
    return SdpSolution(mu, hidden, certificate, res.status, res.gap,
                       res.iterations, res.pinf, res.dinf,
                       red.engaged, red.eliminated)


def _exact_zero_weight(problem: SteeringWeightProblem
                       ) -> Optional[SdpSolution]:
    """A local model of mass 1, which makes mu* = 1 and TSW = 0 exactly.

    The least-norm solution sigma_lam = sum_r pinv[lam, r] sigma_r of the
    equalities sum_{lam selects r} sigma_lam = sigma_r holds exactly for
    any no-signalling assemblage.  When one of its states is not PSD and
    every member has full rank, at most ``ZERO_EXIT_ROUNDS`` averaged
    reflections between that affine set and the shrunken cone
    {sigma >= eps I} look for a PSD point of the affine set.  A PSD model
    that meets the equalities proves mu* >= 1, and F_{a|x} = I/n_settings
    is dual feasible with value sum_x tr(sum_a sigma_{a|x})/n_settings = 1,
    which proves mu* <= 1.  Returns None when no such model turns up.
    """
    a_mat, seed, to_null = problem.least_norm
    floor = problem.floor
    eps = 1e-3 * floor / len(seed)
    rounds = ZERO_EXIT_ROUNDS if floor > 0.0 else 0
    hidden, lam_min = _reflect(seed, to_null, eps, rounds, 0.0)
    if lam_min < 0.0:
        return None
    resid = np.einsum("rl,lij->rij", a_mat, hidden) - problem.flat
    if np.abs(resid).max() > ZERO_EXIT_RESIDUAL:
        return None
    mu = float(np.trace(hidden, axis1=1, axis2=2).real.sum())
    f = np.eye(problem.dim, dtype=complex) / problem.n_settings
    certificate = [[f.copy() for _ in range(problem.n_outcomes)]
                   for _ in range(problem.n_settings)]
    return SdpSolution(mu, list(hidden), certificate, "Optimal", 0.0, 0)


def _bound_weight(problem: SteeringWeightProblem,
                  refusal: str) -> SdpSolution:
    """Certified upper bound on the steerable weight from a local model.

    For a region whose Schur system the interior-point solver refuses
    (``refusal`` says why) and whose weight the exact-zero exit could
    not certify.  Starting from the same least-norm model, up to
    ``MAX_ROUNDS`` averaged reflections toward the PSD cone {sigma >= 0}
    look for a nearly PSD point of the affine set; :func:`_certify` then
    scales it to an exactly feasible model of mass m, which proves
    TSW <= 1 - m.  Returns status "Bounded" with the bound 1 - m as the
    weight and as ``gap``, no dual certificate and 0 iterations; raises
    :class:`ipm.NumericalFailure` when 1 - m exceeds ``BOUND_TOL``.  The
    result depends on the members alone.
    """
    a_mat, seed, to_null = problem.least_norm
    floor = problem.floor
    target = max(0.25 * BOUND_TOL * max(floor, 0.0), 1e-13)
    hidden, _ = _reflect(seed, to_null, 0.0, MAX_ROUNDS, target)
    mu, model = _certify(problem.flat, a_mat, hidden, floor)
    if mu < 1.0 - BOUND_TOL:
        raise ipm.NumericalFailure(
            f"{refusal}, and a local model certifies only mass {mu:.9f}; "
            f"weight bound exceeds {BOUND_TOL:g}")
    return SdpSolution(mu, list(model), None, "Bounded", 1.0 - mu, 0)


def _reflect(seed: np.ndarray, to_null: np.ndarray, shift: float,
             rounds: int, tol: float):
    """Averaged alternating reflections between the affine set
    seed + (1 - pinv A) z and the cone {sigma >= shift I}.

    Stops once the smallest eigenvalue of the affine-exact iterate is at
    least -``tol``, after ``rounds`` reflections, or when that eigenvalue
    has not halved its deficit for ``_STALL_ROUNDS`` rounds.  Returns the
    affine-exact iterate and its smallest eigenvalue.
    """
    state = hidden = seed
    lam_min = np.linalg.eigvalsh(hidden)[:, 0].min()
    best, stale = -lam_min, 0
    for _ in range(rounds):
        if lam_min >= -tol or stale >= _STALL_ROUNDS:
            break
        ev, vec = np.linalg.eigh(2.0 * hidden - state)
        cone = (vec * np.maximum(ev, shift)[:, None, :]) \
            @ vec.conj().swapaxes(-1, -2)
        state = state + cone - hidden
        hidden = _hermitian(seed + np.einsum("lk,kij->lij", to_null, state))
        lam_min = np.linalg.eigvalsh(hidden)[:, 0].min()
        if -lam_min < 0.5 * best:
            best, stale = -lam_min, 0
        else:
            stale += 1
    return hidden, lam_min


def _certify(flat: np.ndarray, a_mat: np.ndarray, hidden: np.ndarray,
             floor: float):
    """Rigorous feasible mass of a candidate local model.

    Clips every state to the PSD cone, then removes any remaining
    constraint violation v by the exact bound v*I <= (v/f)*sigma_{a|x}
    with f = ``floor``, the smallest member eigenvalue, so dividing the
    model by (1 + v/f) is provably feasible.  Returns (mass, model), with
    mass 0 when a member is too close to singular for that argument or
    the scaled model still violates a constraint.
    """
    ev, vec = np.linalg.eigh(hidden)
    model = (vec * np.maximum(ev, 0.0)[:, None, :]) \
        @ vec.conj().swapaxes(-1, -2)
    vio = max(0.0, -_slack_floor(flat, a_mat, model))
    if vio > 0.0:
        if floor <= 4.0 * vio:
            return 0.0, model
        model = model / (1.0 + vio / floor)
    if _slack_floor(flat, a_mat, model) < -1e-12:
        return 0.0, model
    return float(np.trace(model, axis1=1, axis2=2).real.sum()), model


def _slack_floor(flat: np.ndarray, a_mat: np.ndarray,
                 model: np.ndarray) -> float:
    """Smallest eigenvalue of any sigma_{a|x} - sum_{lam selects} sigma_lam."""
    slack = flat - np.einsum("rl,lij->rij", a_mat, model)
    return float(np.linalg.eigvalsh(_hermitian(slack))[:, 0].min())


def _hermitian(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.conj().swapaxes(-1, -2))


def _exact_unit_weight(problem: SteeringWeightProblem,
                       red: _Reduction) -> SdpSolution:
    """Every strategy eliminated: mu* = 0 and TSW = 1, exactly."""
    d = problem.dim
    hidden = [np.zeros((d, d), dtype=complex) for _ in problem.strategies]
    certificate = _lift_certificate(problem, red, {})
    return SdpSolution(0.0, hidden, certificate, "Optimal", 0.0, 0,
                       reduced=True, eliminated=red.eliminated)


def _lift_certificate(problem: SteeringWeightProblem, red: _Reduction,
                      f_tilde) -> List[List[np.ndarray]]:
    """Map reduced dual blocks back to d x d steering-inequality operators.

    F_{a|x} = Pi F~ Pi^dag + kappa (1 - Pi Pi^dag); kappa grows until every
    strategy constraint sum_x F_{a(x)|x} >= 1 clears, which only involves
    the complement weight when the reduction eliminated strategies.
    """
    d = problem.dim
    base: List[List[np.ndarray]] = []
    comp: List[List[np.ndarray]] = []
    any_comp = False
    for x in range(problem.n_settings):
        row_b, row_c = [], []
        for a in range(problem.n_outcomes):
            pi = red.pis[x][a]
            ft = f_tilde.get((x, a))
            if pi is None:
                row_b.append(np.asarray(ft) if ft is not None
                             else np.zeros((d, d), dtype=complex))
                row_c.append(None)
            else:
                lifted = np.zeros((d, d), dtype=complex)
                if ft is not None and pi.shape[1] > 0:
                    lifted = pi @ ft @ pi.conj().T
                row_b.append(lifted)
                row_c.append(np.eye(d) - pi @ pi.conj().T)
                any_comp = True
        base.append(row_b)
        comp.append(row_c)

    if not any_comp:
        return base

    scale = max((float(np.linalg.norm(f, 2)) for row in base for f in row
                 if f.size), default=1.0)
    kappa = max(2.0, 2.0 * scale)
    while True:
        cert = [[base[x][a] + (kappa * comp[x][a] if comp[x][a] is not None else 0)
                 for a in range(problem.n_outcomes)]
                for x in range(problem.n_settings)]
        worst = _worst_strategy_margin(problem, cert)
        if worst >= 1e-9 or kappa > 1e6:
            return cert
        kappa *= 4.0


def _worst_strategy_margin(problem: SteeringWeightProblem, cert) -> float:
    worst = np.inf
    eye = np.eye(problem.dim)
    for strat in problem.strategies:
        total = sum(cert[x][strat.outcomes[x]] for x in range(problem.n_settings))
        worst = min(worst, float(np.linalg.eigvalsh(total - eye)[0]))
    return worst


def verify_certificate(problem, solution: SdpSolution,
                       obj_tol: float = 1e-6, psd_tol: float = 1e-9,
                       strategy_tol: float = 1e-7) -> bool:
    """Check the dual certificate independently of how it was produced.

    A valid certificate consists of PSD operators F_{a|x} with
    sum_x F_{a(x)|x} >= 1 for every deterministic strategy; then
    sum_ax tr(F_{a|x} sigma_{a|x}) is an upper bound on mu*, and matching
    the reported mu* within ``obj_tol`` certifies the weight.
    """
    if not isinstance(problem, SteeringWeightProblem):
        problem = SteeringWeightProblem(problem, validate=False)
    cert = solution.dual_certificate
    if cert is None:
        return False
    scale = max(1.0, max(float(np.linalg.norm(f, 2)) for row in cert for f in row))
    for row in cert:
        for f in row:
            if not np.allclose(f, f.conj().T, atol=1e-8 * scale):
                return False
            if float(np.linalg.eigvalsh(0.5 * (f + f.conj().T))[0]) \
                    < -psd_tol * scale:
                return False
    if _worst_strategy_margin(problem, cert) < -strategy_tol * scale:
        return False
    value = sum(float(np.trace(cert[x][a] @ problem.members[x][a]).real)
                for x in range(problem.n_settings)
                for a in range(problem.n_outcomes))
    return abs(value - solution.mu_star) <= obj_tol
