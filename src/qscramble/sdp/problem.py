"""Steerable-weight SDP: problem setup, facial reduction, certificates.

The steerable weight of an assemblage {sigma_{a|x}} is 1 - mu* with

    mu* = max  sum_lam tr(sigma_lam)
          s.t. sum_lam D_lam(a|x) sigma_lam <= sigma_{a|x}  for all a, x
               sigma_lam >= 0

over deterministic strategies lam.

Exits settle the common extremes exactly, without an interior-point
iteration.  An unsteerable assemblage has a local model of mass 1, and
one prover, :func:`_prove_local_model`, accepts every exact zero by a
batched Cholesky factorization of the model (on the strategy faces when
given) and its equality residual, and returns mu* = 1.0, TSW = 0 and
the dual certificate F_{a|x} = I/n_settings.  Its candidates, in order:
the least-norm model, at any member dimension and with no eigensolve;
the last iterate of averaged reflections, when every member has full
rank; and, after the facial reduction, the least-norm model on the
faces.  The member eigenvalues, and with them the check that no member
has a negative eigenvalue, are computed on first use, which every route
past the first candidate forces.

Assemblages produced by projective measurements at t = 0 are rank
deficient, so the primal has no interior and a straight interior-point
run stalls.  The fix implemented here is a facial reduction: each
sigma_lam is confined to its face, the intersection of the supports of
the members its strategy selects (the kernel of the sum of their
complement projectors, one batched eigensolve for all strategies),
slack blocks are confined to the member supports, and strategies with a
trivial face are eliminated exactly.  Supports and faces are explicit
orthonormal (d, k) bases, the identity for the full space.  For fully
projective assemblages every strategy dies and the weight is returned
as exactly 1 with a synthesized dual certificate (the unit exit); for
full-rank assemblages the reduction is the identity and runs no
eigensolve.  Whatever the face zero leaves goes to the interior-point
solver, unless its reduced Schur system is past ``_SCHUR_BYTE_CAP``.

The reflections follow one stop rule at every region size: up to
``MAX_ROUNDS`` of them, ending once the PSD deficit has not halved in
``ZERO_EXIT_ROUNDS`` rounds.  A search that keeps halving runs on, which
is what settles large regions with no other route; one that stalls
gives up ``ZERO_EXIT_ROUNDS`` rounds after its last halving.  A region
past the cap that no candidate zeroes raises
:class:`ipm.NumericalFailure`, so every weight returned carries a dual
certificate.  :func:`solve_steering_weight` is the one entry point and
takes every exit in that order.

Members and certificates are (settings, outcomes, d, d) stacks and
hidden states an (L, d, d) stack over the L strategies.  The 0/1
selection matrix A[x * outcomes + a, lam] = D_lam(a|x) is the only record
of which strategy answers which member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from . import ipm
from .strategies import selection

#: refuse interior-point solves whose dense Schur factor would not fit in
#: memory; 64-dimensional members need ~4.8 GB, well past a small box
_SCHUR_BYTE_CAP = 2e9

SUPPORT_RTOL = 1e-10
DROP_TRACE = 1e-12
_INTERSECT_TOL = 1e-9

#: most averaged reflections the exact-zero exit tries on a region
MAX_ROUNDS = 4000
#: reflections without halving the PSD deficit before the search gives up
ZERO_EXIT_ROUNDS = 20
#: largest equality residual of a local model the exact-zero exit accepts
ZERO_EXIT_RESIDUAL = 1e-12

#: margins of :func:`verify_certificate`
CERT_OBJ_TOL = 1e-6
CERT_PSD_TOL = 1e-9
CERT_STRATEGY_TOL = 1e-7


@dataclass
class SdpSolution:
    """Solver output in the original (unreduced) assemblage space: the
    hidden states as a (strategies, d, d) array and the dual certificate
    as a (settings, outcomes, d, d) array like the members."""

    mu_star: float
    hidden_states: np.ndarray
    dual_certificate: Optional[np.ndarray]
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


def _support_basis(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical range of a PSD matrix, from its
    ascending eigenvalues and eigenvectors: ``np.eye(d)`` when the matrix
    has full rank and a (d, 0) array when it vanishes entirely.
    """
    keep = evals > max(SUPPORT_RTOL * evals[-1], DROP_TRACE)
    if keep.all():
        return np.eye(len(evals), dtype=complex)
    return np.ascontiguousarray(evecs[:, keep])


class SteeringWeightProblem:
    """Validated assemblage plus its deterministic-strategy structure.

    ``members`` is one ``(settings, outcomes, d, d)`` array and ``flat``
    its ``(settings * outcomes, d, d)`` view, whose member r = x * outcomes
    + a is sigma_{a|x}; ``a_mat[r, lam]`` and its pseudoinverse ``pinv``
    come from one :func:`selection` call.  Validation checks shape,
    finiteness, hermiticity, traces and no-signalling at construction.
    The member eigenvalues are computed once, on first access, and that
    access also rejects a member with an eigenvalue below -1e-8; the
    exits read them and share one least-norm model.  ``reflections``
    counts the averaged reflections the exact-zero exit ran.

    Parameters
    ----------
    members : array_like of shape (settings, outcomes, d, d)
        Subnormalized states sigma_{a|x} as Hermitian PSD matrices whose
        traces sum to one within each setting; nested lists are accepted.
    """

    def __init__(self, members, validate: bool = True):
        try:
            stack = np.asarray(members, dtype=complex)
        except ValueError:
            raise ValueError("ragged assemblage: outcome counts or member "
                             "shapes differ") from None
        if stack.ndim != 4 or not stack.size or stack.shape[2] != stack.shape[3]:
            raise ValueError(f"assemblage of shape {stack.shape} is not a "
                             "(settings, outcomes, d, d) stack, d >= 1")
        self.members = stack
        self.n_settings, self.n_outcomes, self.dim = stack.shape[:3]
        self.flat = stack.reshape(-1, self.dim, self.dim)
        self._validate_spectrum = validate
        if validate:
            self._validate()
        self.a_mat, self.pinv = selection(self.n_settings, self.n_outcomes)
        self.reflections = 0

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of every member, setting-major.

        The last check of validation: for a validated problem, raises
        ``ValueError`` when a member has an eigenvalue below -1e-8.
        """
        evals = np.linalg.eigvalsh(self.flat)
        lam_min = evals[:, 0]
        if self._validate_spectrum and (lam_min < -1e-8).any():
            r = int(np.argmax(lam_min < -1e-8))
            raise ValueError(f"{self._member(r)} has negative "
                             f"eigenvalue {lam_min[r]:.2e}")
        return evals

    @property
    def floor(self) -> float:
        """Smallest eigenvalue of any member."""
        return float(self.eigenvalues[:, 0].min())

    @cached_property
    def least_norm(self) -> Tuple[np.ndarray, np.ndarray]:
        """The least-norm model pinv @ members and the null-space
        projector 1 - pinv A."""
        seed = ipm._herm(_apply(self.pinv, self.flat))
        return seed, np.eye(len(self.pinv)) - self.pinv @ self.a_mat

    def _member(self, r: int) -> str:
        x, a = divmod(r, self.n_outcomes)
        return f"member ({a}|{x})"

    def _validate(self):
        flat = self.flat
        bad = ~np.isfinite(flat).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"{self._member(int(np.argmax(bad)))} has a "
                             "non-finite entry")
        adj = flat.conj().transpose(0, 2, 1)
        skew = ~(np.abs(flat - adj)
                 <= 1e-8 + 1e-5 * np.abs(adj)).all(axis=(1, 2))
        if skew.any():
            raise ValueError(f"{self._member(int(np.argmax(skew)))} is not "
                             "Hermitian")
        totals = np.trace(self.members, axis1=2, axis2=3).real.sum(axis=1)
        off = np.abs(totals - 1.0) > 1e-6
        if off.any():
            x = int(np.argmax(off))
            raise ValueError(f"setting {x}: member traces sum to "
                             f"{totals[x]}, expected 1")
        marginals = self.members.sum(axis=1)
        if not np.isclose(marginals[1:], marginals[0], atol=1e-7).all():
            raise ValueError("assemblage violates no-signaling: "
                             "setting marginals differ")

    # -- facial reduction -------------------------------------------------
    def reduce(self) -> _Reduction:
        """Member supports and strategy faces, eigendecomposing only the
        members that the cached eigenvalues mark as rank deficient.

        A strategy's face, the intersection of the supports of the
        members it selects, is the kernel of the sum of their complement
        projectors; one batched eigensolve finds every face.
        """
        evals, d = self.eigenvalues, self.dim
        full = np.eye(d, dtype=complex)
        pis = [full] * len(self.flat)
        comp = np.zeros_like(self.flat)
        deficient = np.flatnonzero(
            evals[:, 0] <= np.maximum(SUPPORT_RTOL * evals[:, -1], DROP_TRACE))
        if not len(deficient):
            return _Reduction(pis, [full] * self.a_mat.shape[1], (), comp)
        for r, w, v in zip(deficient, *np.linalg.eigh(self.flat[deficient])):
            pis[r] = pi = _support_basis(w, v)
            comp[r] = full - pi @ pi.conj().T
        # a unit vector of one support at principal angle theta to another
        # has complement weight sin^2 theta ~ 2 (1 - cos theta), so this
        # is the singular-value test 1 - cos theta < _INTERSECT_TOL
        w, v = np.linalg.eigh(_apply(self.a_mat.T, comp))
        ranks = (w < 2 * _INTERSECT_TOL).sum(axis=1)
        q_bases = [full if k == d else np.ascontiguousarray(vec[:, :k])
                   for vec, k in zip(v, ranks)]
        eliminated = tuple(int(lam) for lam in np.flatnonzero(ranks == 0))
        return _Reduction(pis, q_bases, eliminated, comp)


@dataclass
class _Reduction:
    """Member supports ``pis`` and strategy faces ``q_bases`` as
    orthonormal (d, k) bases (``np.eye(d)`` is the full space, a (d, 0)
    basis an eliminated block), and the members' complement projectors
    1 - Pi Pi^dag as one stack ``comp`` (zero for a full-rank member)."""

    pis: List[np.ndarray]
    q_bases: List[np.ndarray]
    eliminated: Tuple[int, ...]
    comp: np.ndarray

    @property
    def engaged(self) -> bool:
        return bool(self.comp.any())


def _embedding(pi: np.ndarray, q: np.ndarray) -> Optional[np.ndarray]:
    """Congruence from a strategy's reduced block into a member's; None
    when both bases are the full space, the identity congruence that the
    interior-point solver short-circuits."""
    if pi.shape[1] == q.shape[1] == len(pi):
        return None
    return pi.conj().T @ q


def solve_steering_weight(members) -> SdpSolution:
    """Steerable weight of an assemblage, by the first exit that settles it.

    ``members`` is a ``(settings, outcomes, d, d)`` array or the same
    nested as lists.  In order: the exact zero, facial reduction with the
    exact unit weight and the face zero (all ``iterations == 0``), and
    the interior-point solve, whose status, such as ``NumericalFailure``,
    labels a solve that misses its fixed stop rule.  A reduced Schur
    system past the memory cap raises :class:`ipm.NumericalFailure`.
    Returns an :class:`SdpSolution`; the weight itself is
    ``solution.steerable_weight``.
    """
    problem = SteeringWeightProblem(members)
    zero = _exact_zero_weight(problem)
    if zero is not None:
        return zero
    problem.eigenvalues  # rejects a negative member before any solve
    red = problem.reduce()
    d = problem.dim
    survivors = [lam for lam, q in enumerate(red.q_bases) if q.shape[1]]
    if not survivors:
        return _exact_unit_weight(problem, red)
    if red.engaged:
        zero = _prove_local_model(problem, problem.least_norm[0], red.q_bases)
        if zero is not None:
            return zero

    kept = [r for r, pi in enumerate(red.pis) if pi.shape[1]]
    schur_dim = sum(red.pis[r].shape[1] ** 2 for r in kept)
    if schur_dim ** 2 * 8 > _SCHUR_BYTE_CAP:
        raise ipm.NumericalFailure(
            f"Schur system {schur_dim}x{schur_dim} needs "
            f"~{schur_dim ** 2 * 8 / 1e9:.1f} GB; member dimension {d} is "
            f"past the interior-point envelope, and {problem.reflections} "
            "reflections found no local model of mass 1")

    # conic blocks: one per surviving strategy, then one slack per kept
    # member; row r reads sum_{lam selects r} sigma_lam + slack_r = sigma_r
    strat_pos = {lam: pos for pos, lam in enumerate(survivors)}
    c_blocks = [-np.eye(red.q_bases[lam].shape[1], dtype=complex)
                for lam in survivors]
    b_blocks, rows = [], []
    for r in kept:
        pi, m = red.pis[r], problem.flat[r]
        rows.append([(strat_pos[lam], _embedding(pi, red.q_bases[lam]))
                     for lam in np.flatnonzero(problem.a_mat[r])
                     if lam in strat_pos]
                    + [(len(survivors) + len(b_blocks), None)])
        b_blocks.append(pi.conj().T @ m @ pi)
    c_blocks += [np.zeros_like(m) for m in b_blocks]

    res = ipm.solve_conic(c_blocks, b_blocks, rows)

    mu = float(sum(np.trace(h).real for h in res.x[:len(survivors)]))
    hidden = np.zeros((len(red.q_bases), d, d), dtype=complex)
    for lam, h in zip(survivors, res.x):
        hidden[lam] = red.q_bases[lam] @ h @ red.q_bases[lam].conj().T

    # dual certificate: slack-block z is exactly PSD and approximates -y
    certificate = _lift_certificate(
        problem, red, dict(zip(kept, res.z[len(survivors):])))
    return SdpSolution(mu, hidden, certificate, res.status, res.gap,
                       res.iterations, res.pinf, res.dinf,
                       red.engaged, red.eliminated)


def _exact_zero_weight(problem: SteeringWeightProblem
                       ) -> Optional[SdpSolution]:
    """A local model of mass 1, which makes mu* = 1 and TSW = 0 exactly.

    The least-norm solution sigma_lam = sum_r pinv[lam, r] sigma_r meets
    the equalities sum_{lam selects r} sigma_lam = sigma_r of any
    no-signalling assemblage, and :func:`_prove_local_model` tries it
    first.  When that fails and every member has full rank (which reads
    the member eigenvalues), the prover tries the last iterate of
    :func:`_reflect` from it.  Returns None when neither is proved; the
    reflections run are counted in ``problem.reflections``.
    """
    seed, to_null = problem.least_norm
    zero = _prove_local_model(problem, seed)
    if zero is None and problem.floor > 0.0:
        iterate, problem.reflections = _reflect(
            seed, to_null, 1e-3 * problem.floor / len(seed), MAX_ROUNDS)
        zero = _prove_local_model(problem, iterate)
    return zero


def _prove_local_model(problem: SteeringWeightProblem, model: np.ndarray,
                       faces: Optional[List[np.ndarray]] = None
                       ) -> Optional[SdpSolution]:
    """Prove ``model``, an (L, d, d) stack, a local model of mass 1:
    mu* is the literal 1.0 and TSW = 0 exactly.  None if it is not.

    With ``faces`` each state is first compressed onto its strategy's
    face (an empty face holds the zero state) and the lifted model is
    proved.  One batched Cholesky per block size proves the blocks
    positive definite, and an equality residual of at most
    ``ZERO_EXIT_RESIDUAL`` then proves mu* >= 1; F_{a|x} = I/n_settings
    is dual feasible with value 1, which proves mu* <= 1.  The residual
    keeps every member above -d * ZERO_EXIT_RESIDUAL, so a proof that
    reads no member eigenvalue accepts no member validation rejects.
    """
    blocks, lifted = [model], model
    if faces is not None:
        blocks, lifted = [], np.zeros_like(model)
        for k in {q.shape[1] for q in faces} - {0}:
            idx = [lam for lam, q in enumerate(faces) if q.shape[1] == k]
            q = np.stack([faces[lam] for lam in idx])
            blocks.append(q.conj().swapaxes(1, 2) @ model[idx] @ q)
            lifted[idx] = q @ blocks[-1] @ q.conj().swapaxes(1, 2)
    try:
        for block in blocks:
            np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return None
    if np.abs(_apply(problem.a_mat, lifted) - problem.flat).max() \
            > ZERO_EXIT_RESIDUAL:
        return None
    f = np.eye(problem.dim, dtype=complex) / problem.n_settings
    certificate = np.tile(f, (problem.n_settings, problem.n_outcomes, 1, 1))
    return SdpSolution(1.0, lifted, certificate, "Optimal", 0.0, 0)


def _reflect(seed: np.ndarray, to_null: np.ndarray, shift: float,
             rounds: int):
    """Averaged alternating reflections between the affine set
    seed + (1 - pinv A) z and the cone {sigma >= shift I}.

    Stops once the affine-exact iterate is PSD, after ``rounds``
    reflections, or when its smallest eigenvalue has not halved its
    deficit for ``ZERO_EXIT_ROUNDS`` rounds.  Returns the affine-exact
    iterate and the number of reflections run.
    """
    state = hidden = seed
    lam_min = np.linalg.eigvalsh(hidden)[:, 0].min()
    best, stale, tried = -lam_min, 0, 0
    while tried < rounds and lam_min < 0.0 and stale < ZERO_EXIT_ROUNDS:
        tried += 1
        ev, vec = np.linalg.eigh(2.0 * hidden - state)
        cone = (vec * np.maximum(ev, shift)[:, None, :]) \
            @ vec.conj().swapaxes(-1, -2)
        state = state + cone - hidden
        hidden = ipm._herm(seed + _apply(to_null, state))
        lam_min = np.linalg.eigvalsh(hidden)[:, 0].min()
        if -lam_min < 0.5 * best:
            best, stale = -lam_min, 0
        else:
            stale += 1
    return hidden, tried


def _apply(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k mat[i, k] stack[k] for a (k, d, d) stack, as one matrix
    product over the flattened members."""
    return (mat @ stack.reshape(len(stack), -1)).reshape(
        len(mat), *stack.shape[1:])


def _exact_unit_weight(problem: SteeringWeightProblem,
                       red: _Reduction) -> SdpSolution:
    """Every strategy eliminated: mu* = 0 and TSW = 1, exactly."""
    hidden = np.zeros((len(red.q_bases), problem.dim, problem.dim),
                      dtype=complex)
    certificate = _lift_certificate(problem, red, {})
    return SdpSolution(0.0, hidden, certificate, "Optimal", 0.0, 0,
                       reduced=True, eliminated=red.eliminated)


def _lift_certificate(problem: SteeringWeightProblem, red: _Reduction,
                      f_tilde) -> np.ndarray:
    """Map reduced dual blocks back to d x d steering-inequality operators.

    ``f_tilde`` maps flat member indices to reduced dual blocks.
    F_{a|x} = Pi F~ Pi^dag + kappa (1 - Pi Pi^dag); kappa grows until every
    strategy constraint sum_x F_{a(x)|x} >= 1 clears, which only involves
    the complement weight when the reduction eliminated strategies.
    """
    base = np.zeros_like(problem.flat)
    for r, ft in f_tilde.items():
        base[r] = red.pis[r] @ ft @ red.pis[r].conj().T
    if not red.engaged:
        return base.reshape(problem.members.shape)
    scale = float(np.linalg.norm(base, 2, axis=(1, 2)).max())
    kappa = max(2.0, 2.0 * scale)
    while True:
        cert = base + kappa * red.comp
        worst = _worst_strategy_margin(problem.a_mat, cert)
        if worst >= 1e-9 or kappa > 1e6:
            return cert.reshape(problem.members.shape)
        kappa *= 4.0


def _worst_strategy_margin(a_mat: np.ndarray, cert: np.ndarray) -> float:
    """Smallest eigenvalue of any sum_x F_{a(x)|x} - 1, over the
    strategies; ``cert`` is stacked setting-major like the members."""
    totals = _apply(a_mat.T, cert) - np.eye(cert.shape[-1])
    return float(np.linalg.eigvalsh(totals)[:, 0].min())


def verify_certificate(problem, solution: SdpSolution) -> bool:
    """Check the dual certificate independently of how it was produced.

    A valid certificate consists of PSD operators F_{a|x} with
    sum_x F_{a(x)|x} >= 1 for every deterministic strategy; then
    sum_ax tr(F_{a|x} sigma_{a|x}) is an upper bound on mu*, and matching
    the reported mu* certifies the weight.  The members and the
    certificate may each be an array or nested lists.  The margins, with
    s = max(1, largest spectral norm of any F_{a|x}): hermiticity to
    1e-8 s, every eigenvalue of F_{a|x} at least -``CERT_PSD_TOL`` s and
    of sum_x F_{a(x)|x} - 1 at least -``CERT_STRATEGY_TOL`` s, and the
    value within ``CERT_OBJ_TOL`` of mu*.
    """
    if not isinstance(problem, SteeringWeightProblem):
        problem = SteeringWeightProblem(problem, validate=False)
    if solution.dual_certificate is None:
        return False
    cert = np.asarray(solution.dual_certificate, dtype=complex)
    if cert.shape != problem.members.shape:
        return False
    cert = cert.reshape(problem.flat.shape)
    scale = max(1.0, float(np.linalg.norm(cert, 2, axis=(1, 2)).max()))
    if not np.allclose(cert, cert.conj().swapaxes(-1, -2),
                       atol=1e-8 * scale):
        return False
    if float(np.linalg.eigvalsh(ipm._herm(cert))[:, 0].min()) \
            < -CERT_PSD_TOL * scale:
        return False
    if _worst_strategy_margin(problem.a_mat, cert) \
            < -CERT_STRATEGY_TOL * scale:
        return False
    value = float(np.einsum("rij,rji->", cert, problem.flat).real)
    return abs(value - solution.mu_star) <= CERT_OBJ_TOL
