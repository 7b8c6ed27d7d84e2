"""Dense linear algebra for multi-qubit states.

Conventions used throughout the package:

* A register of ``n`` qubits is an ordered tuple of string labels.  The
  leftmost label is the most significant bit of the computational-basis
  index, i.e. basis state ``|b_1 b_2 ... b_n>`` has integer index
  ``b_1 * 2^(n-1) + ... + b_n``.
* Operators and density matrices are dense complex ``ndarray``s of shape
  ``(2^n, 2^n)``.
* Von Neumann entropies are measured in bits (base-2 logarithm).

Everything here is plain NumPy; no quantum framework is involved, so the
index conventions above are the single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Alias for readability in signatures: a dense complex matrix.
ComplexMatrix = np.ndarray

#: Eigenvalues below this are treated as exact zeros inside entropies.
ENTROPY_CUTOFF = 1e-12

#: Hermiticity / unitarity tolerance used by the validating helpers.
HERMITIAN_ATOL = 1e-10


class QubitRegister:
    """Ordered collection of qubit labels.

    Parameters
    ----------
    labels : sequence of str
        Unique qubit labels, most significant bit first.

    Examples
    --------
    >>> reg = QubitRegister(["r1", "q1", "q2"])
    >>> reg.dim
    8
    >>> reg.axes(["q2", "r1"])
    (2, 0)
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels!r}")
        if not labels:
            raise ValueError("register needs at least one qubit")
        self.labels = labels

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def axes(self, labels: Sequence[str]) -> tuple:
        """Positions of ``labels`` within the register (order preserved)."""
        return tuple(self.labels.index(l) for l in labels)

    def complement(self, labels: Sequence[str]) -> tuple:
        """Labels not in ``labels``, in register order."""
        drop = set(labels)
        missing = drop - set(self.labels)
        if missing:
            raise KeyError(f"labels {sorted(missing)} not in register {self.labels}")
        return tuple(l for l in self.labels if l not in drop)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, QubitRegister) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"QubitRegister({list(self.labels)!r})"


@dataclass
class DensityMatrix:
    """A density matrix together with its qubit register.

    The matrix is not copied; callers own the memory.  ``validate`` checks
    hermiticity, unit trace and positivity up to ``HERMITIAN_ATOL`` and is
    meant for tests and the verify suite, not for hot loops.
    """

    matrix: ComplexMatrix
    register: QubitRegister

    def __post_init__(self):
        if not isinstance(self.register, QubitRegister):
            self.register = QubitRegister(self.register)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.register.dim, self.register.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match register dimension "
                f"{self.register.dim}"
            )
        self.matrix = mat

    @classmethod
    def pure(cls, state: np.ndarray, register) -> "DensityMatrix":
        """Density matrix |psi><psi| of a normalized state vector."""
        psi = np.asarray(state, dtype=complex).ravel()
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()), register)

    @property
    def dim(self) -> int:
        return self.register.dim

    def validate(self, atol: float = HERMITIAN_ATOL) -> None:
        """Raise ValueError unless Hermitian, unit trace and PSD within atol."""
        mat = self.matrix
        if not np.allclose(mat, mat.conj().T, atol=atol):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e3 * atol:
            raise ValueError(f"trace is {np.trace(mat)!r}, expected 1")
        evals = np.linalg.eigvalsh(mat)
        if evals.min() < -1e3 * atol:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")


def kron(*ops: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product of one or more operators, left to right.

    The leftmost factor acts on the most significant qubit(s), matching the
    register convention.
    """
    if not ops:
        raise ValueError("kron of zero operators")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _as_tensor(mat: ComplexMatrix, n: int) -> np.ndarray:
    """View a (2^n, 2^n) matrix as a rank-2n tensor, bra axes first."""
    return mat.reshape((2,) * (2 * n))


def partial_trace(dm: DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    Parameters
    ----------
    dm : DensityMatrix
    keep : sequence of str
        Labels to retain.  The output register uses exactly this order, so
        the call doubles as a subsystem permutation.

    Returns
    -------
    DensityMatrix on ``keep``.
    """
    keep = tuple(keep)
    reg = dm.register
    if not keep:
        raise ValueError("cannot keep zero qubits")
    keep_axes = reg.axes(keep)
    traced_axes = tuple(i for i in range(reg.n) if i not in keep_axes)
    n = reg.n
    tensor = _as_tensor(dm.matrix, n)
    order = keep_axes + traced_axes + tuple(a + n for a in keep_axes) \
        + tuple(a + n for a in traced_axes)
    dk = 2 ** len(keep_axes)
    dt = 2 ** len(traced_axes)
    block = tensor.transpose(order).reshape(dk, dt, dk, dt)
    out = np.einsum("iaja->ij", block)
    return DensityMatrix(np.ascontiguousarray(out), QubitRegister(keep))


def partial_transpose(dm: DensityMatrix, labels: Sequence[str]) -> DensityMatrix:
    """Transpose the listed qubits in place of the full transpose.

    Applying the same partial transpose twice returns the original matrix.
    """
    reg = dm.register
    axes = reg.axes(tuple(labels))
    n = reg.n
    tensor = _as_tensor(dm.matrix, n)
    order = list(range(2 * n))
    for a in axes:
        order[a], order[a + n] = order[a + n], order[a]
    out = tensor.transpose(order).reshape(reg.dim, reg.dim)
    return DensityMatrix(np.ascontiguousarray(out), reg)


def hermitian_eig(mat: ComplexMatrix):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(evals, evecs)`` with eigenvalues ascending and
    ``mat = evecs @ diag(evals) @ evecs.conj().T``.  Raises ValueError when
    the input is not Hermitian within tolerance.
    """
    mat = np.asarray(mat)
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if not np.allclose(mat, mat.conj().T, atol=HERMITIAN_ATOL * scale):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh(mat)


class Propagator:
    """Unitary time evolution ``exp(-i H t)`` from a cached eigenbasis.

    Diagonalizes the Hamiltonian once; each requested time then costs one
    dense matrix product.  The spectral decomposition keeps long scans (a
    few hundred times on the same Hamiltonian) cheap and bitwise
    reproducible.
    """

    def __init__(self, hamiltonian: ComplexMatrix):
        self.evals, self.evecs = hermitian_eig(hamiltonian)
        self.dim = self.evals.shape[0]

    def unitary(self, t: float) -> ComplexMatrix:
        phases = np.exp(-1j * self.evals * t)
        return (self.evecs * phases) @ self.evecs.conj().T


def von_neumann_entropy(dm, base: float = 2.0) -> float:
    """Von Neumann entropy, in bits by default.

    Eigenvalues at or below ``ENTROPY_CUTOFF`` are discarded; exact zeros
    produced by rank-deficient states therefore contribute nothing instead
    of NaN.  Accepts a DensityMatrix or a bare Hermitian matrix.
    """
    mat = dm.matrix if isinstance(dm, DensityMatrix) else np.asarray(dm)
    evals = np.linalg.eigvalsh(mat)
    probs = evals[evals > ENTROPY_CUTOFF]
    if probs.size == 0:
        return 0.0
    return float(-np.sum(probs * np.log(probs)) / np.log(base))


def mutual_information(dm: DensityMatrix, labels_a: Sequence[str],
                       labels_b: Sequence[str], base: float = 2.0) -> float:
    """Quantum mutual information I(A:B) = S(A) + S(B) - S(AB) in bits.

    ``labels_a`` and ``labels_b`` must be disjoint subsets of the register;
    the state is reduced to A union B first, so ``dm`` may contain extra
    qubits.
    """
    la, lb = tuple(labels_a), tuple(labels_b)
    if set(la) & set(lb):
        raise ValueError("regions A and B overlap")
    rho_ab = partial_trace(dm, la + lb)
    rho_a = partial_trace(rho_ab, la)
    rho_b = partial_trace(rho_ab, lb)
    return (von_neumann_entropy(rho_a, base) + von_neumann_entropy(rho_b, base)
            - von_neumann_entropy(rho_ab, base))

