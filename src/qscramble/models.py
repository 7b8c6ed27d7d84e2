"""Hamiltonians and unitaries whose scrambling we diagnose.

Three families are provided:

* a mixed-field Ising chain (open boundaries) covering both an integrable
  and a chaotic parameter point,
* a dense four-body random Majorana model realized on qubits through a
  Jordan-Wigner encoding,
* Clifford circuits: a fixed 3-qubit scrambling unitary known in closed
  form, and a one-parameter interpolation from the identity to an equally
  scrambling point, used to anchor the diagnostics against exact values.

Pauli strings are handled symbolically (bitmask pair plus coefficient) so
Hamiltonian assembly never Kronecker-multiplies 2x2 factors in a loop;
dense materialization writes one diagonal of entries per string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import List

import numpy as np

from .qla import ComplexMatrix, kron

# Letter -> (x bit, z bit) in the X^x Z^z convention (Y = i X Z).
_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_LETTER = {v: k for k, v in _LETTER_XZ.items()}


class PauliString:
    """A coefficient times an n-qubit Pauli string.

    Internally the string is a pair of bitmasks (x, z) with qubit 1 at the
    most significant bit, matching the register convention, plus a complex
    coefficient.  The represented operator is ``coeff`` times the Hermitian
    string whose letter on each site is I, X, Y or Z.

    Examples
    --------
    >>> p = PauliString.from_label("XZ")
    >>> q = PauliString.from_label("ZX")
    >>> (p * q).label
    'YY'
    >>> (p * q).coeff
    (1+0j)
    """

    __slots__ = ("n", "xmask", "zmask", "coeff")

    def __init__(self, n: int, xmask: int, zmask: int, coeff: complex = 1.0):
        self.n = n
        self.xmask = xmask
        self.zmask = zmask
        self.coeff = complex(coeff)

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliString":
        xmask = zmask = 0
        n = len(label)
        for i, letter in enumerate(label):
            try:
                x, z = _LETTER_XZ[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r} in {label!r}")
            bit = 1 << (n - 1 - i)
            xmask |= bit * x
            zmask |= bit * z
        return cls(n, xmask, zmask, coeff)

    @property
    def label(self) -> str:
        letters = []
        for i in range(self.n):
            bit = 1 << (self.n - 1 - i)
            letters.append(_XZ_LETTER[(int(bool(self.xmask & bit)),
                                       int(bool(self.zmask & bit)))])
        return "".join(letters)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("Pauli strings act on different register sizes")
        # In the X^x Z^z normal form, commuting Z^z1 through X^x2 costs
        # (-1)^{|z1 & x2|}; each Y contributes a factor i relative to XZ.
        ny1 = (self.xmask & self.zmask).bit_count()
        ny2 = (other.xmask & other.zmask).bit_count()
        x = self.xmask ^ other.xmask
        z = self.zmask ^ other.zmask
        ny = (x & z).bit_count()
        phase = (1j) ** ((ny1 + ny2 - ny) % 4)
        if (self.zmask & other.xmask).bit_count() & 1:
            phase = -phase
        return PauliString(self.n, x, z, self.coeff * other.coeff * phase)

    def dense(self) -> ComplexMatrix:
        """Materialize as a dense (2^n, 2^n) matrix."""
        dim = 1 << self.n
        mat = np.zeros((dim, dim), dtype=complex)
        self.add_to(mat)
        return mat

    def add_to(self, mat: ComplexMatrix) -> None:
        """Accumulate the dense form into ``mat`` without a temporary."""
        dim = 1 << self.n
        cols = np.arange(dim)
        signs = 1.0 - 2.0 * (_popcount_table(self.n)[cols & self.zmask] & 1)
        ny = (self.xmask & self.zmask).bit_count()
        vals = (self.coeff * (1j) ** (ny % 4)) * signs
        mat[cols ^ self.xmask, cols] += vals

    def __repr__(self) -> str:
        return f"PauliString({self.coeff!r} * {self.label!r})"


@cache
def _popcount_table(n: int) -> np.ndarray:
    """Number of set bits of every n-bit integer, read-only because
    every caller shares the table."""
    idx = np.arange(1 << n, dtype=np.uint32)
    table = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        table += ((idx >> b) & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def pauli_matrix(label: str) -> ComplexMatrix:
    """Dense matrix of a Pauli string given by its letters, e.g. "XIZ"."""
    return PauliString.from_label(label).dense()


def pauli_basis_labels(n: int) -> List[str]:
    """All 4^n Pauli labels in lexicographic (I, X, Y, Z) site order."""
    labels = [""]
    for _ in range(n):
        labels = [lab + c for lab in labels for c in "IXYZ"]
    return labels


@dataclass
class HamiltonianSpec:
    """A Hamiltonian as a weighted Pauli-string sum.

    ``matrix()`` materializes (and caches) the dense form.
    """

    name: str
    n_qubits: int
    terms: List[PauliString]
    _matrix: ComplexMatrix = field(default=None, repr=False, compare=False)

    def matrix(self) -> ComplexMatrix:
        if self._matrix is None:
            dim = 1 << self.n_qubits
            out = np.zeros((dim, dim), dtype=complex)
            for term in self.terms:
                term.add_to(out)
            self._matrix = out
        return self._matrix


def build_ising(n: int, g: float, h: float) -> HamiltonianSpec:
    """Mixed-field Ising chain with open boundaries.

    H = -sum_i Z_i Z_{i+1} - h sum_i Z_i - g sum_i X_i.  The point
    (g, h) = (1, 0) is integrable (transverse field only); (g, h) =
    (1, 0.5) is robustly chaotic.

    Parameters
    ----------
    n : int
        Chain length (number of qubits), n >= 2.
    g : float
        Transverse-field strength.
    h : float
        Longitudinal-field strength.
    """
    if n < 2:
        raise ValueError("chain needs at least 2 sites")
    terms: List[PauliString] = []
    for i in range(n - 1):
        bits = (1 << (n - 1 - i)) | (1 << (n - 2 - i))
        terms.append(PauliString(n, 0, bits, -1.0))
    for i in range(n):
        bit = 1 << (n - 1 - i)
        if h != 0.0:
            terms.append(PauliString(n, 0, bit, -h))
        if g != 0.0:
            terms.append(PauliString(n, bit, 0, -g))
    return HamiltonianSpec("ising", n, terms)


def jordan_wigner_majorana(index: int, n_qubits: int) -> PauliString:
    """Majorana mode ``index`` (1-based, up to 2 * n_qubits) on qubits.

    chi_{2k-1} = (X_1 ... X_{k-1} Z_k) / sqrt(2)
    chi_{2k}   = (X_1 ... X_{k-1} Y_k) / sqrt(2)

    normalized so that {chi_i, chi_j} = delta_ij * identity.
    """
    if not 1 <= index <= 2 * n_qubits:
        raise ValueError(f"Majorana index {index} outside 1..{2 * n_qubits}")
    k = (index + 1) // 2  # encoding qubit, 1-based
    letters = ["X"] * (k - 1) + ["Z" if index % 2 else "Y"]
    letters += ["I"] * (n_qubits - k)
    return PauliString.from_label("".join(letters), 1.0 / np.sqrt(2.0))


def build_syk(n_qubits: int, j_coupling: float = 1.0,
              seed: int = 0) -> HamiltonianSpec:
    """Four-body random all-to-all Majorana Hamiltonian on qubits.

    H = sum_{i<j<k<l} J_ijkl chi_i chi_j chi_k chi_l over N = 2 n_qubits
    Majorana modes, with i.i.d. couplings of variance
    3! J^2 / ((N-1)(N-2)(N-3)).  Couplings are drawn in lexicographic
    order of (i, j, k, l) from a PCG64 generator, so a seed pins the
    Hamiltonian bit for bit.
    """
    n_majorana = 2 * n_qubits
    if n_majorana < 4:
        raise ValueError("need at least 4 Majorana modes (2 qubits)")
    var = (6.0 * j_coupling ** 2
           / ((n_majorana - 1) * (n_majorana - 2) * (n_majorana - 3)))
    quads = list(combinations(range(1, n_majorana + 1), 4))
    rng = np.random.Generator(np.random.PCG64(seed))
    couplings = rng.normal(0.0, np.sqrt(var), size=len(quads))
    chis = [jordan_wigner_majorana(i, n_qubits)
            for i in range(1, n_majorana + 1)]
    terms: List[PauliString] = []
    for coupling, (i, j, k, l) in zip(couplings, quads):
        prod = chis[i - 1] * chis[j - 1] * chis[k - 1] * chis[l - 1]
        prod.coeff *= coupling
        terms.append(prod)
    return HamiltonianSpec("syk", n_qubits, terms)


# Fixed 3-qubit scrambling Clifford.  Every single-site Pauli is mapped to
# a weight-3 string (see the conjugation table in the tests), which is the
# strongest scrambling a 3-qubit Clifford can achieve.
_SCRAMBLER_ROWS = np.array([
    [-1, 0, 0, -1, 0, -1, -1, 0],
    [0, 1, -1, 0, -1, 0, 0, 1],
    [0, -1, 1, 0, -1, 0, 0, 1],
    [1, 0, 0, 1, 0, -1, -1, 0],
    [0, -1, -1, 0, 1, 0, 0, 1],
    [1, 0, 0, -1, 0, 1, -1, 0],
    [1, 0, 0, -1, 0, -1, 1, 0],
    [0, -1, -1, 0, -1, 0, 0, -1],
], dtype=float)


def clifford_scrambler_unitary() -> ComplexMatrix:
    """The fixed maximally scrambling 3-qubit Clifford unitary."""
    return 0.5j * _SCRAMBLER_ROWS.astype(complex)


def _pauli_rotation(label: str, phi: float) -> ComplexMatrix:
    """exp(-i phi P) for a Pauli string P (closed form, P^2 = 1)."""
    mat = pauli_matrix(label)
    dim = mat.shape[0]
    return np.cos(phi) * np.eye(dim, dtype=complex) - 1j * np.sin(phi) * mat


def clifford_scan_unitary(theta: float) -> ComplexMatrix:
    """One-parameter 3-qubit circuit from identity to full scrambling.

    U(theta) = W(theta/2) R(theta/2) W(theta/2) with
    W(phi) = prod_{i<j} exp(-i phi X_i X_j) and
    R(phi) = prod_i exp(-i phi Z_i).

    U(0) is the identity; at theta = pi/2 every weight-1 Pauli is
    conjugated to a weight-3 string, matching the fixed scrambler's
    tripartite information; and U(theta + pi) equals U(theta) up to a
    global phase times Z1 Z2 Z3, so both scrambling witnesses are exactly
    pi-periodic in theta.
    """
    phi = 0.5 * theta
    w = (_pauli_rotation("XXI", phi) @ _pauli_rotation("XIX", phi)
         @ _pauli_rotation("IXX", phi))
    r = (_pauli_rotation("ZII", phi) @ _pauli_rotation("IZI", phi)
         @ _pauli_rotation("IIZ", phi))
    return w @ r @ w


def haar_random_unitary(dim: int, rng: np.random.Generator) -> ComplexMatrix:
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_local_unitary(partition, rng: np.random.Generator) -> ComplexMatrix:
    """Haar product U_C (x) U_D for a two-region partition of the register.

    ``partition`` carries ``region_c`` and ``region_d`` label tuples (as in
    the channel-partition type); each region gets an independent Haar
    unitary of its own dimension, embedded at its qubit positions.  The
    output never couples C to D, whatever the block sizes.  Kept in the
    package because the witness-gates check of ``qscramble verify``
    draws its local product from it.
    """
    regions = (tuple(partition.region_c), tuple(partition.region_d))
    positions = [int(lbl[1:]) - 1 for reg in regions for lbl in reg]
    n = len(positions)
    if sorted(positions) != list(range(n)):
        raise ValueError(f"regions {regions} do not tile the register")
    u = kron(*(haar_random_unitary(2 ** len(reg), rng) for reg in regions))
    if positions == list(range(n)):
        return u
    slot_of = {q: k for k, q in enumerate(positions)}
    axes = [slot_of[q] for q in range(n)]
    t = u.reshape((2,) * (2 * n))
    t = np.transpose(t, axes + [a + n for a in axes])
    return np.ascontiguousarray(t.reshape(u.shape))

