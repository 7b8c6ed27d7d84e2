"""Channel-state representations and the tripartite-information witness.

A unitary channel on N qubits is turned into a state in two ways:

* the Choi state: maximally entangled pairs between each input and its
  reference, with the channel applied to the input half, on register
  ``r1..rN q1..qN``.  :class:`ChoiState` holds U itself: the witnesses
  need only marginals, and each is one product formed straight from U,
  so a scan never builds the 4^N-dimensional pure state.
* the pseudo-density matrix (PDM): the two-time Pauli correlators of the
  channel packed into a Hermitian unit-trace matrix on input tensor
  output.  It is not positive; its negativity is exactly what temporal
  steering probes.  The PDM equals the partial transpose of the Choi
  state over the reference block, and both constructions are
  implemented so each can check the other.

The tripartite information of the channel is evaluated on the Choi state:
with reference A and an output split C|D, scrambling shows up as
-I3 = I(A:CD) - I(A:C) - I(A:D) approaching its maximum, read off the
marginals rho_{AC} and rho_{AD}.  The same marginals carry the
temporal-steering witness: :func:`steering.temporal_assemblage` reads
each region's assemblage off rho_{r1 R} by the Born rule, so a scan point
forms each marginal once for both witnesses.  The dense state
(:attr:`ChoiState.state`) and the PDM's own Born rule
(:func:`assemblage_from_pdm`) are the independent routes to the same
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from .qla import (ComplexMatrix, DensityMatrix, QubitRegister, kron,
                  mutual_information, partial_trace, partial_transpose)
from .models import haar_random_unitary, pauli_basis_labels, pauli_matrix


def system_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"q{i}" for i in range(1, n + 1))


def reference_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"r{i}" for i in range(1, n + 1))


@dataclass
class PartitionSpec:
    """Reference / output split used by the scrambling witnesses.

    ``region_a`` names reference qubits, ``region_c`` and ``region_d``
    split the channel output.  ``leading`` builds the standard split where
    C is the first ``n_c`` system qubits and A is the reference of q1.
    """

    region_a: Tuple[str, ...]
    region_c: Tuple[str, ...]
    region_d: Tuple[str, ...]

    def __post_init__(self):
        self.region_a = tuple(self.region_a)
        self.region_c = tuple(self.region_c)
        self.region_d = tuple(self.region_d)
        regions = self.region_a + self.region_c + self.region_d
        if len(set(regions)) != len(regions):
            raise ValueError("partition regions overlap")
        if not (self.region_a and self.region_c and self.region_d):
            raise ValueError("all three regions must be non-empty")

    @classmethod
    def leading(cls, n: int, n_c: int) -> "PartitionSpec":
        if not 1 <= n_c < n:
            raise ValueError(f"n_c must lie in 1..{n - 1}")
        sys = system_labels(n)
        return cls(("r1",), sys[:n_c], sys[n_c:])

    @property
    def n_c(self) -> int:
        return len(self.region_c)


class ChoiState:
    """Choi state of a unitary channel, formed from U on demand.

    Every input qubit keeps its own reference: the register is
    ``r1..rN q1..qN``.  A scan only ever needs small marginals, so the
    state is held as U and each :meth:`marginal` is formed from it
    directly; the dense matrix :attr:`state` is built only when asked for.
    """

    def __init__(self, unitary: ComplexMatrix):
        self.unitary = unitary
        self.n_qubits = unitary.shape[0].bit_length() - 1
        self._marginals: Dict[Tuple[str, ...], DensityMatrix] = {}

    @property
    def register(self) -> QubitRegister:
        n = self.n_qubits
        return QubitRegister(reference_labels(n) + system_labels(n))

    @cached_property
    def state(self) -> DensityMatrix:
        """The dense Choi state, built without the marginal route.

        The pure state of psi = (1 x U)|Omega>, |Omega> ~ sum_i |i>_R |i>_S.
        """
        return DensityMatrix.pure(self.unitary.T.ravel(), self.register)

    def marginal(self, keep: Sequence[str]) -> DensityMatrix:
        """Reduced state on ``keep``, in that order, formed from U alone.

        The Choi vector is psi[r, q] = U[q, r] / 2^(N/2), so U viewed as a
        tensor with axes q1..qN r1..rN is psi up to that scale.  With the
        kept axes moved to the front and the rest flattened, it is a
        matrix M, and the marginal is M M^dag / 2^N.  Each marginal is
        formed once per state and then cached.
        """
        keep = tuple(keep)
        cached = self._marginals.get(keep)
        if cached is not None:
            return cached
        labels = self.register.labels
        outside = [l for l in keep if l not in labels]
        if outside:
            raise ValueError(f"labels {outside} not in Choi register {labels}")
        reg = QubitRegister(keep)
        n = self.n_qubits
        axes = QubitRegister(system_labels(n) + reference_labels(n)).axes(keep)
        rest = tuple(i for i in range(2 * n) if i not in axes)
        m = self.unitary.reshape((2,) * (2 * n)).transpose(axes + rest)
        m = m.reshape(reg.dim, -1)
        cached = DensityMatrix(m @ m.conj().T / self.unitary.shape[0], reg)
        self._marginals[keep] = cached
        return cached


def build_choi(unitary: ComplexMatrix) -> ChoiState:
    """Choi state of the unitary channel on register ``r1..rN q1..qN``.

    Each input qubit is purified by its own reference.  The state is not
    formed here: it keeps U, and its marginals cost one product each.
    """
    unitary = np.asarray(unitary, dtype=complex)
    dim = unitary.shape[0]
    n = dim.bit_length() - 1
    if unitary.shape != (dim, dim) or 2 ** n != dim:
        raise ValueError(f"unitary shape {unitary.shape} is not a qubit operator")
    return ChoiState(unitary)


@dataclass
class TmiResult:
    """Tripartite-information witness and its mutual-information parts."""

    minus_i3: float
    i_ac: float
    i_ad: float
    i_acd: float


def tripartite_mutual_information(choi: ChoiState,
                                  partition: PartitionSpec) -> TmiResult:
    """-I3 = I(A:CD) - I(A:C) - I(A:D) on a Choi state, in bits.

    For a unitary channel with single-qubit reference A this is bounded by
    [0, 2] and reaches 2 exactly when no information about the referenced
    input is recoverable from C or D alone.

    When C and D together cover every output qubit and A holds only
    references, I(A:CD) = 2|A| bits for any unitary: S(A) = |A| and
    S(CD) = N, and since the Choi state is pure, S(ACD) is the
    entropy N - |A| of the other, maximally mixed, references.  That term
    is then set, not computed.
    """
    a, c, d = partition.region_a, partition.region_c, partition.region_d
    i_ac = mutual_information(choi.marginal(a + c), a, c)
    i_ad = mutual_information(choi.marginal(a + d), a, d)
    if (set(c + d) == set(system_labels(choi.n_qubits))
            and set(a) <= set(reference_labels(choi.n_qubits))):
        i_acd = 2.0 * len(a)
    else:
        i_acd = mutual_information(choi.marginal(a + c + d), a, c + d)
    return TmiResult(i_acd - i_ac - i_ad, i_ac, i_ad, i_acd)


@dataclass
class PseudoDensityMatrix:
    """Two-time pseudo-density matrix of a unitary channel.

    Lives on ``in`` tensor ``out`` copies of the system register
    (labels ``i1..iN o1..oN``).  Hermitian with unit trace but generally
    not positive.
    """

    matrix: ComplexMatrix
    n_qubits: int

    @property
    def register(self) -> QubitRegister:
        n = self.n_qubits
        return QubitRegister(tuple(f"i{k}" for k in range(1, n + 1))
                             + tuple(f"o{k}" for k in range(1, n + 1)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


_PDM_MAX_QUBITS = 5  # 4^N-dimensional object; keep it a small-system tool


def build_pdm(unitary: ComplexMatrix, method: str = "choi") -> PseudoDensityMatrix:
    """Pseudo-density matrix of a unitary channel, two independent routes.

    method="choi"
        Partial transpose of the Choi state over the reference (input)
        block (cheap, one transpose).
    method="correlator"
        Direct Pauli-correlator assembly
        R = 4^-N sum_ij C_ij sigma_i x sigma_j with
        C_ij = 2^-N tr[sigma_j U sigma_i U^dag].

    Both produce the same matrix; tests use one to validate the other.
    """
    unitary = np.asarray(unitary, dtype=complex)
    dim = unitary.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError("unitary dimension is not a power of two")
    if n > _PDM_MAX_QUBITS:
        raise ValueError(f"PDM limited to {_PDM_MAX_QUBITS} qubits (got {n})")
    if method == "choi":
        pdm = partial_transpose(build_choi(unitary).state, reference_labels(n))
        return PseudoDensityMatrix(pdm.matrix, n)
    if method == "correlator":
        paulis = np.stack([pauli_matrix(lab) for lab in pauli_basis_labels(n)])
        rotated = np.einsum("ab,ibc,dc->iad", unitary, paulis, unitary.conj())
        corr = np.tensordot(rotated, paulis, axes=([1, 2], [2, 1])).real / dim
        tensor = np.einsum("ij,iab,jcd->acbd", corr, paulis, paulis)
        mat = tensor.reshape(dim * dim, dim * dim) / (4.0 ** n)
        return PseudoDensityMatrix(mat, n)
    raise ValueError(f"unknown method {method!r}")


def assemblage_from_pdm(pdm: PseudoDensityMatrix,
                        effects: np.ndarray) -> np.ndarray:
    """Temporal assemblage from the PDM Born rule.

    sigma_{a|x} = tr_in[(E_{a|x} x 1_out) R] with the effect on input
    qubit i1.  ``effects`` is a ``(settings, outcomes, 2, 2)`` array;
    returns the ``(settings, outcomes, 2^N, 2^N)`` members on the full
    output register.
    """
    effects = np.asarray(effects, dtype=complex)
    out_labels = tuple(f"o{k}" for k in range(1, pdm.n_qubits + 1))
    rest = np.eye(2 ** (2 * pdm.n_qubits - 1))
    members = [partial_trace(DensityMatrix(kron(e, rest) @ pdm.matrix,
                                           pdm.register), out_labels).matrix
               for e in effects.reshape(-1, 2, 2)]
    dim = 2 ** pdm.n_qubits
    return np.reshape(members, effects.shape[:2] + (dim, dim))


@dataclass
class HaarBaseline:
    """Monte-Carlo scrambled-channel baseline for the tripartite witness."""

    mean: float
    stderr: float
    samples: int
    values: np.ndarray = field(repr=False)


def haar_scrambled_baseline(n_qubits: int, partition: PartitionSpec,
                            samples: int = 200, seed: int = 0) -> HaarBaseline:
    """Average -I3 over Haar-random unitaries on the full system.

    Estimates what a completely scrambled channel of the same size and
    partition would show, with the standard error of the mean.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = np.empty(samples)
    for k in range(samples):
        u = haar_random_unitary(1 << n_qubits, rng)
        choi = build_choi(u)
        vals[k] = tripartite_mutual_information(choi, partition).minus_i3
    return HaarBaseline(float(vals.mean()),
                        float(vals.std(ddof=1) / np.sqrt(samples)),
                        samples, vals)
