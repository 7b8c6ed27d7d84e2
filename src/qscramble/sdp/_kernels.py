"""Pure NumPy implementations of the solver's hot kernels.

The interior-point solver, and it alone, works in a real vectorization
of Hermitian matrices ("svec"): for an n x n Hermitian X the coordinates
are the n diagonal entries, then sqrt(2) * Re X[i,j] for i < j, then
sqrt(2) * Im X[i,j] for i < j.  This scaling makes svec an isometry,
so operator compositions become plain real matrix products.

``congruence_rep(A)`` returns the real (s^2, r^2) matrix of the map
H -> A H A^dag between svec coordinates.  It exploits that every svec
basis element has at most two nonzero entries: the full map is a sparse
two-sided combination of the Kronecker factor A (x) conj(A), assembled
with index gathers instead of dense basis contractions.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_SQRT2 = np.sqrt(2.0)


@cache
def svec_indices(n: int):
    """Cached (diag, upper-row, upper-col) index arrays for size n,
    read-only because every caller shares them."""
    out = (np.arange(n),) + np.triu_indices(n, 1)
    for arr in out:
        arr.flags.writeable = False
    return out


def svec(x: np.ndarray) -> np.ndarray:
    """Isometric real vectorization of a Hermitian matrix, or of every
    matrix of a stack (leading axes are batch axes)."""
    n = x.shape[-1]
    diag, iu, ju = svec_indices(n)
    out = np.empty(x.shape[:-2] + (n * n,))
    out[..., :n] = x[..., diag, diag].real
    off = x[..., iu, ju]
    m = iu.size
    out[..., n:n + m] = _SQRT2 * off.real
    out[..., n + m:] = _SQRT2 * off.imag
    return out


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`, batched over the leading axes of ``v``."""
    diag, iu, ju = svec_indices(n)
    m = iu.size
    out = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
    out[..., diag, diag] = v[..., :n]
    off = (v[..., n:n + m] + 1j * v[..., n + m:]) / _SQRT2
    out[..., iu, ju] = off
    out[..., ju, iu] = off.conj()
    return out


def congruence_rep(a: np.ndarray) -> np.ndarray:
    """Real matrix of H -> A H A^dag in svec coordinates.

    ``a`` has shape (s, r); the result has shape (s^2, r^2).  Cost is
    O(s^2 r^2) with small constants.
    """
    a = np.asarray(a, dtype=complex)
    s, r = a.shape
    # K[(u,j),(v,i)] = A[u,v] * conj(A[j,i]) is (A x conj(A)) in row-major
    # vec layout; svec basis columns combine at most two of its rows/cols.
    k = np.einsum("uv,ji->ujvi", a, a.conj()).reshape(s * s, r * r)

    sd, siu, sju = svec_indices(s)
    rd, riu, rju = svec_indices(r)
    # Rows: gather svec combinations on the target side.
    rows_d = k[sd * s + sd]                                  # (s, r*r)
    k_uv = k[siu * s + sju]
    k_vu = k[sju * s + siu]
    rows_re = (k_uv + k_vu) / _SQRT2
    rows_im = (1j * (k_vu - k_uv)) / _SQRT2                  # conj(i)*K_uv + conj(-i)*K_vu
    m1 = np.concatenate([rows_d, rows_re, rows_im], axis=0)  # (s*s, r*r)
    # Columns: same combinations on the source side.
    cols_d = m1[:, rd * r + rd]
    m_ij = m1[:, riu * r + rju]
    m_ji = m1[:, rju * r + riu]
    cols_re = (m_ij + m_ji) / _SQRT2
    cols_im = 1j * (m_ij - m_ji) / _SQRT2
    out = np.concatenate([cols_d, cols_re, cols_im], axis=1)
    return np.ascontiguousarray(out.real)
