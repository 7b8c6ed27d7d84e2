"""Kernel backend selection.

Imports the compiled Cython kernels when available, falling back to the
NumPy implementations otherwise.  Set ``QSCRAMBLE_PURE_PY=1`` to force
the fallback (the benchmark suite uses this to compare backends).
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("QSCRAMBLE_PURE_PY"):
    _impl = _kernels_py
    BACKEND = "numpy"
else:
    try:
        from . import _kernels_c as _impl  # type: ignore[attr-defined]
        BACKEND = "cython"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "numpy"

svec_indices = _kernels_py.svec_indices
svec = _impl.svec
smat = _impl.smat
congruence_rep = _impl.congruence_rep
