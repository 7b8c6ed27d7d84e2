"""Environment record attached to every benchmark result.

Results whose BLAS thread counts differ are not comparable: on a 2-core
machine the OpenBLAS thread count alone moves scan times by tens of
percent.  The benchmark records the counts and never sets them.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform

#: (pool, wheel package, library file prefix, thread-count symbol)
_OPENBLAS_POOLS = [
    ("numpy", "numpy", "libscipy_openblas64_",
     "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy", "libscipy_openblas-",
     "scipy_openblas_get_num_threads"),
]


def _openblas_threads(package: str, prefix: str, symbol: str):
    """Thread count of a wheel's bundled OpenBLAS, or None if not found."""
    try:
        mod = __import__(package)
    except ImportError:
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                        package + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, prefix + "*"))):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _git_commit(root: str):
    """Commit of a checkout read from its .git directory, if it has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: str) -> str:
    """SHA-256 over the package's Python sources, to tell code versions
    apart where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "qscramble", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def record(root: str) -> dict:
    """Environment of this process; call after qscramble is imported."""
    import numpy
    import scipy
    import qscramble.sdp

    threads = {pool: _openblas_threads(pkg, prefix, symbol)
               for pool, pkg, prefix, symbol in _OPENBLAS_POOLS}
    return {
        "openblas_threads": threads,
        "env_threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "backend": getattr(qscramble.sdp, "BACKEND", None),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
    }
