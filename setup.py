"""Build script.

The package is pure Python plus one optional Cython extension holding the
hot kernels of the semidefinite solver (svec/smat and the scaled congruence
representations feeding the Schur complement).  The extension is built from
the ``.pyx`` through Cython; if Cython or a C compiler is missing the build
falls back to the pure NumPy implementation of the same kernels; nothing
outside ``qscramble.sdp._kernels`` changes.
"""

import os

from setuptools import setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if possible, otherwise continue without it."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, broken toolchain, ...
            print(f"warning: skipping optional extension build ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping optional extension {ext.name} ({exc})")


def extensions():
    if os.environ.get("QSCRAMBLE_NO_EXT"):
        return []
    try:
        import numpy
        from Cython.Build import cythonize
    except ImportError:
        return []
    from setuptools import Extension

    ext = Extension(
        "qscramble.sdp._kernels_c",
        ["src/qscramble/sdp/_kernels_c.pyx"],
        include_dirs=[numpy.get_include()],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    )
    return cythonize([ext], language_level=3)


setup(
    ext_modules=extensions(),
    cmdclass={"build_ext": OptionalBuildExt},
)
