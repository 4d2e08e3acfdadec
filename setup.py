"""Build shim for the optional compiled kernel.

The package is pure Python; `apcover._kernels._ckernels` is a Cython
speedup for the uncovered scan. If Cython or a C compiler is
missing the extension is skipped and the pure backend is used instead.

    python setup.py build_ext --inplace    # compile the kernel in-tree
    APCOVER_PURE=1 ...                     # force the pure backend at runtime
"""

import os

from setuptools import setup

ext_modules = []
if os.environ.get("APCOVER_SKIP_EXT") != "1":
    try:
        from setuptools import Extension

        from Cython.Build import cythonize

        ext_modules = cythonize(
            [
                Extension(
                    "apcover._kernels._ckernels",
                    ["src/apcover/_kernels/_ckernels.pyx"],
                    extra_compile_args=["-O3"],
                    optional=True,
                )
            ],
            compiler_directives={"language_level": "3"},
        )
    except ImportError:
        pass

setup(ext_modules=ext_modules)
