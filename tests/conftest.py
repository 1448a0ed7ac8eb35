"""Session hooks: the report header names the OpenBLAS kernel numpy runs on.

Some SGD bits depend on that kernel (README, "Install and test"), so every
test log says which one ran. ``OPENBLAS_CORETYPE=Haswell`` picks another.
"""

import ctypes
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The core type of numpy's bundled OpenBLAS, or "unknown" without that library or symbol."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (IndexError, OSError, AttributeError, UnicodeDecodeError):
        return "unknown"


def pytest_report_header(config):
    return f"openblas core: {openblas_core()}"
