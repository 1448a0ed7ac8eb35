"""Process environment shared by the benchmark entry point and its set-up probe.

Import this module before numpy: OpenBLAS sizes its thread pool when it is
loaded, and the benchmark measures one thread of one process.
"""

from __future__ import annotations

import os
import sys

THREAD_POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "src")


class MissingSource(RuntimeError):
    """The checkout holds no mecfl sources to benchmark."""


def pin_thread_pools() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_thread_pools must run before numpy is imported")
    for name in THREAD_POOL_VARS:
        os.environ[name] = "1"


def use_checkout_source() -> None:
    """Import mecfl from this checkout's ``src/``, never from anywhere else."""
    package_dir = os.path.join(SOURCE_DIR, "mecfl")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise MissingSource(f"no mecfl package under {SOURCE_DIR}")
    sys.path.insert(0, SOURCE_DIR)
    import mecfl

    if os.path.dirname(os.path.abspath(mecfl.__file__)) != package_dir:
        raise MissingSource(f"mecfl was imported from {mecfl.__file__}, not {package_dir}")
