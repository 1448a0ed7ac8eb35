"""Importing mecfl loads numpy and ``scipy.special``, not the rest of scipy.

``scipy.optimize`` alone pulls in ``linalg``, ``sparse`` and ``spatial``,
about a quarter of a second and 23 MB per process. The check runs in a
fresh interpreter, so modules other tests imported do not count.
"""

import json
import os
import subprocess
import sys

import mecfl

HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.spatial")


def test_import_mecfl_leaves_heavy_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mecfl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import json, sys, mecfl; "
             "print(json.dumps(sorted(name for name in sys.modules if name.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert "scipy.special" in loaded      # expit is imported with the package
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))
