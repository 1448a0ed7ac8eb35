"""Importing mecfl loads numpy, and no scipy module at all.

``scipy.special`` alone costs about 0.3 s and 17 MB per process, and
``scipy.optimize`` pulls in ``linalg``, ``sparse`` and ``spatial`` on top.
scipy is a test dependency only. The check runs in a fresh interpreter, so
modules other tests imported do not count.
"""

import json
import os
import subprocess
import sys

import mecfl


def test_import_mecfl_leaves_heavy_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mecfl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import json, sys, mecfl; "
             "print(json.dumps(sorted(name for name in sys.modules if name.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
