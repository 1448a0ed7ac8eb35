"""Importing mecfl loads numpy, and no scipy module at all.

``scipy.special`` alone costs about 0.3 s and 17 MB per process, and
``scipy.optimize`` pulls in ``linalg``, ``sparse`` and ``spatial`` on top.
scipy is a test dependency only. The checks run in a fresh interpreter, so
modules other tests imported do not count.
"""

import json
import os
import subprocess
import sys

import mecfl

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mecfl.__file__)))


def _probe(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_mecfl_leaves_heavy_scipy_modules_unloaded():
    # the package imports no submodule itself, so import every one of them
    loaded = _probe(
        "import importlib, json, pkgutil, sys, mecfl\n"
        "modules = [m.name for m in pkgutil.walk_packages(mecfl.__path__, 'mecfl.')]\n"
        "for name in modules: importlib.import_module(name)\n"
        "print(json.dumps([modules, sorted(n for n in sys.modules if n.startswith('scipy'))]))")
    modules, scipy_modules = loaded
    assert {"mecfl.cli", "mecfl.io", "mecfl.oracle", "mecfl.verify"} <= set(modules)
    assert scipy_modules == []


def test_bare_import_mecfl_binds_no_public_name():
    # every name is imported from its module: the package re-exports nothing
    names = _probe("import json, mecfl; "
                   "print(json.dumps(sorted(n for n in vars(mecfl) if not n.startswith('_'))))")
    assert names == []
