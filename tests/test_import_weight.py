"""Importing the package and its CLI stays light.

A bare ``import poistomo`` peaks at 34.4 MB resident with numpy 2.4 and
scipy 1.17, and imports no ``scipy`` module.  ``scipy.special`` and
``scipy.sparse`` each import scipy's array-API layer, 26 MB together, and
``import scipy`` alone adds about 1.3 MB, so poistomo finds scipy's directory
without importing it and loads the kernels it needs from their extension
modules alone (``poistomo._kernels``).  Over the bare import,
``scipy.optimize`` adds about 21 MB, ``scipy.stats`` 44 MB,
``scipy.sparse.linalg`` 8 MB and ``scipy.fft`` 1 MB to every run's peak
memory.  Code that needs one imports it inside the code path that uses it.
"""

import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("scipy", "scipy.optimize", "scipy.stats", "scipy.sparse.linalg",
         "scipy.fft", "scipy.special", "scipy.sparse")

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_and_cli_import_no_heavy_scipy_module():
    code = ("import sys, poistomo, poistomo.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
