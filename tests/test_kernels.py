"""scipy's kernels, loaded bare, are scipy's public kernels.

``poistomo._kernels`` loads the extension modules behind ``erf``,
``gammaincc`` and the CSR products without ``scipy.special`` or
``scipy.sparse``, and without running scipy's package ``__init__``.  Each
must give the public kernel's values bit for bit, and a scipy on which the
bare load fails must fall back to the public imports.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.special
from scipy.sparse import _sparsetools

from poistomo import _kernels, build_radon_operator, parse_config

SRC = Path(__file__).resolve().parents[1] / "src"

# the Reparam argument grid: 0, both infinities, NaN and finite values of
# both signs across erf's saturation
ERF_GRID = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan],
                           np.linspace(-7.0, 7.0, 2001),
                           np.geomspace(1e-300, 1e3, 200)])


def _chi2_args():
    """(a, x) pairs as chi2_sf passes them at dof = n_rays of each preset."""
    dofs = [build_radon_operator((c := parse_config(preset=p)).grid,
                                 c.n_angles, c.n_det).n_rays
            for p in ("desk", "paper")]
    a, x = [], []
    for dof in dofs:
        xs = np.concatenate([[0.0, np.inf, np.nan],
                             dof * np.linspace(0.0, 3.0, 301)])
        a.append(np.full(xs.size, 0.5 * dof))
        x.append(0.5 * xs)
    return np.concatenate(a), np.concatenate(x)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _random_csr(rng, n_row, n_col, density):
    mask = rng.random((n_row, n_col)) < density
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))]).astype(
        np.int32)
    indices = np.nonzero(mask)[1].astype(np.int32)
    return indptr, indices, rng.standard_normal(indices.size)


def _products(tools, seed=0):
    """csr_matvec and two-column csc_matvecs outputs on random arrays."""
    rng = np.random.default_rng(seed)
    out = []
    for n_row, n_col, density in ((1, 1, 1.0), (17, 5, 0.3), (40, 64, 0.1),
                                  (64, 40, 0.5), (9, 9, 0.0)):
        indptr, indices, data = _random_csr(rng, n_row, n_col, density)
        x = rng.standard_normal(n_col)
        y = rng.standard_normal(n_row)          # the kernel adds into y
        tools.csr_matvec(n_row, n_col, indptr, indices, data, x, y)
        w = rng.standard_normal((n_row, 2))
        back = rng.standard_normal((n_col, 2))
        tools.csc_matvecs(n_col, n_row, 2, indptr, indices, data,
                          w.ravel(), back.ravel())
        out += [y, back]
    return out


def _kernel_outputs(kernels):
    """erf in place (as Reparam.apply calls it), gammaincc and products."""
    u = ERF_GRID.copy()
    kernels.erf(u, out=u)
    return [u, kernels.gammaincc(*_chi2_args())] + _products(
        kernels.sparsetools)


def test_bare_kernels_are_scipys_bit_for_bit():
    public = SimpleNamespace(erf=scipy.special.erf,
                             gammaincc=scipy.special.gammaincc,
                             sparsetools=_sparsetools)
    for ours, theirs in zip(_kernel_outputs(_kernels),
                            _kernel_outputs(public)):
        assert _bits(ours) == _bits(theirs)


def _child(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports poistomo
    from ``src/``; argv[1] is this directory, for ``import test_kernels``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
        check=True, capture_output=True, text=True).stdout


# ``PathFinder.find_spec`` wrapped by ``patch(name, path, target, find)``,
# which may return a spec or defer to ``find``; the child's finder for
# every path-based import, ``importlib.util.find_spec`` included
PATCH_FINDER = (
    "import importlib.machinery as m, sys\n"
    "find = m.PathFinder.find_spec\n"
    "m.PathFinder.find_spec = lambda name, path=None, target=None: "
    "patch(name, path, target, find)\n")


def test_the_bare_load_runs_none_of_scipys_package_code():
    code = (
        "import sys\n"
        "from poistomo import _kernels\n"
        "print(' '.join(m for m in sys.modules\n"
        "               if m == 'scipy' or m.startswith('scipy.')))\n"
        "assert _kernels._special.__name__ == '_special_ufuncs'\n"
        "assert _kernels.erf is _kernels._special.erf\n"
        "assert _kernels.gammaincc is _kernels._special.gammaincc\n"
        "assert _kernels.sparsetools.__name__ == '_sparsetools'\n")
    assert _child(code).split() == []


def test_every_scipy_location_is_searched():
    # a scipy spec whose first location (this directory) holds neither
    # extension still loads both bare, from its second location
    code = (
        "def patch(name, path, target, find):\n"
        "    spec = find(name, path, target)\n"
        "    if name == 'scipy':\n"
        "        spec.submodule_search_locations.insert(0, sys.argv[1])\n"
        "    return spec\n"
        + PATCH_FINDER +
        "from poistomo import _kernels\n"
        "assert 'scipy' not in sys.modules\n"
        "assert len(_kernels._SCIPY) == 2\n"
        "assert _kernels._special.__name__ == '_special_ufuncs'\n"
        "assert _kernels.sparsetools.__name__ == '_sparsetools'\n")
    _child(code)


def test_a_missing_scipy_fails_as_the_public_import_does():
    # a finder that finds no scipy: find_spec gives None, no bare load is
    # tried, and the public import raises its own error
    code = (
        "def patch(name, path, target, find):\n"
        "    if name == 'scipy' or name.startswith('scipy.'):\n"
        "        return None\n"
        "    return find(name, path, target)\n"
        + PATCH_FINDER +
        "try:\n"
        "    from poistomo import _kernels\n"
        "except BaseException as e:\n"
        "    print(type(e).__name__, e.name, e, sep='|')\n")
    assert _child(code).strip() == (
        "ModuleNotFoundError|scipy|No module named 'scipy'")


def test_a_failed_bare_load_falls_back_to_the_public_kernels():
    # a finder that finds neither extension by its bare name makes the bare
    # load fail; the public imports ask for the qualified names
    code = (
        "def patch(name, path, target, find):\n"
        "    if name in ('_special_ufuncs', '_sparsetools'):\n"
        "        return None\n"
        "    return find(name, path, target)\n"
        + PATCH_FINDER +
        "from poistomo import _kernels\n"
        "import scipy.special\n"
        "from scipy.sparse import _sparsetools\n"
        "assert _kernels.erf is scipy.special.erf\n"
        "assert _kernels.gammaincc is scipy.special.gammaincc\n"
        "assert _kernels.sparsetools is _sparsetools\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_kernels as t\n"
        "sys.stdout.write(b''.join(map(t._bits, t._kernel_outputs(_kernels)))"
        ".hex())\n")
    assert bytes.fromhex(_child(code)) == b"".join(
        map(_bits, _kernel_outputs(_kernels)))
