"""scipy's compiled kernels, loaded without their package layers.

Importing ``scipy.special`` or ``scipy.sparse`` also imports scipy's
array-API layer (about 330 modules, 26 MB resident) that poistomo never
calls.  The extension modules holding ``erf``, ``gammaincc`` and the CSR
products load on their own and give the same kernels; a scipy laid out
otherwise falls back to the public imports.  scipy's directory comes from
``find_spec``, which runs none of scipy's package code.
"""

import importlib.machinery
import importlib.util
import os

_spec = importlib.util.find_spec("scipy")
_SCIPY = (_spec and _spec.submodule_search_locations) or ()


def _bare(package: str, name: str, names: tuple):
    """Extension ``scipy.<package>.<name>`` loaded alone, or None if it
    is not found, fails to load or lacks one of ``names``."""
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, package) for d in _SCIPY])
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    return module if all(hasattr(module, n) for n in names) else None


_special = _bare("special", "_special_ufuncs", ("erf", "gammaincc"))
if _special is None:
    from scipy import special as _special
erf, gammaincc = _special.erf, _special.gammaincc

sparsetools = _bare("sparse", "_sparsetools", ("csr_matvec", "csc_matvecs"))
if sparsetools is None:
    from scipy.sparse import _sparsetools as sparsetools
