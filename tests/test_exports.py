"""Every exported name resolves.

A name left in an ``__all__`` after its definition is deleted breaks
``from poistomo import *`` and misleads readers of the API; this catches it.
"""

import importlib
import pkgutil

import pytest

import poistomo

MODULES = ["poistomo"] + [f"poistomo.{m.name}"
                          for m in pkgutil.iter_modules(poistomo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())   # the CLI module exports none
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported)


def test_field_kernels_are_exported():
    from poistomo import fields
    for attr in ("grad_arrays", "div_arrays", "tv_arrays"):
        assert attr in fields.__all__
