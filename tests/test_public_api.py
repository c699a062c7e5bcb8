"""Every module under ``repro`` imports, and every name in its ``__all__``
resolves, so ``from repro.x import *`` never hits a stale entry."""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_walk_finds_the_subpackages():
    for package in ("analysis", "core", "discovery", "ga", "iostack", "rl", "tuners"):
        assert f"repro.{package}" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
