"""Every exported name resolves, in the package and in each submodule."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fracoc

# importing fracoc.__main__ would run the command line
MODULES = ["fracoc"] + [f"fracoc.{info.name}" for info in pkgutil.iter_modules(fracoc.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_an_attribute(name):
    # a deletion that leaves its string behind in __all__ fails here
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} lacks"
