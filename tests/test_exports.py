"""Every exported name resolves, and no export list names one twice."""

import importlib
import pkgutil

import pytest

import escapepoint

MODULES = ["escapepoint"] + [
    f"escapepoint.{info.name}"
    for info in pkgutil.iter_modules(escapepoint.__path__)
    if info.name != "__main__"
]


def test_every_module_is_listed():
    assert {"escapepoint.numerics", "escapepoint.enumeration", "escapepoint.weight_map",
            "escapepoint.fixpoint", "escapepoint.escape", "escapepoint.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []

