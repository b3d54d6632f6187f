"""Every exported name resolves, has one home module, and the package re-exports those lists."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import escapepoint

MODULES = ["escapepoint"] + [
    f"escapepoint.{info.name}"
    for info in pkgutil.iter_modules(escapepoint.__path__)
    if info.name != "__main__"
]


def test_every_module_is_listed():
    assert {"escapepoint.numerics", "escapepoint.enumeration", "escapepoint.weight_map",
            "escapepoint.fixpoint", "escapepoint.escape", "escapepoint.cli",
            "escapepoint.selftest"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []


HOMES = [
    importlib.import_module(f"escapepoint.{name}")
    for name in ("numerics", "enumeration", "weight_map", "fixpoint", "escape")
]


def test_package_reexports_exactly_the_module_lists():
    assert escapepoint.__all__ == ["__version__"] + [n for home in HOMES for n in home.__all__]


def test_every_name_has_one_home():
    homes = {}
    for home in HOMES:
        for name in home.__all__:
            homes.setdefault(name, []).append(home.__name__)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def test_top_level_names_are_their_home_objects():
    for home in HOMES:
        assert [n for n in home.__all__ if getattr(escapepoint, n) is not getattr(home, n)] == []


@pytest.mark.parametrize("home, name", [
    ("numerics", "weight_sum"), ("enumeration", "affine_cut"), ("enumeration", "IntervalEnumeration"),
    ("escape", "Verdict"), ("fixpoint", "SUBSET_MAX_PREFIX"),
])
def test_a_retired_name_stays_retired(home, name):
    module = importlib.import_module(f"escapepoint.{home}")
    assert name not in escapepoint.__all__
    assert not hasattr(module, name) and not hasattr(escapepoint, name)


def test_step_structure_gives_a_plateau_by_fraction_alone():
    steps = escapepoint.weight_map.StepStructure
    assert hasattr(steps, "fraction") and not hasattr(steps, "pair")


@pytest.mark.parametrize("name, parameter", [("intervalize", "spec"), ("tail_from_jsonable", "obj")])
def test_takes_only_its_input(name, parameter):
    assert list(inspect.signature(getattr(escapepoint, name)).parameters) == [parameter]


def test_the_settle_loop_takes_no_order():
    assert list(inspect.signature(escapepoint.fixpoint._settle).parameters) == ["start", "step", "bound"]


def test_modules_outside_the_package_list_name_nothing_it_names():
    for name in ("cli", "selftest"):
        module = importlib.import_module(f"escapepoint.{name}")
        assert [n for n in module.__all__ if n in escapepoint.__all__] == []


def test_import_does_not_load_the_command_line():
    probe = ("import sys, escapepoint; "
             "print(sorted({'argparse', 'escapepoint.cli', 'escapepoint.selftest'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(escapepoint.__file__))},
    ).stdout
    assert out.strip() == "[]"
