"""The package namespace: `import divgap` loads nothing, and names resolve on first use."""

import importlib

import pytest

from cli_run import fresh_interpreter

import divgap

SUBMODULES = ("cli", "constants", "divisors", "errors", "intervals", "josephus", "report",
              "sequences")


def test_bare_import_loads_no_submodule_and_resolves_one_on_use():
    before, after, same = fresh_interpreter(
        "import json, sys, divgap\n"
        "before = sorted(m for m in sys.modules if m.startswith('divgap'))\n"
        "mod = divgap.divisors\n"
        "after = sorted(m for m in sys.modules if m.startswith('divgap'))\n"
        "print(json.dumps([before, after, mod is sys.modules['divgap.divisors']]))"
    )
    assert before == ["divgap"]
    assert after == ["divgap", "divgap.divisors", "divgap.errors", "divgap.report"]
    assert same


def test_every_exported_name_is_the_object_its_module_defines():
    assert divgap.__all__ == sorted(set(divgap.__all__))
    for name in divgap.__all__:
        obj = getattr(divgap, name)
        # functions and classes name their module; the caps and defaults are
        # defined in errors.py
        home = obj.__module__ if callable(obj) else "divgap.errors"
        assert home.removeprefix("divgap.") in SUBMODULES, name
        assert getattr(importlib.import_module(home), name) is obj, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from divgap import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == divgap.__all__
    assert all(namespace[name] is getattr(divgap, name) for name in divgap.__all__)


def test_star_import_in_a_fresh_interpreter_loads_what_all_names():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "from divgap import *\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('divgap.'))))"
    )
    assert loaded == [f"divgap.{m}" for m in SUBMODULES if m != "cli"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        divgap.nosuch  # noqa: B018
    with pytest.raises(ImportError):
        exec("from divgap import nosuch", {})
    assert not hasattr(divgap, "__main__")


def test_dir_lists_every_export_and_submodule():
    listed = dir(divgap)
    assert set(divgap.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)
