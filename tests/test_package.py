"""The lazy package namespace, and which package modules each command loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p3conv

SRC = str(Path(p3conv.__file__).resolve().parents[1])

# Public names whose objects carry no __module__, with their defining module.
CONSTANTS = {
    "DEFAULT_HULL_CAP": "oracle",
    "DEFAULT_PROPERTY_CAP": "oracle",
    "DEFAULT_TIME_CAP": "oracle",
    "DEFAULT_SEED": "generators",
    "FORBIDDEN_PATTERNS": "hereditary",
}


def test_every_public_name_is_the_object_of_its_defining_module():
    for name in p3conv.__all__:
        obj = getattr(p3conv, name)
        if name in CONSTANTS:
            module, attr = f"p3conv.{CONSTANTS[name]}", name
        else:
            module, attr = obj.__module__, obj.__name__
        assert module.startswith("p3conv."), name
        assert getattr(importlib.import_module(module), attr) is obj, name


def test_names_bound_under_another_name():
    from p3conv import caterpillar, unit_interval

    assert p3conv.caterpillar_percolation_time is caterpillar.percolation_time
    assert p3conv.unit_interval_percolation_time is unit_interval.percolation_time
    assert not hasattr(p3conv, "percolation_time")


def test_dir_and_star_import_list_every_name():
    assert set(p3conv.__all__) <= set(dir(p3conv))
    namespace = {}
    exec("from p3conv import *", namespace)
    assert {name: namespace[name] for name in p3conv.__all__} == {
        name: getattr(p3conv, name) for name in p3conv.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        p3conv.no_such_name


# Runs the CLI with the given arguments in a fresh interpreter, or only
# imports it when there are none, and prints the package modules (and json
# and dataclasses) that this loaded.
LOADED = """
import contextlib, io, sys
before = set(sys.modules)
import p3conv.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            p3conv.cli.main(sys.argv[1:])
        except SystemExit:
            pass
new = set(sys.modules) - before
print(" ".join(sorted(m for m in new if m in ("json", "dataclasses") or m.split(".")[0] == "p3conv")))
"""


def loaded(*argv, code=LOADED) -> set:
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(done.stdout.split())


# No command loads dataclasses: every value record is a NamedTuple.  analyze
# loads unit_interval only for a document that reaches it, one with an order
# line or that is no caterpillar.
ANALYZE = {
    "p3conv", "p3conv.cli", "p3conv.graphio", "p3conv.graph", "p3conv.caterpillar",
    "p3conv.unit_interval",
}
# hereditary imports the oracle, graphio and generators; generators imports
# only graph.
PROPCHECK = {
    "p3conv", "p3conv.cli", "p3conv.hereditary", "p3conv.oracle", "p3conv.graph",
    "p3conv.graphio", "p3conv.generators",
}
EVERY = PROPCHECK | {"p3conv.caterpillar", "p3conv.crossval", "p3conv.unit_interval"}


def test_bare_imports_load_no_command_module():
    code = 'import sys; import p3conv; print(" ".join(m for m in sys.modules if m.startswith("p3conv")))'
    assert loaded(code=code) == {"p3conv"}
    code = 'import sys; import p3conv; p3conv.oracle; print(" ".join(m for m in sys.modules if m.startswith("p3conv")))'
    assert loaded(code=code) == {"p3conv", "p3conv.oracle", "p3conv.graph"}
    assert loaded() == {"p3conv", "p3conv.cli"}
    assert loaded("--help") == {"p3conv", "p3conv.cli"}


@pytest.mark.parametrize(
    "text, extra, expected",
    [
        ("4\n0 1\n1 2\n2 3\n", (), ANALYZE - {"p3conv.unit_interval"}),
        ("4\n0 1\n0 2\n1 2\n2 3\norder: 0 1 2 3\n", (), ANALYZE),
        ("4\n0 1\n0 2\n1 2\n2 3\norder: 0 1 2 3\n", ("--format", "object"), ANALYZE | {"json"}),
        ("4\n0 1\n1 2\n2 3\n3 0\n", ("--oracle",), EVERY - {"p3conv.crossval"}),
    ],
    ids=["caterpillar", "ordered-uig", "object-format", "oracle"],
)
def test_analyze_loads_only_what_it_runs(tmp_path, text, extra, expected):
    f = tmp_path / "doc.txt"
    f.write_text(text)
    assert loaded("analyze", str(f), *extra) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("generate", "uig-random", "--count", "1"),
            {"p3conv", "p3conv.cli", "p3conv.generators", "p3conv.graph", "p3conv.graphio"},
        ),
        (("propcheck", "--max-n", "3"), PROPCHECK),
        (("crossval", "caterpillar", "--max-n", "3"), EVERY),
    ],
    ids=["generate", "propcheck", "crossval"],
)
def test_other_commands_load_only_what_they_run(argv, expected):
    assert loaded(*argv) == expected
