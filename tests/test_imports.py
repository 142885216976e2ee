"""Each CLI command loads only the package modules it calls (``rootsystem``,
the full root list, only for ``rootsys show``), numpy only for the matrix
model past ``slmodel iwasawa``, and ``dataclasses``, ``inspect`` and
``fractions`` for no structure command."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import liefoliate
from liefoliate import cli, verify

SRC = Path(liefoliate.__file__).resolve().parent.parent

# Standard-library modules whose import and class-building cost a structure
# command does without: the records are named tuples, and roots imports
# fractions only where a Fraction is built.
COLD_START_HEAVY = ("dataclasses", "inspect", "fractions")

# Runs the CLI as ``python -m liefoliate.cli`` does, then reports its exit
# status, the package's modules that were loaded, whether numpy was, and
# which of COLD_START_HEAVY were.  A fresh interpreter is needed: other tests
# load every module into this one.
PROBE = f"""\
import runpy, sys
sys.argv = ["liefoliate", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("liefoliate.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code or 0
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("liefoliate."))
heavy = [m for m in {COLD_START_HEAVY!r} if m in sys.modules]
print(code, ",".join(loaded), "numpy" in sys.modules, ",".join(heavy), file=sys.stderr)
"""


def probe(*argv: str) -> tuple[int, set[str], bool, set[str]]:
    """The CLI's exit status, the ``liefoliate.*`` modules, whether numpy
    was loaded, and the modules of COLD_START_HEAVY that were.  The CLI
    module itself runs as ``__main__`` and is not among them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules, numpy, heavy = proc.stderr.splitlines()[-1].split(" ")
    return (int(code), set(filter(None, modules.split(","))), numpy == "True",
            set(filter(None, heavy.split(","))))


# ``data`` is the package that holds catalog.json, read through importlib.resources.
CATALOG = {"errors", "roots", "catalog", "data"}


@pytest.mark.parametrize("argv, expected", (
    (("--version",), {"errors"}),
    (("rootsys", "show", "--family", "E6", "--rank", "6"), {"errors", "roots", "rootsystem"}),
    (("catalog", "list"), CATALOG),
    (("parabolic", "--space", "SL5", "--phi", "1,3"), CATALOG | {"parabolic"}),
    (("horospherical", "--space", "su(4,2)", "--phi", "1"), CATALOG | {"parabolic"}),
    (("foliations", "enumerate", "--space", "so(5,2)"), CATALOG | {"foliations"}),
    # the factorization and the matrix reader are plain Python
    (("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[1,0],[1,1]]"), {"errors", "iwasawa"}),
    (("slmodel", "killing", "--x", "[[1,0],[0,-1]]", "--y", "[[0,1],[1,0]]"),
     {"errors", "iwasawa", "slmodel"}),
    # the diagram is read off the simple roots: no root list
    (("rootsys", "dynkin", "--family", "E6", "--rank", "6"), {"errors", "roots"}),
))
def test_each_command_loads_only_the_modules_it_calls(argv, expected):
    code, modules, numpy, heavy = probe(*argv)
    assert code == 0
    assert modules == expected
    assert numpy == ("slmodel" in expected)
    if "slmodel" not in expected:  # its records are dataclasses, and numpy dominates
        assert heavy == set()


def test_iwasawa_error_path_loads_neither_slmodel_nor_numpy():
    code, modules, numpy, heavy = probe("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[NaN,0],[0,1]]")
    assert (code, modules, numpy, heavy) == (1, {"errors", "iwasawa"}, False, set())


def test_importing_the_package_loads_no_module_and_lists_every_name():
    code = ("import sys, liefoliate\n"
            "print(sorted(m for m in sys.modules if m.startswith('liefoliate.')))\n"
            "print(set(liefoliate.__all__) <= set(dir(liefoliate)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_every_public_name_resolves():
    for name in liefoliate.__all__:
        assert getattr(liefoliate, name) is not None
    namespace = {}
    exec("from liefoliate import *", namespace)
    assert set(liefoliate.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        liefoliate.no_such_name


def test_cli_suite_choices_are_the_verify_suites():
    assert cli._SUITES == tuple(sorted(verify.SUITES))
