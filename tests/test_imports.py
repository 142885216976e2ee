"""Each CLI command loads only the package modules it calls and the handler
module of its own command (``rootsystem``, the full root list, only for
``rootsys show``; ``diagrams`` only for the commands that print a diagram
or group by its automorphisms; ``readback`` for none, only for a record's
``from_dict``), numpy never, not even for ``verify``, whose
criteria run with numpy unimportable, ``dataclasses``, ``inspect`` and
``fractions`` for no structure command, none of the machinery of
``importlib.resources``, and no ``argparse`` for ``--version`` or a
well-formed call.  A command compiles at most its share of the package's
sources, importing the catalog compiles one pattern, the package also runs
from a zip archive, and ``clear_caches()`` loads nothing and empties every
cache loaded."""

import ast
import functools
import os
import shlex
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import liefoliate
from liefoliate import cli, verify

SRC = Path(liefoliate.__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

# Standard-library modules whose import and class-building cost a structure
# command does without: the records are named tuples, and roots imports
# fractions only where a Fraction is built.
COLD_START_HEAVY = ("dataclasses", "inspect", "fractions")

# What ``importlib.resources`` loads.  catalog reads its data file through its
# module loader instead.  A ``.pth`` file of site-packages may load these
# before any package code runs, so they are checked without ``site``.
RESOURCE_MACHINERY = ("importlib.resources", "pathlib", "zipfile", "tempfile", "typing")

# What argparse loads: its first gettext lookup imports locale.  The CLI
# answers --version and reads a well-formed call without it, and builds its
# parser only for help, usage errors and the argv its matcher declines.
ARGPARSE = ("argparse", "gettext", "locale")

# Runs the CLI as ``python -m liefoliate.cli`` does, then reports its exit
# status, the package's modules that were loaded, whether numpy was, and
# which of COLD_START_HEAVY, RESOURCE_MACHINERY and ARGPARSE were.  A fresh
# interpreter is needed: other tests load every module into this one.
PROBE = f"""\
import runpy, sys
sys.argv = ["liefoliate", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("liefoliate.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code or 0
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("liefoliate."))
watched = [m for m in {COLD_START_HEAVY + RESOURCE_MACHINERY + ARGPARSE!r} if m in sys.modules]
print(code, ",".join(loaded), "numpy" in sys.modules, ",".join(watched), file=sys.stderr)
"""


def probe(*argv: str, site: bool = True) -> tuple[int, set[str], bool, set[str]]:
    """The CLI's exit status, the ``liefoliate.*`` modules, whether numpy
    was loaded, and the modules of COLD_START_HEAVY, RESOURCE_MACHINERY and
    ARGPARSE that were.  The CLI module itself runs as ``__main__`` and is
    not among them.  ``site=False`` runs the interpreter with ``-S``."""
    flags = () if site else ("-S",)
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules, numpy, watched = proc.stderr.splitlines()[-1].split(" ")
    return (int(code), set(filter(None, modules.split(","))), numpy == "True",
            set(filter(None, watched.split(","))))


def handler(command: str) -> set[str]:
    """The handler package and the module of one command."""
    return {"commands", f"commands.{command}"}


CATALOG = {"errors", "roots", "catalog"}


# Each call, and the package modules it loads.
CALLS = (
    (("--version",), {"errors"}),
    (("rootsys", "show", "--family", "E6", "--rank", "6"), {"errors", "roots", "rootsystem"} | handler("rootsys")),
    (("catalog", "list"), CATALOG | handler("catalog")),
    (("parabolic", "--space", "SL5", "--phi", "1,3"), CATALOG | {"parabolic"} | handler("parabolic")),
    (("horospherical", "--space", "su(4,2)", "--phi", "1"), CATALOG | {"parabolic"} | handler("horospherical")),
    # the automorphisms group the subsets Phi
    (("foliations", "enumerate", "--space", "so(5,2)"), CATALOG | {"foliations", "diagrams"} | handler("foliations")),
    # the factorization and the matrix reader are plain Python
    (("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[1,0],[1,1]]"), {"errors", "iwasawa"} | handler("slmodel")),
    (("slmodel", "killing", "--x", "[[1,0],[0,-1]]", "--y", "[[0,1],[1,0]]"),
     {"errors", "iwasawa", "slmodel"} | handler("slmodel")),
    # the diagram is read off the simple roots: no root list
    (("rootsys", "dynkin", "--family", "E6", "--rank", "6"), {"errors", "roots"} | handler("rootsys")),
    (("slmodel", "check-lie-triple", "--basis", "[[[1,0],[0,-1]]]"), {"errors", "iwasawa", "slmodel"} | handler("slmodel")),
    (("slmodel", "halfplane", "--orbit", "N"), {"errors", "iwasawa", "slmodel"} | handler("slmodel")),
    # the Graphviz form is written by diagrams
    (("rootsys", "dynkin", "--family", "E6", "--rank", "6", "--format", "dot"),
     {"errors", "roots", "diagrams"} | handler("rootsys")),
    (("parabolic", "--space", "SL5", "--phi", "1", "--format", "json"), CATALOG | {"parabolic"} | handler("parabolic")),
)


@pytest.mark.parametrize("argv, expected", CALLS)
def test_each_command_loads_only_the_modules_it_calls(argv, expected):
    code, modules, numpy, watched = probe(*argv)
    assert code == 0
    assert modules == expected
    assert not numpy
    if "slmodel" not in expected:  # its records are dataclasses, and it computes with Fractions
        assert watched & set(COLD_START_HEAVY) == set()
    assert watched & set(ARGPARSE) == set()  # --version and a well-formed call are read without argparse


@pytest.mark.parametrize("argv", [argv for argv, _ in CALLS], ids=" ".join)
def test_without_site_a_well_formed_call_loads_no_argparse(argv):
    code, _, _, watched = probe(*argv, site=False)
    assert code == 0
    assert watched & set(ARGPARSE) == set()


@pytest.mark.parametrize("argv, code", (
    (("--help",), 0),
    (("--version", "parabolic"), 0),  # --version with anything else is argparse's
    (("bogus",), 2),
    (("parabolic",), 2),  # no --space
    (("rootsys", "show", "--family", "Z", "--rank", "3"), 2),  # Z is no family
    (("parabolic", "--space", "SL5", "--version"), 2),
))
def test_help_and_usage_errors_go_through_argparse(argv, code):
    got, modules, _, watched = probe(*argv)
    assert got == code
    assert "argparse" in watched
    # the builder loads on every argparse path, and the declarations of a
    # command exactly when argv names one
    named = {f"commands.{arg}" for arg in argv if arg in cli.COMMANDS}
    assert {m for m in modules if m.startswith("commands.")} == {"commands.argparser", *named}


def test_verify_and_the_readme_slmodel_lines_run_with_numpy_unimportable():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    lines = [shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("liefoliate slmodel ")]
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # import numpy raises ImportError\n"
            "from liefoliate.cli import main\n"
            f"codes = [main(argv) for argv in [['verify', '--suite', 'all'], *{lines!r}]]\n"
            "print(codes, sys.modules['numpy'], 'liefoliate.readback' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=300)
    assert len(lines) == 4 and proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{[0] * 5} None False"  # nor does verify read a record back
    assert proc.stdout.count("PASS") == 11


def test_readback_is_loaded_by_from_dict_alone():
    # Each record is made and written out, then read back, in a fresh
    # interpreter; readback is unloaded after each read.  The commands above
    # load exact module sets without it, and so does verify (checked above).
    # The root system is read first: its read-back loads neither catalog nor parabolic.
    code = ("import sys, liefoliate\n"
            "loaded = []\n"
            "def read_back(record):\n"
            "    data = record.to_dict()\n"
            "    before = 'liefoliate.readback' in sys.modules\n"
            "    same = type(record).from_dict(data) == record\n"
            "    loaded.append((type(record).__name__, before, sys.modules.pop('liefoliate.readback', None) is not None, same))\n"
            "    vars(liefoliate).pop('readback', None)\n"
            "read_back(liefoliate.build_root_system('E6', 6))\n"
            "print([m for m in ('catalog', 'parabolic') if f'liefoliate.{m}' in sys.modules])\n"
            "from liefoliate import catalog_lookup, enumerate_foliations, horospherical, parabolic_data, phi_subset\n"
            "space = catalog_lookup('SL5')\n"
            "phi = phi_subset(space, (1, 2, 4))\n"
            "for record in (space, parabolic_data(space, phi), horospherical(space, phi), enumerate_foliations(space)[5]):\n"
            "    read_back(record)\n"
            "print(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n" + str([(name, False, True, True) for name in (
        "RootSystem", "SpaceDescriptor", "ParabolicData", "HorosphericalData", "FoliationClass")]) + "\n"


def test_iwasawa_error_path_loads_neither_slmodel_nor_numpy():
    code, modules, numpy, watched = probe("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[NaN,0],[0,1]]")
    assert (code, modules, numpy) == (1, {"errors", "iwasawa"} | handler("slmodel"), False)
    assert watched & set(COLD_START_HEAVY) == set()


@pytest.mark.parametrize("command, argv", (
    ("parabolic", ("parabolic", "--space", "su(8,6)", "--phi", "1,3", "--format", "json")),
    ("horospherical", ("horospherical", "--space", "SL5", "--phi", "1,2")),
    ("foliations", ("foliations", "enumerate", "--space", "so(5,2)")),
    ("catalog", ("catalog", "list")),
    ("rootsys", ("rootsys", "dynkin", "--family", "E6", "--rank", "6")),
    ("slmodel", ("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[1,0],[1,1]]")),
))
def test_without_site_a_command_loads_its_handler_and_no_resource_machinery(command, argv):
    code, modules, numpy, watched = probe(*argv, site=False)
    assert (code, numpy) == (0, False)
    assert watched == set()
    assert {m for m in modules if m.startswith("commands")} == handler(command)


def compiled_nodes(modules: set[str]) -> int:
    """AST nodes of the sources of these package modules, of the package and of ``cli``."""
    package = SRC / "liefoliate"
    total = 0
    for name in {"", "cli", *modules}:
        path = package.joinpath(*name.split(".")) if name else package
        source = path.with_suffix(".py") if path.with_suffix(".py").is_file() else path / "__init__.py"
        total += sum(1 for _ in ast.walk(ast.parse(source.read_text(encoding="utf-8"))))
    return total


# compile() costs about the same per AST node in every module, and a fresh
# process without cached bytecode compiles every module it loads.  Each
# ceiling is about 3% above the command's count before the CLI read argv
# without argparse, and none above what the command compiled before the
# diagram I/O, the symmetry search and all but its own command's arguments
# left its path.  Every command but --version also compiles ARGV_READER
# nodes more: the matcher of ``commands`` less what the declarations of
# arguments save on that path, for the about 4.8 ms that importing argparse
# and building its parsers took.  The builder of argparse's parsers
# (``commands.argparser.build_parser``) is on neither that path nor
# --version's, which ``cli.main`` answers itself: only help, usage errors
# and the argv the matcher declines compile it.  Taking it out of ``cli``,
# which every process compiles, took 61 nodes off every count and ceiling.
# Checking each record argument before reading it, in place of a read and
# a check in its except clause, took 11-25 nodes off each structure
# command; reporting any failed write of stdout put 5 back into ``cli``.
# One sum over Phi's components for parabolic_data, horospherical and
# boundary_components, in place of a component class and two loops, took 96
# off parabolic and horospherical.  Freezing the heap when ``cli.main`` is
# the process's entry, so that the interpreter's shutdown collections skip
# it (about 8% of a cold call), put 10 nodes into ``cli`` and on each ceiling.
ARGV_READER = 410


@pytest.mark.parametrize("argv, ceiling", (
    pytest.param(("--version",), 554, id="--version"),
    pytest.param(("parabolic", "--space", "su(8,6)", "--phi", "1,3", "--format", "json"), 9_199, id="parabolic"),
    pytest.param(("horospherical", "--space", "su(4,2)", "--phi", "1"), 9_249, id="horospherical"),
    pytest.param(("foliations", "enumerate", "--space", "so(5,2)"), 10_550, id="foliations-enumerate"),
    pytest.param(("catalog", "list"), 7_376, id="catalog-list"),
    pytest.param(("rootsys", "dynkin", "--family", "D", "--rank", "5", "--format", "dot"), 6_366,
                 id="rootsys-dynkin"),
    pytest.param(("rootsys", "show", "--family", "E6", "--rank", "6"), 6_587, id="rootsys-show"),
    pytest.param(("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[1,0],[1,1]]"), 2_434, id="slmodel-iwasawa"),
))
def test_a_command_compiles_at_most_its_share_of_the_package(argv, ceiling):
    code, modules, _, _ = probe(*argv)
    assert code == 0
    assert compiled_nodes(modules) <= ceiling + (ARGV_READER if "commands" in modules else 0)


def test_importing_the_catalog_compiles_one_pattern():
    code = ("import json, re\n"
            "compiled = []\n"
            "compile_ = re._compile\n"
            "re._compile = lambda pattern, flags: compiled.append(pattern) or compile_(pattern, flags)\n"
            "import liefoliate.catalog\n"
            "print(compiled == [liefoliate.catalog._NAME.pattern])\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def _cli_stdout(pythonpath: str, cwd: Path, *argv: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "liefoliate.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", (
    ("catalog", "list", "--format", "json"),
    ("parabolic", "--space", "su(8,6)", "--phi", "1,3", "--format", "json"),
))
def test_the_package_runs_from_a_zip_archive(argv, tmp_path):
    archive = tmp_path / "liefoliate.zip"
    with zipfile.ZipFile(archive, "w") as zf:  # directory entries too, as ``zip -r`` writes them
        for path in sorted((SRC / "liefoliate").rglob("*")):
            if "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(SRC).as_posix())
    assert _cli_stdout(str(archive), tmp_path, *argv) == _cli_stdout(str(SRC), tmp_path, *argv)


def test_importing_the_package_loads_no_module_and_lists_every_name():
    code = ("import sys, liefoliate\n"
            "liefoliate.clear_caches()\n"
            "print(sorted(m for m in sys.modules if m.startswith('liefoliate.') or m == 'numpy'))\n"
            "print(set(liefoliate.__all__) <= set(dir(liefoliate)))")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["[]", "True"]


def _cache_sizes() -> dict[str, int]:
    """``currsize`` of each ``cache_info`` in the namespaces of the loaded ``liefoliate`` modules."""
    return {f"{name}.{key}": info().currsize for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "liefoliate" for key, value in vars(module).items()
            if callable(info := getattr(value, "cache_info", None))}


def test_clear_caches_empties_every_cache_of_the_loaded_modules(monkeypatch):
    from liefoliate import catalog_lookup, clear_caches, foliations
    from liefoliate.slmodel import killing_form

    probe_cache = functools.lru_cache(maxsize=None)(abs)  # a cache added later, registered nowhere
    monkeypatch.setattr(foliations, "_probe", probe_cache, raising=False)
    for argv in (("parabolic", "--space", "SL5", "--phi", "1,3"), ("foliations", "enumerate", "--space", "SL5"),
                 ("rootsys", "show", "--family", "A", "--rank", "3")):
        assert cli.main(list(argv)) == 0
    killing_form(((1, 0), (0, -1)), ((0, 1), (1, 0)))
    probe_cache(-1)
    sl5 = catalog_lookup("SL5")
    filled = {key for key, size in _cache_sizes().items() if size}
    assert filled >= {f"liefoliate.{key}" for key in (
        "catalog._instantiate", "catalog._lookup", "foliations._probe",
        "rootsystem._built_root_system", "slmodel._killing_terms")}
    clear_caches()
    assert set(_cache_sizes().values()) == {0}
    assert catalog_lookup("SL5") is not sl5  # the interned descriptor went, with all cached on it


def test_clear_caches_leaves_a_fresh_descriptor_with_fresh_components():
    from liefoliate import catalog_lookup, clear_caches, horospherical, phi_subset

    sl5 = catalog_lookup("SL5")
    horospherical(sl5, phi_subset(sl5, (1, 2, 4)))
    kept = sl5.components
    assert {(1, 2), (4,)} <= set(kept)
    clear_caches()
    fresh = catalog_lookup("SL5")
    assert fresh is not sl5 and "components" not in vars(fresh)
    horospherical(fresh, phi_subset(fresh, (1,)))
    assert fresh.components is not kept and list(fresh.components) == [(1,)]


def test_a_descriptor_keeps_its_components_in_a_plain_dict_without_loading_parabolic():
    # a fresh interpreter, since other tests load every module into this one
    script = ("import sys; from liefoliate import catalog_lookup; "
              "print(catalog_lookup('SL5').components, 'liefoliate.parabolic' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "{} False\n"), proc.stderr


def test_clear_caches_leaves_a_fresh_descriptor_without_orbits():
    from liefoliate import catalog_lookup, clear_caches, enumerate_foliations

    sl5 = catalog_lookup("SL5")
    records = enumerate_foliations(sl5)
    kept = sl5.orbits
    assert kept.records is not None
    clear_caches()
    fresh = catalog_lookup("SL5")
    assert fresh is not sl5 and "orbits" not in vars(fresh)
    assert enumerate_foliations(fresh) == records and fresh.orbits is not kept and sl5.orbits is kept


def test_every_public_name_resolves():
    for name in liefoliate.__all__:
        assert getattr(liefoliate, name) is not None
    namespace = {}
    exec("from liefoliate import *", namespace)
    assert set(liefoliate.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        liefoliate.no_such_name


def test_cli_suite_choices_are_the_verify_suites():
    from liefoliate.commands.verify import _SUITES

    assert _SUITES == tuple(sorted(verify.SUITES))
