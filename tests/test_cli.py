"""Command-line interface behavior: formats, exit codes, determinism."""

import contextlib
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import liefoliate

from liefoliate import cli, clear_caches
from liefoliate.catalog import catalog_lookup
from liefoliate.cli import main
from liefoliate.commands import argparser, ascii_float, ascii_int, emit_json, match
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import FoliationClass
from liefoliate.parabolic import HorosphericalData, ParabolicData
from liefoliate.roots import DynkinDiagram, RootSystem


SRC = Path(liefoliate.__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rootsys_show_table(capsys):
    code, out, _ = run(capsys, "rootsys", "show", "--family", "A", "--rank", "2")
    assert code == 0
    assert "|Sigma| = 6" in out
    assert "alpha_1 = e1-e2" in out


def test_rootsys_show_json_round_trip(capsys):
    code, out, _ = run(capsys, "rootsys", "show", "--family", "BC", "--rank", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    from liefoliate.roots import build_root_system

    assert RootSystem.from_dict(data) == build_root_system("BC", 2)


def test_rootsys_dynkin_dot_f4(capsys):
    code, out, _ = run(capsys, "rootsys", "dynkin", "--family", "F4", "--rank", "4",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph F44 {")
    assert out.count("dir=forward") == 1
    assert 'a2 -> a3 [label="2", dir=forward];' in out
    assert 'a1 -> a2 [label="1", dir=none];' in out
    assert 'a3 -> a4 [label="1", dir=none];' in out


def test_rootsys_dynkin_json_round_trip(capsys):
    code, out, _ = run(capsys, "rootsys", "dynkin", "--family", "BC", "--rank", "3",
                       "--format", "json")
    assert code == 0
    dd = DynkinDiagram.from_dict(json.loads(out))
    from liefoliate.roots import build_root_system, dynkin_diagram

    assert dd == dynkin_diagram(build_root_system("BC", 3))


def test_rootsys_show_rejects_dot(capsys):
    code, _, err = run(capsys, "rootsys", "show", "--family", "A", "--rank", "2",
                       "--format", "dot")
    assert code == 2
    assert "usage error" in err


def test_rootsys_invalid_rank_is_domain_error(capsys):
    code, _, err = run(capsys, "rootsys", "show", "--family", "D", "--rank", "2")
    assert code == 1
    assert "valid range" in err


@pytest.mark.parametrize("action, rank", [("show", 101), ("dynkin", 1001)])
def test_rootsys_rank_past_its_ceiling_is_a_domain_error(capsys, action, rank):
    code, out, err = run(capsys, "rootsys", action, "--family", "A", "--rank", str(rank))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "too large" in err


def test_rootsys_help_states_both_ceilings(capsys):
    from liefoliate.commands.rootsys import SHOW_MAX_RANK
    from liefoliate.roots import MAX_RANK

    with pytest.raises(SystemExit):
        main(["rootsys", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"ranks up to {SHOW_MAX_RANK};" in text and f"ranks up to {MAX_RANK}." in text


def test_rootsys_dynkin_at_the_ceiling_builds_no_root(capsys):
    from liefoliate.roots import build_root_system

    clear_caches()
    code, out, _ = run(capsys, "rootsys", "dynkin", "--family", "D", "--rank", "1000", "--format", "json")
    assert code == 0 and build_root_system.cache_info().misses == 0
    assert len(json.loads(out)["edges"]) == 999


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "sl(m,R)" in out and "f4(-20)" in out
    code, out, _ = run(capsys, "catalog", "list", "--format", "json")
    data = json.loads(out)
    assert len(data) == 33


def test_parabolic_json_round_trip(capsys):
    clear_caches()  # the command runs cold, as in a fresh process; from_dict warm
    code, out, _ = run(capsys, "parabolic", "--space", "SL5", "--phi", "1,3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim_q_phi"] == 16
    parsed = ParabolicData.from_dict(data)
    from liefoliate.parabolic import parabolic_data, phi_subset

    sl5 = catalog_lookup("SL5")
    assert parsed == parabolic_data(sl5, phi_subset(sl5, [1, 3]))


def test_the_parabolic_table_builds_no_root(capsys, monkeypatch):
    from liefoliate import parabolic
    from liefoliate.roots import Root, span_roots

    walks, made = [], []  # the components walked, and the roots made otherwise

    def walked(family, rank, dd, component):
        walks.append(component)
        return span_roots(family, rank, dd, component)

    def checked(cls, scaled):
        made.append(scaled)
        return tuple.__new__(cls, (scaled,))

    def negated(root):
        made.append(root)
        return tuple.__new__(Root, (tuple(-c for c in root.scaled),))

    monkeypatch.setattr(parabolic, "span_roots", walked)
    monkeypatch.setattr(Root, "__new__", staticmethod(checked))
    monkeypatch.setattr(Root, "__neg__", negated)
    clear_caches()  # as in a fresh process
    argv = ("parabolic", "--space", "SL8", "--phi", "1,2,4,5,6")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "|Sigma_Phi| = 18, |Sigma_Phi+| = 9" in out.splitlines()
    assert walks == made == []
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(json.loads(out)["sigma_phi"]) == 18
    assert walks == [(1, 2), (4, 5, 6)] and len(made) == 9  # A_2 and A_3, and the negatives of their roots


def test_parabolic_unknown_space_exit_1(capsys):
    code, _, err = run(capsys, "parabolic", "--space", "nope", "--phi", "1")
    assert code == 1
    assert "error:" in err and "valid names" in err


@pytest.mark.parametrize("command, space", [
    ("parabolic", "SL1" + "0" * 5000),
    ("horospherical", f"so(3,{'9' * 4400})"),
    ("parabolic", "SL1" + "0" * 100),  # fits int(), but no list of that length
], ids=["SL 5001 digits", "so(3,q) 4400 digits", "SL 101 digits"])
def test_integer_too_large_in_space_name_is_a_domain_error(capsys, command, space):
    # int() past its 4300-digit limit raised a ValueError traceback
    code, out, err = run(capsys, command, "--space", space)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "too large" in err and err.count("\n") == 1


def test_parabolic_invalid_phi_exit_1(capsys):
    code, _, err = run(capsys, "parabolic", "--space", "SL5", "--phi", "9")
    assert code == 1
    code, _, err = run(capsys, "parabolic", "--space", "SL5", "--phi", "x,y")
    assert code == 1


# int() would read these as 1 and 3 (Arabic-Indic and fullwidth digits), as
# space names once read their Unicode digits.
@pytest.mark.parametrize("command", ["parabolic", "horospherical"])
@pytest.mark.parametrize("phi", ["\u0661,\u0663", "1,\uff13", "\u0661"])
def test_phi_takes_ascii_digits_only(capsys, command, phi):
    code, out, err = run(capsys, command, "--space", "SL5", "--phi", phi, "--format", "json")
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse Phi indices from {phi!r}\n"


@pytest.mark.parametrize("argv, space", [
    (("parabolic", "--space", "E_6^{-14}/Spin_10 U_1", "--phi", "1"), "e6(-14)"),
    (("horospherical", "--space", "SO^o_{1,3}/SO_3", "--phi", "1"), "so(3,1)"),
    *((("parabolic", "--space", name), None) for name in ("so(7,2)", "SOo(2,7)", "sp(3,3)", "su(2,4)")),
], ids=["E6", "SO_3", "so(7,2)", "SOo(2,7)", "sp(3,3)", "su(2,4)"])
def test_a_space_is_found_by_each_of_its_names(capsys, argv, space):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and space in (None, json.loads(out)["space"])


@pytest.mark.parametrize("argv, message", [
    (("SO^o_{1,3}/SO_1", "--phi", "1"), "'SO^o_{1,3}/SO_1' is not the display name of so(3,1), SO^o_{3,1}/SO_3"),
    (("so(2,2)",), "so(r,r): valid for r >= 3"),
    (("su(1,1)",), "su(p,q): valid for p = q >= 2 or p > q >= 1 (su(1,1) is carried by sl(2,R))"),
    (("sp(3,0)",), "sp(p,q): indices must be positive"),
], ids=["SO_1", "so(2,2)", "su(1,1)", "sp(3,0)"])
def test_a_refused_space_exits_1_with_its_message_alone(capsys, argv, message):
    assert run(capsys, "parabolic", "--space", *argv) == (1, "", f"error: {message}\n")


def test_a_closed_stdout_exits_1_without_a_traceback():
    # The JSON of SL12's foliations fills the pipe many times over, so the
    # CLI is still writing when the reader closes its end.
    argv = [sys.executable, "-m", "liefoliate.cli", "foliations", "enumerate", "--space", "SL12", "--format", "json"]
    with subprocess.Popen(argv, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")


def run_to(stdout: int, argv, unbuffered: bool) -> subprocess.CompletedProcess:
    """The CLI run on argv in a fresh process writing to the file descriptor stdout,
    with PYTHONUNBUFFERED set or unset."""
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "liefoliate.cli", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", (
    ("--version",),
    ("horospherical", "--space", "SL5", "--phi", "1", "--format", "json"),
    ("parabolic", "--space", "SL5", "--phi", "1,3"),
    ("foliations", "enumerate", "--space", "SL12", "--format", "json"),
    ("--help",),
    ("parabolic", "--help"),
    ("--version", "parabolic"),  # argparse's version action
), ids=("--version", "horospherical", "parabolic", "foliations", "--help", "parabolic--help", "--version-parabolic"))
def test_a_reader_gone_before_the_start_exits_1_without_a_traceback(argv, unbuffered):
    # A short answer, help too, waits in stdout's buffer unless PYTHONUNBUFFERED is
    # set; main flushes it, so its write fails there and not at the interpreter's exit.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_to(write, argv, unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full, whose every write fails")
@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", (
    ("--version",),
    ("horospherical", "--space", "SL5", "--phi", "1", "--format", "json"),
    ("--help",),
    ("parabolic", "--help"),
    ("--version", "parabolic"),
), ids=("--version", "horospherical", "--help", "parabolic--help", "--version-parabolic"))
def test_a_write_error_on_stdout_exits_1_with_one_error_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = run_to(full.fileno(), argv, unbuffered)
    assert proc.returncode == 1
    assert re.fullmatch(rb"error: [^\n]*No space left on device\n", proc.stderr), proc.stderr


# An answer, a domain error and a usage error, with their exit statuses.
OUTCOMES = pytest.mark.parametrize("argv, code", (
    (("parabolic", "--space", "SL5", "--phi", "1,3"), 0),
    (("parabolic", "--space", "nope", "--phi", "1"), 1),
    (("parabolic",), 2),  # no --space: argparse's SystemExit
), ids=("answer", "domain-error", "usage-error"))


@OUTCOMES
def test_the_process_entry_freezes_the_heap_once_the_call_is_done(argv, code):
    # main() without argv, as the console script and ``python -m`` call it
    script = ("import gc, sys\n"
              "from liefoliate import cli\n"
              f"sys.argv = ['liefoliate', *{argv!r}]\n"
              "before = gc.get_freeze_count()\n"
              "try:\n"
              "    code = cli.main()\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(code, before == 0, gc.get_freeze_count() > 0, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{code} True True"


@OUTCOMES
def test_a_call_with_argv_leaves_the_collector_as_it_found_it(capsys, argv, code):
    found = gc.get_freeze_count(), gc.isenabled()
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    assert (got, (gc.get_freeze_count(), gc.isenabled())) == (code, found)


@pytest.mark.parametrize("columns", ("17", "18", "80", "400"))
def test_version_is_argparses_line_never_wrapped(monkeypatch, capsys, columns):
    # argparse's version action wraps its line below 18 columns; main never does
    monkeypatch.setenv("COLUMNS", columns)
    line = f"liefoliate {liefoliate.__version__}\n"
    assert run(capsys, "--version") == (0, line, "")
    with pytest.raises(SystemExit) as exc:
        argparser.build_parser(cli.COMMANDS).parse_args(["--version"])
    assert (exc.value.code, capsys.readouterr().out == line) == (0, columns != "17")


def test_the_package_version_is_the_projects():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert liefoliate.__version__ == project["version"]


def test_horospherical_json(capsys):
    clear_caches()  # the command runs cold, as in a fresh process; from_dict warm
    code, out, _ = run(capsys, "horospherical", "--space", "SL5", "--phi", "1,2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["dim_Fs"], data["dim_euclidean"], data["dim_N"]) == (5, 2, 7)
    parsed = HorosphericalData.from_dict(data)
    assert parsed.dim_Fs == 5


def test_foliations_enumerate_json_count(capsys):
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL5",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 18
    parsed = [FoliationClass.from_dict(r) for r in records]
    assert all(not c.trivial for c in parsed)
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL5",
                       "--include-trivial", "--format", "json")
    assert len(json.loads(out)) == 19


def test_foliation_records_read_back_with_a_cold_orbit_table(capsys):
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL14", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3300
    clear_caches()  # from_dict builds its PhiOrbits afresh
    assert [FoliationClass.from_dict(d).to_dict() for d in records] == records


def test_a_json_enumeration_keeps_no_record(capsys):
    # the JSON is written record by record from iter_foliations; the table, which
    # heads its lines with the count, reads the kept tuple
    clear_caches()
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL8", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 123
    space = catalog_lookup("SL8")
    assert space.orbits.records is None and space.orbits.by_rep
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL8")
    assert out.startswith("123 foliation class(es)") and len(space.orbits.records) == 123


def test_foliations_codim_filter(capsys):
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL5",
                       "--codim", "1", "--format", "json")
    records = json.loads(out)
    assert sorted((tuple(r["phi"]), r["dim_v"]) for r in records) == [
        ((), 3), ((1,), 3), ((2,), 3),
    ]


def test_foliations_negative_codim_is_a_domain_error(capsys):
    # it printed "0 foliation class(es)" and exited 0
    code, out, err = run(capsys, "foliations", "enumerate", "--space", "SL5", "--codim", "-1")
    assert (code, out) == (1, "")
    assert err == "error: codim -1 is negative\n"
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL5", "--codim", "5")
    assert (code, out) == (0, "0 foliation class(es) on sl(5,R) (SL_5(R)/SO_5)\n")  # codim = r - dim V <= r


def test_foliations_table(capsys):
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "su(3,1)")
    assert code == 0
    assert "2 foliation class(es)" in out
    assert "CH^3" in out


def test_byte_identical_output_on_repeat(capsys):
    argv = ("foliations", "enumerate", "--space", "e6(6)", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ("rootsys", "show", "--family", "E7", "--rank", "7", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_slmodel_iwasawa(capsys):
    code, out, _ = run(capsys, "slmodel", "iwasawa", "--rank", "1",
                       "--matrix", "[[1,0],[1,1]]")
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-12
    assert data["n"][0][1] == pytest.approx(0.5)
    code, _, err = run(capsys, "slmodel", "iwasawa", "--rank", "1",
                       "--matrix", "[[2,0],[0,1]]")
    assert code == 1 and "determinant" in err
    code, _, err = run(capsys, "slmodel", "iwasawa", "--rank", "2",
                       "--matrix", "[[1,0],[1,1]]")
    assert code == 1 and "3x3" in err


@pytest.mark.parametrize("argv", (
    ("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[NaN,0],[0,1]]"),
    ("slmodel", "killing", "--x", "[[Infinity,0],[0,1]]", "--y", "[[1,0],[0,-1]]"),
    # finite input whose result overflows
    ("slmodel", "killing", "--x", "[[1e300,0],[0,-1e300]]", "--y", "[[1e300,0],[0,-1e300]]"),
    ("slmodel", "halfplane", "--orbit", "K", "--base-re", "nan"),
    # finite input whose orbit points overflow; csv printed "nan,inf" and exited 0
    *(("slmodel", "halfplane", "--orbit", "A", "--samples", "2", "--base-im", "1e308", "--format", f)
      for f in ("json", "csv")),
))
def test_slmodel_non_finite_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err or "upper half plane" in err


def test_slmodel_halfplane_refuses_samples_above_the_ceiling(capsys):
    from liefoliate.slmodel import MAX_ORBIT_SAMPLES

    code, out, err = run(capsys, "slmodel", "halfplane", "--orbit", "N", "--samples", str(MAX_ORBIT_SAMPLES + 1))
    assert (code, out) == (1, "")
    assert err == f"error: samples {MAX_ORBIT_SAMPLES + 1} is above the ceiling MAX_ORBIT_SAMPLES = {MAX_ORBIT_SAMPLES}\n"


# name -> (matrix JSON, what the error line says)
MALFORMED_MATRICES = {
    "string": ('[["1",0],[0,1]]', "numbers"),  # was read as the number 1
    "bool": ("[[true,0],[0,1]]", "numbers"),  # was read as the number 1
    "400 digits": (f"[[1{'0' * 399},0],[0,1]]", "finite"),  # crashed with an OverflowError traceback
    "ragged": ("[[1,0],[1]]", "square"),  # gave numpy's inhomogeneous-shape message
    "NaN": ("[[NaN,0],[0,1]]", "finite"),
    "Infinity": ("[[Infinity,0],[0,1]]", "finite"),
    "1e400": ("[[1e400,0],[0,1]]", "finite"),
    "no list": ('"[[1,0],[0,1]]"', "list of rows"),
    "empty": ("[]", "nonempty"),
    "deep nesting": ("[" * 100_000, "cannot parse"),  # raised a RecursionError traceback
}


@pytest.mark.parametrize("text, says", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
@pytest.mark.parametrize("command", [
    ("slmodel", "iwasawa", "--rank", "1", "--matrix"),
    ("slmodel", "killing", "--y", "[[1,0],[0,-1]]", "--x"),
    ("slmodel", "killing", "--x", "[[1,0],[0,-1]]", "--y"),
], ids=["iwasawa", "killing", "killing y"])
def test_slmodel_malformed_matrix_is_a_domain_error(capsys, command, text, says):
    code, out, err = run(capsys, *command, text)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and says in err and err.count("\n") == 1


@pytest.mark.parametrize("text, says", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
def test_slmodel_check_lie_triple_gives_a_malformed_basis_matrix_the_same_message(capsys, text, says):
    code, out, err = run(capsys, "slmodel", "check-lie-triple", "--basis", f"[[[0,1],[1,0]],{text}]")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and says in err and err.count("\n") == 1


def test_slmodel_check_lie_triple_reads_each_matrix_as_the_others_do(capsys):
    for basis in ("[]", "[[[0,1],[1,0]],[[0,0,1],[0,0,0],[1,0,0]]]", "[[[0,true],[true,0]]]"):
        code, out, err = run(capsys, "slmodel", "check-lie-triple", "--basis", basis)
        assert code == 1 and out == "" and err.startswith("error: ")


def test_slmodel_killing(capsys):
    code, out, _ = run(capsys, "slmodel", "killing",
                       "--x", "[[1,0],[0,-1]]", "--y", "[[1,0],[0,-1]]")
    assert code == 0
    data = json.loads(out)
    assert data == {"killing": 8.0, "closed_form": 8.0, "difference": 0.0}


def test_slmodel_killing_outside_sl_n_is_a_domain_error(capsys):
    code, out, err = run(capsys, "slmodel", "killing",
                         "--x", "[[1,2],[3,4]]", "--y", "[[1,0],[0,1]]")
    assert code == 1 and out == ""
    assert "trace" in err


def test_slmodel_check_lie_triple(capsys):
    basis = "[[[0,0.5,0],[0.5,0,0],[0,0,0]],[[0,0,0.5],[0,0,0],[0.5,0,0]]]"
    code, out, _ = run(capsys, "slmodel", "check-lie-triple", "--basis", basis)
    assert code == 0
    assert json.loads(out) == {"holds": True, "residual": 0.0}
    bad = ("[[[0,0.5,0],[0.5,0,0],[0,0,0]],[[0,0,0.5],[0,0,0],[0.5,0,0]],"
           "[[0,0,0],[0,0,0.5],[0,0.5,0]]]")
    code, out, _ = run(capsys, "slmodel", "check-lie-triple", "--basis", bad)
    assert json.loads(out) == {"holds": False, "residual": 1 / 6}


def test_slmodel_check_lie_triple_on_a_scaled_non_example(capsys):
    bad = json.dumps([[[0, 5e-6, 0], [5e-6, 0, 0], [0, 0, 0]],
                      [[0, 0, 5e-6], [0, 0, 0], [5e-6, 0, 0]],
                      [[0, 0, 0], [0, 0, 5e-6], [0, 5e-6, 0]]])
    code, out, _ = run(capsys, "slmodel", "check-lie-triple", "--basis", bad)
    assert code == 0
    assert '"holds": false' in out
    assert json.loads(out)["residual"] > 0.1


def test_slmodel_halfplane(capsys):
    code, out, _ = run(capsys, "slmodel", "halfplane", "--orbit", "N", "--samples", "5",
                       "--base-re", "0.5", "--base-im", "2.0")
    assert code == 0
    pts = json.loads(out)
    assert len(pts) == 5
    assert all(p["im"] == pytest.approx(2.0) for p in pts)
    code, out, _ = run(capsys, "slmodel", "halfplane", "--orbit", "A", "--samples", "3",
                       "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "re,im" and len(lines) == 4
    values = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert values[1] == (0.0, 1.0)  # t = 0 fixes the base point i


@pytest.mark.parametrize("value", [math.nan, math.inf, [1.0, -math.inf]])
def test_emit_json_refuses_a_value_that_is_not_finite(capsys, value):
    with pytest.raises(LieFoliateError, match="result is not finite"):
        emit_json({"value": value})
    assert capsys.readouterr().out == ""


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rootsys", "show", "--family", "Z", "--rank", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# int() would read these as 3, 1 and 12 (Arabic-Indic and fullwidth digits);
# each int option takes ASCII digits only, as --phi and space names do, and
# refuses the others as it refuses "x".
@pytest.mark.parametrize("argv", [
    ("rootsys", "dynkin", "--family", "A", "--rank", "\u0663"),
    ("rootsys", "show", "--family", "A", "--rank", "\uff13"),
    ("foliations", "enumerate", "--space", "SL5", "--codim", "\u0661"),
    ("slmodel", "iwasawa", "--matrix", "[[1,0],[1,1]]", "--rank", "\u0661"),
    ("slmodel", "halfplane", "--orbit", "K", "--samples", "\u0661\u0662"),
], ids=lambda argv: " ".join(argv[:2]))
def test_int_options_take_ascii_digits_only(capsys, argv):
    assert match(list(argv)) is None
    *head, flag, value = argv
    for given in (value, "x"):
        with pytest.raises(SystemExit) as exc:
            main([*head, flag, given])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: invalid int value: {given!r}\n")


# float() would read these as 2 and 2.5; each float option takes ASCII text
# only and refuses the others as it refuses "x".
@pytest.mark.parametrize("flag", ["--base-re", "--base-im"])
@pytest.mark.parametrize("value", ["\u0662", "\uff12", "\u0662.\u0665"])
def test_float_options_take_ascii_digits_only(capsys, flag, value):
    head = ["slmodel", "halfplane", "--orbit", "K", "--samples", "2"]
    assert match([*head, flag, value]) is None
    assert match([*head, flag, "2"]).__dict__[flag[2:].replace("-", "_")] == 2.0
    for given in (value, "x"):
        with pytest.raises(SystemExit) as exc:
            main([*head, flag, given])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: invalid float value: {given!r}\n")


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "catalog")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_exits_1_when_a_criterion_fails(capsys, monkeypatch):
    from liefoliate import verify

    criteria = list(verify._CRITERIA)
    criteria[6] = lambda: ("7 parabolic blocks", False, "made to fail")
    monkeypatch.setattr(verify, "_CRITERIA", tuple(criteria))
    code, out, err = run(capsys, "verify", "--suite", "parabolic")
    first, second = out.splitlines()
    assert code == 1
    assert first == "FAIL  7 parabolic blocks: made to fail" and second.startswith("PASS  8 horospherical")
    assert err.endswith("1 criterion/criteria failed\n")


def test_verify_writes_each_criterion_seconds_to_stderr(capsys):
    code, out, err = run(capsys, "verify", "--suite", "parabolic")
    assert code == 0
    names = [line.split(": ")[0].split("  ", 1)[1] for line in out.splitlines()]
    assert names == ["7 parabolic blocks", "8 horospherical"]
    timings = [line.split() for line in err.splitlines()]
    assert [" ".join(t[2:]) for t in timings] == names
    assert all(t[1] == "s" and float(t[0]) >= 0 for t in timings)
    assert " s " not in out


def _declared(command: str) -> tuple:
    """The command's ``ACTIONS`` (empty if it takes none) and its options per
    action (None for a command without actions)."""
    module = import_module(f"liefoliate.commands.{command}")
    actions = getattr(module, "ACTIONS", ())
    if isinstance(actions, dict):
        return tuple(actions), {action: options for action, (_, options) in actions.items()}
    return actions, {action: module.OPTIONS for action in actions or (None,)}


_DECLARED = {command: _declared(command) for command in cli.COMMANDS}
_ALL_FLAGS = sorted({flag for _, per_action in _DECLARED.values() for options in per_action.values()
                     for flag in options} | {"--bogus"})
# values outside the choices, not numbers, empty, starting with "-" (which
# argparse reads as an option or a negative number) and Unicode digits
# (which int() and float() take)
_ODD_VALUES = ("", "x", "1.5", "1e3", "-1", "-x", "-", " -1", " 7", "\u0661\u0662", "\uff13", "nan", "inf",
               "Z", "JSON", "--", "-h", "--space")
_SPECIAL = ("-h", "--help", "--version", "--", "-5")
_MUTATIONS = ("omit", "repeat", "abbreviate", "equals", "odd value", "unknown option", "drop", "special",
              "action", "option before action")


def _value(spec: dict):
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is ascii_int:
        return st.integers(-3, 40).map(str)
    if spec.get("type") is ascii_float:
        return st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    return st.text(max_size=6)


@st.composite
def _argv(draw) -> list[str]:
    """A well-formed call to a command, or an unknown one, then a few of
    _MUTATIONS applied to it."""
    command = draw(st.sampled_from((*cli.COMMANDS, "bogus", "Parabolic")))
    actions, per_action = _DECLARED.get(command, ((), {None: {"--space": {}}}))
    action = draw(st.sampled_from(actions)) if actions else None
    pairs = []
    for flag, spec in per_action[action].items():
        if spec.get("required") or draw(st.booleans()):
            pairs.append([flag] if "action" in spec else [flag, draw(_value(spec))])
    pairs = draw(st.permutations(pairs))
    head = [command, *([action] if action else [])]
    mutations = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3))
    for mutation in mutations:
        with_value = [pair for pair in pairs if len(pair) == 2]
        if mutation == "omit" and pairs:
            del pairs[draw(st.integers(0, len(pairs) - 1))]
        elif mutation == "repeat" and pairs:
            pairs.insert(draw(st.integers(0, len(pairs))), list(draw(st.sampled_from(pairs))))
        elif mutation == "abbreviate" and pairs:
            pair = draw(st.sampled_from(pairs))
            pair[0] = pair[0][:draw(st.integers(2, max(2, len(pair[0]) - 1)))]
        elif mutation == "equals" and with_value:
            pair = draw(st.sampled_from(with_value))
            pair[:] = [f"{pair[0]}={pair[1]}"]
        elif mutation == "odd value" and with_value:
            draw(st.sampled_from(with_value))[1] = draw(st.sampled_from(_ODD_VALUES))
        elif mutation == "unknown option":
            pairs.append([draw(st.sampled_from(_ALL_FLAGS)), draw(st.sampled_from(("1", "SL5", "json", "A")))])
        elif mutation == "action":
            head[1:] = [draw(st.sampled_from(("show", "list", "enumerate", "iwasawa", "halfplane", "bogus")))]
        elif mutation == "option before action" and pairs and len(head) == 2:
            head.insert(1, pairs.pop(0))
    argv = [*head[:1], *(token for item in head[1:] for token in ([item] if isinstance(item, str) else item)),
            *(token for pair in pairs for token in pair)]
    if "drop" in mutations and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    if "special" in mutations:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_SPECIAL)))
    return argv


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_what_the_matcher_reads_argparse_reads_alike(argv):
    # main asks the matcher only when argv starts with a command
    args = match(argv) if argv[0] in cli.COMMANDS else None
    event("read by the matcher" if args else "left to argparse")
    if args is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            parsed = argparser.build_parser(cli.COMMANDS, argv[0]).parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
    assert vars(args) == vars(parsed)


def test_the_matcher_reads_every_golden_call_and_readme_line():
    from test_golden import ARGPARSE_ONLY, COMMANDS
    from test_readme import CLI_LINES

    calls = [list(argv) for argv in COMMANDS if argv not in ARGPARSE_ONLY]
    calls += [shlex.split(line)[1:] for line in CLI_LINES]
    for argv in calls:
        assert match(argv) is not None, argv
    for argv in ARGPARSE_ONLY:
        assert match(list(argv)) is None, argv


_MATRICES = ("[[1,0],[1,1]]", "[[2,0],[0,0.5]]", "[[1,0],[0,-1]]", "[[0,1],[1,0]]", "[[1]]", "[[1,2],[3,4]]",
             "[[1e308,0],[0,1e-308]]", "[[NaN]]", "[[1,0],[0]]", "[]", "{}", "[[true]]", "[[1,0],[1,1]")
# Valid and malformed values for the options the structure commands share, and
# for ranks and matrices.
_CONTRACT_VALUES = {
    "--space": ("SL5", "sl(4,C)", "so(4,4)", "su(4,2)", "sp(3,R)", "e6(-14)", "g2(2)", "so(5,2)", "SL2", "SL12",
                "SL_5(R)/SO_5", "SL1", "sl(0,R)", "sl(5,X)", "e9(1)", "so(2,0)", "SL99999999999999999999",
                "sl(٥,R)", "", "SL 5"),
    "--phi": ("", "1", "2", "1,3", "1,4", "1,2", "3,1", "1,1", "0", "9", "1,,3", " 1, 3", "a", "١", "1,3,5",
              "-1", "2,4,6"),
    "--codim": ("0", "1", "2", "3", "4", "7", "50", "-1", "x", "1.0", "３"),
    "--format": ("json", "table", "dot", "csv", "jsonl", "JSON"),
    "--rank": ("1", "2", "3", "0", "23", "-1"),
    "--matrix": _MATRICES,
    "--x": _MATRICES,
    "--y": _MATRICES,
    "--basis": ("[[[0,1],[1,0]]]", "[[[1,0],[0,-1]]]", "[[[0,0.5,0],[0.5,0,0],[0,0,0]]]", "[[[0,1],[0,0]]]",
                "[]", "[[[1]]]", "[[[NaN]]]", "[[0,1],[1,0]]"),
}


@st.composite
def _structure_call(draw) -> list[str]:
    """A call of parabolic, horospherical or foliations enumerate on values from _CONTRACT_VALUES."""
    command = draw(st.sampled_from((["parabolic"], ["horospherical"], ["foliations", "enumerate"])))
    argv = [*command, "--space", draw(st.sampled_from(_CONTRACT_VALUES["--space"]))]
    for flag in ("--codim" if command[0] == "foliations" else "--phi", "--format"):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_CONTRACT_VALUES[flag]))]
    if command[0] == "foliations" and draw(st.booleans()):
        argv.append("--include-trivial")
    return argv


@st.composite
def _contract_argv(draw) -> list[str]:
    """A call of the grammar above, with some values of its options replaced by
    ones from _CONTRACT_VALUES, or a structure call on those values.  No call runs ``verify``, whose suite takes seconds: it
    becomes ``catalog``.  Its exit statuses have tests of their own."""
    if draw(st.booleans()):
        return draw(_structure_call())
    argv = ["catalog" if token == "verify" else token for token in draw(_argv())]
    for i, token in enumerate(argv[:-1]):
        if token in _CONTRACT_VALUES and draw(st.booleans()):
            argv[i + 1] = draw(st.sampled_from(_CONTRACT_VALUES[token]))
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} in the output")


@settings(max_examples=300, deadline=None)
@given(_contract_argv())
def test_every_call_answers_fails_cleanly_or_is_a_usage_error(argv):
    # Aim 3 for the CLI: exit 0 with output that parses and is finite, exit 1
    # with "error: ..." and nothing on stdout (so no stream starts and then
    # fails), or a usage error, exit 2.
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help and --version (0) or a usage error (2)
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, out[:200], err)
    elif code == 2:
        assert out == "" and "usage" in err, (argv, out[:200], err)
    elif out[:1] in ("[", "{"):
        json.loads(out, parse_constant=_reject_constant)
    elif out.startswith("re,im\n"):
        assert all(math.isfinite(float(x)) for line in out.splitlines()[1:] for x in line.split(",")), argv
    else:
        assert out.endswith("\n") and not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), argv
