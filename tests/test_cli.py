"""Command-line interface behavior: formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from liefoliate import foliations, parabolic
from liefoliate.catalog import catalog_lookup
from liefoliate.cli import main
from liefoliate.foliations import FoliationClass
from liefoliate.parabolic import HorosphericalData, ParabolicData
from liefoliate.roots import DynkinDiagram, RootSystem


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


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "sl(m,R)" in out and "f4(-20)" in out
    code, out, _ = run(capsys, "catalog", "list", "--format", "json")
    data = json.loads(out)
    assert len(data) == 33


def test_parabolic_json_round_trip(capsys):
    parabolic._components.cache_clear()  # the command runs cold, as in a fresh process; from_dict warm
    code, out, _ = run(capsys, "parabolic", "--space", "SL5", "--phi", "1,3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim_q_phi"] == 16
    parsed = ParabolicData.from_dict(data)
    from liefoliate.parabolic import parabolic_data, phi_subset

    sl5 = catalog_lookup("SL5")
    assert parsed == parabolic_data(sl5, phi_subset(sl5, [1, 3]))


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


def test_horospherical_json(capsys):
    parabolic._components.cache_clear()  # the command runs cold, as in a fresh process; from_dict warm
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
    foliations._orbits.cache_clear()  # from_dict builds its PhiOrbits afresh
    foliations._layer.cache_clear()
    assert [FoliationClass.from_dict(d).to_dict() for d in records] == records


def test_foliations_codim_filter(capsys):
    code, out, _ = run(capsys, "foliations", "enumerate", "--space", "SL5",
                       "--codim", "1", "--format", "json")
    records = json.loads(out)
    assert sorted((tuple(r["phi"]), r["dim_v"]) for r in records) == [
        ((), 3), ((1,), 3), ((2,), 3),
    ]


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
))
def test_slmodel_non_finite_is_a_domain_error(capsys, argv):
    with np.errstate(over="ignore"):
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "finite" in err or "upper half plane" in err


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
], ids=["iwasawa", "killing"])
def test_slmodel_malformed_matrix_is_a_domain_error(capsys, command, text, says):
    code, out, err = run(capsys, *command, text)
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
    assert data["killing"] == pytest.approx(8.0)
    assert data["difference"] == pytest.approx(0.0, abs=1e-12)


def test_slmodel_killing_outside_sl_n_is_a_domain_error(capsys):
    code, out, err = run(capsys, "slmodel", "killing",
                         "--x", "[[1,2],[3,4]]", "--y", "[[1,0],[0,1]]")
    assert code == 1 and out == ""
    assert "trace" in err


def test_slmodel_check_lie_triple(capsys):
    basis = "[[[0,0.5,0],[0.5,0,0],[0,0,0]],[[0,0,0.5],[0,0,0],[0.5,0,0]]]"
    code, out, _ = run(capsys, "slmodel", "check-lie-triple", "--basis", basis)
    assert code == 0
    assert json.loads(out)["holds"] is True
    bad = ("[[[0,0.5,0],[0.5,0,0],[0,0,0]],[[0,0,0.5],[0,0,0],[0.5,0,0]],"
           "[[0,0,0],[0,0,0.5],[0,0.5,0]]]")
    code, out, _ = run(capsys, "slmodel", "check-lie-triple", "--basis", bad)
    data = json.loads(out)
    assert data["holds"] is False and data["residual"] > 0.1


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


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rootsys", "show", "--family", "Z", "--rank", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "catalog")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_writes_each_criterion_seconds_to_stderr(capsys):
    code, out, err = run(capsys, "verify", "--suite", "parabolic")
    assert code == 0
    names = [line.split(": ")[0].split("  ", 1)[1] for line in out.splitlines()]
    assert names == ["7 parabolic blocks", "8 horospherical"]
    timings = [line.split() for line in err.splitlines()]
    assert [" ".join(t[2:]) for t in timings] == names
    assert all(t[1] == "s" and float(t[0]) >= 0 for t in timings)
    assert " s " not in out
