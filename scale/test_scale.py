"""Checks at scale, each in a fresh process that must finish within the
timeout written beside it: A299's positive roots, SL1001's parabolic and
horospherical data and a short parabolic record of it refused, the foliation
records of SL18 and SL20, the exact edge cases of the matrix model, a
determinant refused at 64 rows, and ``verify --suite all``.  Outside
tier-1's collection; run with ``PYTHONPATH=src python -m pytest scale -q``.
A new check at scale belongs here, not in the CI workflow.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def output(*args: str, timeout: float, stdin: bytes | None = None) -> bytes:
    """The stdout of ``python *args`` with PYTHONPATH=src, which must exit 0 within ``timeout`` seconds."""
    proc = subprocess.run([sys.executable, *args], input=stdin, stdin=subprocess.DEVNULL if stdin is None else None,
                          capture_output=True, env=ENV, timeout=timeout)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def cli(*argv: str, timeout: float):
    """The JSON that ``liefoliate *argv`` prints."""
    return json.loads(output("-m", "liefoliate.cli", *argv, timeout=timeout))


def python(code: str, *argv: str, timeout: float, stdin: bytes | None = None):
    """The JSON that ``python -c code *argv`` prints; ``code`` finds ``json`` and ``sys`` imported."""
    return json.loads(output("-c", "import json, sys\n" + code, *argv, timeout=timeout, stdin=stdin))


def seq(first: int, last: int, step: int = 1) -> str:
    return ",".join(map(str, range(first, last + 1, step)))


def dim_m(d: dict) -> tuple[int, int]:
    """dim F_Phi^s + dim E + dim N_Phi, and dim M, of a horospherical answer."""
    return d["dim_Fs"] + d["dim_euclidean"] + d["dim_N"], d["dim_M"]


def test_verify_suite_all():
    output("-m", "liefoliate.cli", "verify", "--suite", "all", timeout=120)


def test_a63_json_is_read_back_in_a_fresh_process():
    data = output("-m", "liefoliate.cli", "rootsys", "show", "--family", "A", "--rank", "63", "--format", "json",
                  timeout=60)
    assert python("""from liefoliate.roots import RootSystem, build_root_system
data = json.load(sys.stdin)
print(json.dumps([len(data["positive"]), RootSystem.from_dict(data) == build_root_system("A", 63)]))""",
                  stdin=data, timeout=60) == [2016, True]


def test_a_short_sl1001_record_is_refused_within_2_s():
    # Building Sigma_Phi for Phi = 1..1000 (500,500 roots of 1001 coordinates) would take minutes.
    assert python("""from liefoliate import LieFoliateError, ParabolicData
try:
    ParabolicData.from_dict({"space": "SL1001", "phi": list(range(1, 1001))})
except LieFoliateError as exc:
    print(json.dumps(str(exc)))""", timeout=2) == "parabolic record lacks sigma_phi, sigma_phi_pos"


def test_a299_root_list_starts_with_the_simple_roots():
    # SL300's system, reached from the simple roots by raising simple reflections.
    assert python("""from liefoliate.roots import build_root_system
rs = build_root_system("A", 299)
simple = [tuple(2 * ((k == i) - (k == i + 1)) for k in range(300)) for i in range(299)]
print(json.dumps([len(rs.positive), [lam.scaled for lam in rs.positive[:299]] == simple]))""",
                  timeout=30) == [44850, True]


def test_sl18_has_28069_records():
    assert len(cli("foliations", "enumerate", "--space", "SL18", "--format", "json", timeout=60)) == 28069


def test_foliation_json_writer_matches_json_dumps_byte_for_byte():
    # sl(13,C) has 1,860 records.
    got = output("-m", "liefoliate.cli", "foliations", "enumerate", "--space", "sl(13,C)", "--format", "json",
                 timeout=60)
    assert got == output("-c", """import json, sys
from liefoliate import catalog_lookup, enumerate_foliations
records = [c.to_dict() for c in enumerate_foliations(catalog_lookup("sl(13,C)"))]
sys.stdout.buffer.write((json.dumps(records, indent=2, ensure_ascii=False) + "\\n").encode())""", timeout=60)


def test_sl20_json_is_streamed_in_flat_memory(tmp_path):
    # The child's peak RSS, read with os.wait4; joining the whole array took 266 MB.
    status, n, peak_mb = python("""import os, subprocess
with open(sys.argv[1], "wb") as out:
    child = subprocess.Popen([sys.executable, "-m", "liefoliate.cli", "foliations", "enumerate",
                              "--space", "SL20", "--format", "json"], stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
with open(sys.argv[1], encoding="utf-8") as f:
    print(json.dumps([status, len(json.load(f)), usage.ru_maxrss / 1024]))  # KiB on Linux""",
                                str(tmp_path / "sl20.json"), timeout=60)
    assert (status, n) == (0, 80929) and peak_mb < 100


def test_codimension_1_at_rank_59_walks_only_the_layers_of_at_most_one_root():
    assert len(cli("foliations", "enumerate", "--space", "sl(60,R)", "--codim", "1", "--format", "json",
                   timeout=20)) == 31


def test_a_rank_40_record_is_read_back():
    # Phi = (1, 3, ..., 39) has 20 roots; no layer of subsets is built.
    assert python("""from liefoliate.foliations import CONGRUENCE_NOTE, FoliationClass
odd, even = list(range(1, 40, 2)), list(range(2, 41, 2))
data = {"space": "sl(41,R)", "phi": odd, "orbit": [odd, even], "dim_v": 0, "leaf_dim": 820, "codim": 40,
        "trivial": False, "factors": [{"alpha": i, "algebra": "R", "n": 2, "real_dim": 2} for i in odd],
        "dim_n_phi": 800, "congruence": CONGRUENCE_NOTE}
print(json.dumps(FoliationClass.from_dict(data).to_dict() == data))""", timeout=20) is True


def test_two_codimension_3_enumerations_share_the_phi_orbits_of_the_full_list():
    # No layer is kept, so the second call walks layers 0-3 again and builds no PhiOrbit.
    assert python("""from liefoliate import catalog_lookup, enumerate_foliations
space = catalog_lookup("SL18")
first, second = enumerate_foliations(space, codim=3), enumerate_foliations(space, codim=3)
expected = tuple(c for c in enumerate_foliations(space) if c.codim == 3)
shared = all(a.phi_orbit is b.phi_orbit for a, b in zip(first + second, expected + expected))
print(json.dumps(first == second == expected and shared))""", timeout=20) is True


def symmetric_sl6(seed: int, count: int) -> list:
    """``count`` random symmetric 6 x 6 matrices, made traceless in floats as x - tr(x)/6 I."""
    rng, basis = random.Random(seed), []
    for _ in range(count):
        a = [[rng.gauss(0.0, 1.0) for _ in range(6)] for _ in range(6)]
        x = [[(a[i][j] + a[j][i]) / 2 for j in range(6)] for i in range(6)]
        t = sum(x[i][i] for i in range(6))
        basis.append([[x[i][j] - (t / 6 if i == j else 0.0) for j in range(6)] for i in range(6)])
    return basis


@pytest.mark.parametrize("moved", [False, True], ids=["traceless-to-rounding", "symmetric-to-rounding"])
def test_a_float_basis_of_p_in_sl6_is_a_lie_triple_system(moved):
    # 20 elements span p; with `moved`, one entry is one ulp off, and the check decides on
    # the basis's exact symmetric part.
    basis = symmetric_sl6(3, 20)
    if moved:
        basis[0][0][1] = math.nextafter(basis[0][0][1], math.inf)
    answer = cli("slmodel", "check-lie-triple", "--basis", json.dumps(basis), timeout=10)
    assert answer == {"holds": True, "residual": 0.0}


def test_a_failing_18_element_basis_in_sl6_is_answered_within_2_s():
    # No Lie triple system: the test stops at the first double bracket outside the span.
    # Measuring every double bracket with exact projections took 3.5 s in process.
    answer = cli("slmodel", "check-lie-triple", "--basis", json.dumps(symmetric_sl6(5, 18)), timeout=2)
    assert answer["holds"] is False and answer["residual"] > 0.0


def test_horospherical_and_parabolic_at_rank_63():
    d = cli("horospherical", "--space", "sl(64,R)", "--phi", seq(1, 63), "--format", "json", timeout=20)
    assert dim_m(d) == (2079, 2079)
    # Phi = (1, 3, ..., 63) spans 32 of the 2016 positive roots.
    d = cli("parabolic", "--space", "sl(64,R)", "--phi", seq(1, 63, 2), "--format", "json", timeout=20)
    assert d["dim_n_phi"] == 2016 - 32


def test_structure_at_rank_299_builds_no_root_list():
    assert cli("parabolic", "--space", "SL300", "--phi", "1", "--format", "json", timeout=10)["dim_n_phi"] == 44849
    d = cli("horospherical", "--space", "SL300", "--phi", "1", "--format", "json", timeout=10)
    assert dim_m(d) == (45149, 45149)
    d = cli("foliations", "enumerate", "--space", "SL300", "--codim", "1", "--format", "json", timeout=10)
    assert len(d) == 151


def test_parabolic_table_at_rank_1000_counts_by_the_closed_form():
    # Phi = 1..999 but 500 is two A_499 of 124,750 positive roots each.
    out = output("-m", "liefoliate.cli", "parabolic", "--space", "SL1001", "--phi", f"{seq(1, 499)},{seq(501, 999)}",
                 timeout=10)
    assert out.decode().splitlines()[1:2] == ["|Sigma_Phi| = 499000, |Sigma_Phi+| = 249500"]


def test_horospherical_on_a_d_diagram_at_rank_300():
    # Phi's runs of consecutive indices are cut where (r - 1, r) is no edge and joined
    # across the edge (r - 2, r): each odd vertex up to r - 3 is one factor, and
    # r - 3, ..., r is one D_4.  The same Phi at rank 1000 follows.
    for rank, factors in ((300, 149), (1000, 499)):
        phi = f"{seq(1, rank - 3, 2)},{seq(rank - 2, rank)}"
        d = cli("horospherical", "--space", f"so({rank},{rank})", "--phi", phi, "--format", "json", timeout=20)
        f = d["factors"]
        assert (len(f), f[-1]["component_indices"], f[-1]["dim"]) == (factors, [rank - 3, rank - 2, rank - 1, rank], 16)
        assert dim_m(d) == (rank * rank, rank * rank)


def test_horospherical_on_a_path_diagram_at_rank_1000():
    # Phi = 1,2,4,5,...,997,998 is 333 runs of two, each an A_2 factor SL_3(R)/SO_3.
    d = cli("horospherical", "--space", "SL1001", "--phi", ",".join(str(i) for i in range(1, 999) if i % 3),
            "--format", "json", timeout=10)
    assert (len(d["factors"]), d["dim_Fs"], d["dim_euclidean"], d["dim_N"]) == (333, 1665, 334, 499501)


def test_multiplicities_at_rank_1000_are_read_off_the_simple_roots():
    assert python("""from liefoliate import catalog_lookup
print(json.dumps(list(catalog_lookup("SL1001").multiplicities.table.items())))""", timeout=10) == [[8, 1]]


def test_iwasawa_factors_each_case_exactly():
    # A random SL_64 matrix, about 88 KB of argv.
    matrix = output("-c", "import json; from liefoliate.slmodel import random_sl; print(json.dumps(random_sl(64)))",
                    timeout=20).decode()
    assert cli("slmodel", "iwasawa", "--rank", "63", "--matrix", matrix, timeout=20)["residual"] < 1e-10
    # An element of N whose entries lie 2e13 apart.
    d = cli("slmodel", "iwasawa", "--rank", "1", "--matrix", "[[1,2e13],[0,1]]", timeout=20)
    assert (d["n"][0][1], d["residual"]) == (2e13, 0.0)
    # diag(1e-310, 1e155, 1e155, 1, ..., 1): the first pivot has no finite reciprocal.
    diag = [1e-310, 1e155, 1e155] + [1.0] * 14
    d = cli("slmodel", "iwasawa", "--rank", "16", "--matrix",
            json.dumps([[diag[i] if i == j else 0.0 for j in range(17)] for i in range(17)]), timeout=20)
    assert (d["a"][0][0], d["residual"]) == (1e-310, 0.0)


def test_a_64_row_matrix_of_determinant_2_is_refused_within_a_second():
    # random_sl(64) with its first column doubled: well conditioned, on Householder's path.
    matrix = output("-c", "import json; from liefoliate.slmodel import random_sl\n"
                    "print(json.dumps([[2 * row[0], *row[1:]] for row in random_sl(64)]))", timeout=20)
    proc = subprocess.run([sys.executable, "-m", "liefoliate.cli", "slmodel", "iwasawa", "--rank", "63",
                           "--matrix", matrix.decode()], stdin=subprocess.DEVNULL, capture_output=True, env=ENV,
                          timeout=1)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"error: matrix must have determinant 1, got 2.0000000000000")
