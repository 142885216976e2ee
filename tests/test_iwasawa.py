"""The plain-Python Iwasawa factorization g = k a n (``iwasawa.factor``, and
``iwasawa.kan``, which reads its matrix first): agreement
with a numpy QR reference, the shape of the factors, the input checks, the
numpy wrapper ``slmodel.iwasawa_group`` and a time budget at n = 64."""

import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liefoliate.cli import main
from liefoliate.errors import LieFoliateError
from liefoliate.iwasawa import TAU_NUM, check_det_one, factor, kan, square_matrix
from liefoliate.slmodel import default_rng, iwasawa_group, random_sl


def numpy_reference(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, a, n from numpy.linalg.qr, with the signs normalized so that a > 0."""
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    q, r = q * signs, r * signs[:, None]
    diag = np.diag(r)
    return q, np.diag(diag), r / diag[:, None]


@pytest.mark.parametrize("size", range(2, 9))
def test_kan_agrees_with_a_numpy_qr_reference(size):
    rng = default_rng(size)
    for _ in range(100):
        g = random_sl(size, rng)
        for mine, ref in zip(kan(g.tolist())[:3], numpy_reference(g)):
            assert np.abs(np.array(mine) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def sl_matrices(draw) -> np.ndarray:
    """A matrix of determinant one: drawn entries, one column negated if the
    determinant is negative, then scaled."""
    size = draw(st.integers(1, 6))
    g = np.array(draw(st.lists(st.lists(entries, min_size=size, max_size=size),
                               min_size=size, max_size=size)))
    with np.errstate(all="ignore"):  # a singular draw, refused just below
        det = np.linalg.det(g)
    assume(abs(det) > 1e-3)
    if det < 0:
        g[:, 0] = -g[:, 0]
    return g / abs(det) ** (1.0 / size)


@settings(max_examples=300, deadline=None)
@given(sl_matrices())
def test_factors_lie_in_k_a_and_n(g):
    f = kan(g.tolist())
    k, a, n = (np.array(m) for m in f[:3])
    size = len(g)
    eye = np.eye(size)
    assert np.abs(k.T @ k - eye).max() <= 1e-12
    assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(a, np.diag(np.diag(a))) and np.all(np.diag(a) > 0)
    assert np.prod(np.diag(a)) == pytest.approx(1.0, rel=1e-9)
    assert np.array_equal(np.tril(n, -1), np.zeros((size, size))) and np.array_equal(np.diag(n), np.ones(size))
    scale = max(1.0, np.abs(g).max())
    residual = np.abs(k @ a @ n - g).max()
    assert residual <= TAU_NUM * scale
    assert f.residual == pytest.approx(residual, abs=1e-14 * scale)


def test_a_64x64_factorization_takes_under_half_a_second():
    g = random_sl(64, default_rng(64)).tolist()
    start = time.perf_counter()
    f = kan(g)
    seconds = time.perf_counter() - start
    assert f.residual < 1e-12 and seconds < 0.5


def test_the_cli_factors_a_64x64_matrix(capsys):
    # One 64x64 argument is about 88 KB, under Linux's 128 KiB limit for one argv string.
    text = json.dumps(random_sl(64, default_rng(63)).tolist())
    assert len(text) < 128 * 1024
    assert main(["slmodel", "iwasawa", "--rank", "63", "--matrix", text]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] < 1e-10


def test_kan_is_factor_of_the_matrix_square_matrix_reads():
    rows = random_sl(4, default_rng(4)).tolist()
    copy = [list(row) for row in rows]
    assert factor(rows) == kan(rows) and rows == copy


def test_iwasawa_group_wraps_the_factors_of_kan_as_read_only_arrays():
    g = random_sl(5, default_rng(5))
    f, ref = iwasawa_group(g), kan(g.tolist())
    for arr, rows in zip((f.k, f.a, f.n), ref):
        assert np.array_equal(arr, np.array(rows)) and not arr.flags.writeable


@pytest.mark.parametrize("value, says", [
    (np.eye(2), "list of rows"),
    ([1.0, 0.0], "list of rows"),
    ([], "nonempty"),
    ([[1.0, 0.0], [0.0]], "square"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "square"),
    ([[True, 0], [0, 1]], "numbers"),
    ([["1", 0], [0, 1]], "numbers"),
    ([[None, 0], [0, 1]], "numbers"),
    ([[10 ** 400, 0], [0, 1]], "finite"),
    ([[float("nan"), 0], [0, 1]], "finite"),
    ([[float("-inf"), 0], [0, 1]], "finite"),
])
def test_square_matrix_refuses_what_is_no_finite_square_matrix(value, says):
    with pytest.raises(LieFoliateError, match=says):
        square_matrix(value)
    with pytest.raises(LieFoliateError, match=says):
        kan(value)


def test_square_matrix_gives_new_rows_of_floats():
    rows = [[1, 2], (3, 4.5)]
    out = square_matrix(rows)
    assert out == [[1.0, 2.0], [3.0, 4.5]] and all(type(x) is float for row in out for x in row)
    assert out[0] is not rows[0]


def test_determinant_rule_is_relative_to_the_hadamard_bound():
    check_det_one(1.0 + 0.5 * TAU_NUM, 1.0)
    check_det_one(1.0 + 50 * TAU_NUM, 100.0)
    for det, hadamard in ((1.0 + 2 * TAU_NUM, 1.0), (2.0, 1e6), (float("inf"), float("inf")),
                          (float("nan"), 1.0)):
        with pytest.raises(LieFoliateError, match="determinant 1"):
            check_det_one(det, hadamard)


@pytest.mark.parametrize("g, says", [
    ([[2.0, 0.0], [0.0, 1.0]], "determinant"),
    ([[-1.0, 0.0], [0.0, 1.0]], "determinant"),
    ([[1.0, 2.0], [2.0, 4.0]], "determinant"),
    ([[1.0, 1e20], [0.0, 1.0]], "dependent"),
])
def test_kan_refuses_what_is_no_well_conditioned_element_of_sl_n(g, says):
    with pytest.raises(LieFoliateError, match=says):
        kan(g)


def test_kan_of_a_one_by_one_matrix_and_of_a_negative_pivot():
    assert kan([[1.0]])[:3] == ([[1.0]], [[1.0]], [[1.0]])
    f = kan([[-1.0, 0.0], [0.0, -1.0]])  # rotation by pi: k = g, a = n = 1
    assert np.array_equal(np.array(f.k), -np.eye(2))
    assert np.array_equal(np.array(f.a), np.eye(2)) and np.array_equal(np.array(f.n), np.eye(2))
