"""The plain-Python Iwasawa factorization g = k a n (``iwasawa.factor``, and
``iwasawa.kan``, which reads its matrix first): agreement with a numpy QR
reference where numpy is installed, the shape of the factors, the input
checks, ``slmodel.iwasawa_group`` and a time budget at n = 64."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liefoliate.cli import main
from liefoliate.errors import LieFoliateError
from liefoliate.iwasawa import KAN, TAU_NUM, check_det_one, factor, kan, square_matrix
from liefoliate.slmodel import _det, iwasawa_group, random_sl
from matrices import add, diag, eye, matmul, max_abs, scale, transpose


@pytest.mark.parametrize("size", range(2, 9))
def test_kan_agrees_with_a_numpy_qr_reference(size):
    np = pytest.importorskip("numpy")
    rng = random.Random(size)
    for _ in range(100):
        g = random_sl(size, rng)
        q, r = np.linalg.qr(np.array(g))  # with the signs normalized so that a > 0
        signs = np.sign(np.diag(r))
        q, r = q * signs, r * signs[:, None]
        for mine, ref in zip(kan(g)[:3], (q, np.diag(np.diag(r)), r / np.diag(r)[:, None])):
            assert np.abs(np.array(mine) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def sl_matrices(draw) -> list[list[float]]:
    """A matrix of determinant one: drawn entries, one column negated if the
    determinant is negative, then scaled."""
    size = draw(st.integers(1, 6))
    g = draw(st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size))
    det = _det(g)
    assume(abs(det) > 1e-3)
    return [[math.copysign(1.0, det) * row[0], *row[1:]] for row in scale(abs(det) ** (-1.0 / size), g)]


@settings(max_examples=300, deadline=None)
@given(sl_matrices())
def test_factors_lie_in_k_a_and_n(g):
    f = kan(g)
    k, a, n = f[:3]
    size = len(g)
    assert max_abs(add(matmul(transpose(k), k), scale(-1, eye(size)))) <= 1e-12
    assert _det(k) == pytest.approx(1.0, abs=1e-12)
    assert a == diag([a[i][i] for i in range(size)]) and all(a[i][i] > 0 for i in range(size))
    assert math.prod(a[i][i] for i in range(size)) == pytest.approx(1.0, rel=1e-9)
    assert all(n[i][j] == (i == j) for i in range(size) for j in range(i + 1))
    bound = max(1.0, max_abs(g))
    residual = max_abs(add(matmul(matmul(k, a), n), scale(-1, g)))
    assert residual <= TAU_NUM * bound
    assert f.residual == pytest.approx(residual, abs=1e-14 * bound)


def _exact_det(g) -> Fraction:
    m, det = [[Fraction(x) for x in row] for row in g], Fraction(1)
    for j in range(len(m)):
        p = next((i for i in range(j, len(m)) if m[i][j]), None)
        if p is None:
            return Fraction(0)
        m[j], m[p], det = m[p], m[j], det * (m[p][j] if p == j else -m[p][j])
        m[j + 1:] = [[u - row[j] / m[j][j] * v for u, v in zip(row, m[j])] for row in m[j + 1:]]
    return det


def test_a_small_pivot_leaves_the_product_of_a_at_the_determinant():
    # Hypothesis's counterexample: Householder QR gave prod a_ii = 1.0000000016044395.
    g = [[-0.0, 0.0, 0.0, 28.03363267057955, 0.0, 0.0],
         [-0.0, 0.0, 0.0, 0.0, 18.689088447053035, 9.344544223526517],
         [-0.0, 0.0, 12.459392298035356, 0.0, 0.0, 0.0],
         [-0.0, 3.114848074508839, 0.0, 0.0, 0.0, 3.114848074508839],
         [-0.0, 3.1578529287455836e-06, 0.0, 0.0, 0.0, 0.0],
         [-15.574240372544194, 0.0, 0.0, 0.0, 0.0, 0.0]]
    f = kan(g)
    assert math.prod(f.a[i][i] for i in range(6)) == pytest.approx(float(abs(_exact_det(g))), rel=1e-15)
    assert f.a[5][5] == pytest.approx(3.1578529287439607e-06, rel=1e-15)
    assert f.residual <= 1e-14


@st.composite
def ill_conditioned_sl(draw) -> list[list[float]]:
    """u diag(d) v: u, v the k of random_sl matrices, d of product one whose
    largest entry is at most 10^6 times its smallest."""
    size = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    u, v = (kan(random_sl(size, rng)).k for _ in range(2))
    logs = [draw(st.floats(-3.0, 3.0)) for _ in range(size)]
    d = [10.0 ** (x - math.fsum(logs) / size) for x in logs]
    return matmul(matmul(u, diag(d)), v)


@settings(max_examples=100, deadline=None)
@given(ill_conditioned_sl())
def test_the_product_of_a_is_the_exact_determinant_of_an_ill_conditioned_matrix(g):
    f = kan(g)
    size = len(g)
    assert math.prod(f.a[i][i] for i in range(size)) == pytest.approx(float(abs(_exact_det(g))), rel=1e-14)
    assert max_abs(add(matmul(transpose(f.k), f.k), scale(-1, eye(size)))) <= 1e-12
    assert f.residual <= 1e-12 * max_abs(g)


def test_the_exact_factors_agree_with_householder_where_it_is_accurate():
    from liefoliate.exactkan import exact_kan

    rng = random.Random(7)
    for size in range(1, 9):
        g = [list(row) for row in random_sl(size, rng)]
        f = kan(g)
        k, a, n = exact_kan(g)
        assert max_abs(add(k, scale(-1, f.k))) <= 1e-13
        assert max(abs(x / f.a[i][i] - 1.0) for i, x in enumerate(a)) <= 1e-13
        assert max_abs(add(n, scale(-1, f.n))) <= 1e-13


def test_exact_factors_refuse_dependent_columns():
    from liefoliate.exactkan import exact_kan

    with pytest.raises(LieFoliateError, match="dependent"):
        exact_kan([[1.0, 2.0], [2.0, 4.0]])


def test_a_64x64_factorization_takes_under_half_a_second():
    g = random_sl(64, random.Random(64))
    start = time.perf_counter()
    f = kan(g)
    seconds = time.perf_counter() - start
    assert f.residual < 1e-12 and seconds < 0.5


def test_the_cli_factors_a_64x64_matrix(capsys):
    # One 64x64 argument is about 88 KB, under Linux's 128 KiB limit for one argv string.
    text = json.dumps(random_sl(64, random.Random(63)))
    assert len(text) < 128 * 1024
    assert main(["slmodel", "iwasawa", "--rank", "63", "--matrix", text]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] < 1e-10


def test_kan_is_factor_of_the_matrix_square_matrix_reads():
    rows = [list(row) for row in random_sl(4, random.Random(4))]
    copy = [list(row) for row in rows]
    assert factor(rows) == kan(rows) and rows == copy


def test_iwasawa_group_returns_the_kan_of_the_matrix():
    g = random_sl(5, random.Random(5))
    f = iwasawa_group(g)
    assert type(f) is KAN and f == kan(g)


@pytest.mark.parametrize("value, says", [
    (iter([[1.0, 0.0], [0.0, 1.0]]), "list of rows"),  # an iterator of rows, as an ndarray was
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
    assert f[:3] == ([[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
