"""The plain-Python Iwasawa factorization g = k a n (``iwasawa.factor`` of the
matrix that ``iwasawa.square_matrix`` reads, as the CLI calls it): agreement
with a numpy QR reference where numpy is installed, the shape of the factors,
the input checks, the determinant rule, ``slmodel.iwasawa_group`` and a time
budget at n = 64."""

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
from liefoliate.iwasawa import KAN, TAU_NUM, factor, square_matrix
from liefoliate.slmodel import iwasawa_group, random_sl
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
        for mine, ref in zip(factor(square_matrix(g))[:3], (q, np.diag(np.diag(r)), r / np.diag(r)[:, None])):
            assert np.abs(np.array(mine) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _exact_det(g) -> Fraction:
    m, det = [[Fraction(x) for x in row] for row in g], Fraction(1)
    for j in range(len(m)):
        p = next((i for i in range(j, len(m)) if m[i][j]), None)
        if p is None:
            return Fraction(0)
        m[j], m[p], det = m[p], m[j], det * (m[p][j] if p == j else -m[p][j])
        m[j + 1:] = [[u - row[j] / m[j][j] * v for u, v in zip(row, m[j])] for row in m[j + 1:]]
    return det


@st.composite
def sl_matrices(draw) -> list[list[float]]:
    """A matrix of determinant one: drawn entries, one column negated if the
    determinant is negative, then scaled by the exact determinant."""
    size = draw(st.integers(1, 6))
    g = draw(st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size))
    det = _exact_det(g)
    assume(abs(det) > 1e-3)
    return [[math.copysign(1.0, det) * row[0], *row[1:]] for row in scale(float(abs(det)) ** (-1.0 / size), g)]


@settings(max_examples=300, deadline=None)
@given(sl_matrices())
def test_factors_lie_in_k_a_and_n(g):
    f = factor(square_matrix(g))
    k, a, n = f[:3]
    size = len(g)
    assert max_abs(add(matmul(transpose(k), k), scale(-1, eye(size)))) <= 1e-12
    assert float(_exact_det(k)) == pytest.approx(1.0, abs=1e-12)
    assert a == diag([a[i][i] for i in range(size)]) and all(a[i][i] > 0 for i in range(size))
    assert math.prod(a[i][i] for i in range(size)) == pytest.approx(1.0, rel=1e-9)
    assert all(n[i][j] == (i == j) for i in range(size) for j in range(i + 1))
    bound = max(1.0, max_abs(g))
    residual = max_abs(add(matmul(matmul(k, a), n), scale(-1, g)))
    assert residual <= TAU_NUM * bound
    assert f.residual == pytest.approx(residual, abs=1e-14 * bound)


def test_a_small_pivot_leaves_the_product_of_a_at_the_determinant():
    # Hypothesis's counterexample: Householder QR gave prod a_ii = 1.0000000016044395.
    g = [[-0.0, 0.0, 0.0, 28.03363267057955, 0.0, 0.0],
         [-0.0, 0.0, 0.0, 0.0, 18.689088447053035, 9.344544223526517],
         [-0.0, 0.0, 12.459392298035356, 0.0, 0.0, 0.0],
         [-0.0, 3.114848074508839, 0.0, 0.0, 0.0, 3.114848074508839],
         [-0.0, 3.1578529287455836e-06, 0.0, 0.0, 0.0, 0.0],
         [-15.574240372544194, 0.0, 0.0, 0.0, 0.0, 0.0]]
    f = factor(square_matrix(g))
    assert math.prod(f.a[i][i] for i in range(6)) == pytest.approx(float(abs(_exact_det(g))), rel=1e-15)
    assert f.a[5][5] == pytest.approx(3.1578529287439607e-06, rel=1e-15)
    assert f.residual <= 1e-14


@st.composite
def ill_conditioned_sl(draw) -> list[list[float]]:
    """u diag(d) v: u, v the k of random_sl matrices, d of product one whose
    largest entry is at most 10^6 times its smallest."""
    size = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    u, v = (factor(square_matrix(random_sl(size, rng))).k for _ in range(2))
    logs = [draw(st.floats(-3.0, 3.0)) for _ in range(size)]
    d = [10.0 ** (x - math.fsum(logs) / size) for x in logs]
    return matmul(matmul(u, diag(d)), v)


@settings(max_examples=100, deadline=None)
@given(ill_conditioned_sl())
def test_the_product_of_a_is_the_exact_determinant_of_an_ill_conditioned_matrix(g):
    f = factor(square_matrix(g))
    size = len(g)
    assert math.prod(f.a[i][i] for i in range(size)) == pytest.approx(float(abs(_exact_det(g))), rel=1e-14)
    assert max_abs(add(matmul(transpose(f.k), f.k), scale(-1, eye(size)))) <= 1e-12
    assert f.residual <= 1e-12 * max_abs(g)


def test_an_ill_conditioned_matrix_without_a_small_pivot_gets_the_exact_determinant():
    # Hypothesis's counterexample: its smallest Householder pivot is above 1e-3 of
    # max|g_ij|, and Householder QR gave prod a_ii = 1.0000000000019307.
    g = [[-4.680328509323912, 2.2019160030437894, -5.05867942815081, -5.406471300937904, -1.0472893350170551],
         [1.4845702097962374, 2.7916059164225686, 1.637400474489028, 3.477377715641186, 1.9666230683412935],
         [-0.2661349938676961, -0.9286038130331733, 1.4918246139708164, 2.0118356816816894, -0.5107756105760664],
         [1.81231280652713, -0.6040581139534908, 7.169577899178544, 10.552837018191967, -1.5223959325811887],
         [3.918268099927162, -6.143977900918805, 20.7462470781903, 28.59886552025071, 6.597632624269398]]
    f = factor(square_matrix(g))
    assert math.prod(f.a[i][i] for i in range(5)) == pytest.approx(float(abs(_exact_det(g))), rel=1e-15, abs=0)


def test_the_exact_factors_agree_with_householder_where_it_is_accurate():
    from liefoliate.exactkan import exact_kan

    rng = random.Random(7)
    for size in range(1, 9):
        g = [list(row) for row in random_sl(size, rng)]
        f = factor(square_matrix(g))
        k, a, n = exact_kan(g)
        assert max_abs(add(k, scale(-1, f.k))) <= 1e-13
        assert max(abs(x / f.a[i][i] - 1.0) for i, x in enumerate(a)) <= 1e-13
        assert max_abs(add(n, scale(-1, f.n))) <= 1e-13


def test_exact_factors_refuse_a_singular_matrix():
    from liefoliate.exactkan import exact_kan

    with pytest.raises(LieFoliateError, match=r"^matrix must have determinant 1, got 0\.0$"):
        exact_kan([[1.0, 2.0], [2.0, 4.0]])


def test_a_64x64_factorization_takes_under_half_a_second():
    g = random_sl(64, random.Random(64))
    start = time.perf_counter()
    f = factor(square_matrix(g))
    seconds = time.perf_counter() - start
    assert f.residual < 1e-12 and seconds < 0.5


def test_the_cli_factors_a_64x64_matrix(capsys):
    # One 64x64 argument is about 88 KB, under Linux's 128 KiB limit for one argv string.
    text = json.dumps(random_sl(64, random.Random(63)))
    assert len(text) < 128 * 1024
    assert main(["slmodel", "iwasawa", "--rank", "63", "--matrix", text]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] < 1e-10


def reflections(rng, size):
    """A product of ``size`` reflections I - 2 w w^t / (w^t w), each w of standard normal entries."""
    m = eye(size)
    for _ in range(size):
        w = [rng.gauss(0, 1) for _ in range(size)]
        ww = sum(x * x for x in w)
        m = matmul(m, [[(i == j) - 2 * w[i] * w[j] / ww for j in range(size)] for i in range(size)])
    return m


def ill_conditioned_24():
    """u diag(d) v with 24 rows: each of d_1 ... d_23 is 1e-2, 1 or 1e2, d_24 = 1 / prod d_i,
    and u, v are random orthogonal.  Its max|g_ij| is 1.5e11, and Householder's smallest
    pivot is 1e-13 of that: Householder's a_ii carry relative errors of about 1e-3."""
    rng = random.Random(8)
    d = [rng.choice((0.01, 1.0, 100.0)) for _ in range(23)]
    d.append(1 / math.prod(d))
    u = reflections(rng, 24)
    return matmul(matmul(u, diag(d)), reflections(rng, 24))


def test_an_ill_conditioned_matrix_above_sixteen_rows_is_refused(capsys):
    # Householder's factors gave prod a_ii = 1.000689 and a worst relative error
    # in an a_ii of 1.3e-3, with exit 0, when only 16 rows or fewer had a bound.
    g = ill_conditioned_24()
    with pytest.raises(LieFoliateError, match=r"^a 24-row matrix is too ill-conditioned to factor accurately: "
                                              r"its relative error bound 5\.6e-02 is above 1e-10$"):
        factor(square_matrix(g))
    assert main(["slmodel", "iwasawa", "--rank", "23", "--matrix", json.dumps(g)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a 24-row matrix is too ill-conditioned")


@settings(max_examples=12, deadline=None)
@given(st.integers(17, 64), st.integers(0, 2 ** 32))
def test_well_conditioned_matrices_above_sixteen_rows_are_factored(size, seed):
    f = factor(square_matrix(random_sl(size, random.Random(seed))))
    assert f.residual < 1e-12


def test_iwasawa_group_returns_the_kan_of_the_matrix():
    g = random_sl(5, random.Random(5))
    f = iwasawa_group(g)
    assert type(f) is KAN and f == factor(square_matrix(g))


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


def test_square_matrix_gives_new_rows_of_floats():
    rows = [[1, 2], (3, 4.5)]
    out = square_matrix(rows)
    assert out == [[1.0, 2.0], [3.0, 4.5]] and all(type(x) is float for row in out for x in row)
    assert out[0] is not rows[0]


@pytest.mark.parametrize("g, says", [
    ([[2.0, 0.0], [0.0, 1.0]], "determinant"),
    ([[-1.0, 0.0], [0.0, 1.0]], "determinant"),
    ([[1.0, 2.0], [2.0, 4.0]], "determinant"),
    ([[1e6, 1e6], [1e6, 1e6]], "determinant 1, got 0.0"),  # singular: refused by its exact determinant
    ([[0.0, 1.0], [0.0, 1.0]], "determinant 1, got 0.0"),  # a zero column: no reflection, a zero pivot
    ([[1.0] * 17 for _ in range(17)], "too ill-conditioned"),  # a zero pivot above 16 rows: no exactkan
    ([[1e-300, 1e10], [0.0, 1e300]], "beyond the float range"),  # n_12 = 1e310
    # on the exact path, with the exact determinant and a tolerance of TAU_NUM sum |g_ij C_ij|,
    # where TAU_NUM prod_j ||g e_j|| (1e5, 1, 1e20 and 1e5) let each through
    ([[1.0, 1e15], [0.0, 2.0]], "determinant 1, got 2.0"),
    ([[1e5, 1e5], [0.0, 2e-5]], "determinant 1, got 2.0"),  # no small pivot
    ([[1.0, 1e30], [0.0, 5.0]], "determinant 1, got 5.0"),  # sum |g_ij C_ij| = 10, Householder's bound 4e29
    ([[-1.0, 1e15], [0.0, 1.0]], "determinant 1, got -1.0"),
])
def test_kan_refuses_what_is_no_well_conditioned_element_of_sl_n(g, says, capsys):
    with pytest.raises(LieFoliateError, match=says):
        factor(square_matrix(g))
    assert main(["slmodel", "iwasawa", "--rank", str(len(g) - 1), "--matrix", json.dumps(g)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and says in err


@pytest.mark.parametrize("g, accepted", [
    # Householder's path, bound 2: det g must be 1 within 2 TAU_NUM
    ([[1.0 + 1.5 * TAU_NUM, 0.0], [0.0, 1.0]], True),
    ([[1.0 + 3.0 * TAU_NUM, 0.0], [0.0, 1.0]], False),
    # the exact path, Householder's bound 2e15: within TAU_NUM sum |g_ij C_ij|, about 2 TAU_NUM
    ([[1.0, 1e15], [0.0, 1.0 + 1.5 * TAU_NUM]], True),
    ([[1.0, 1e15], [0.0, 1.0 + 3.0 * TAU_NUM]], False),
], ids=["householder-in", "householder-out", "exact-in", "exact-out"])
def test_the_determinant_tolerance_is_tau_num_times_a_condition_number(g, accepted):
    if accepted:
        f = factor(square_matrix(g))
        assert f.a[0][0] * f.a[1][1] == pytest.approx(g[0][0] * g[1][1], rel=1e-15)
    else:
        with pytest.raises(LieFoliateError, match="determinant 1"):
            factor(square_matrix(g))


@pytest.mark.parametrize("k, a, n", [
    (eye(2), diag([1e-14, 1e14]), eye(2)),
    (eye(2), diag([1e-200, 1e200]), eye(2)),
    (eye(3), diag([1e-7, 1e-7, 1e14]), eye(3)),
    (eye(2), eye(2), [[1.0, 2e13], [0.0, 1.0]]),
    (eye(2), eye(2), [[1.0, 1e20], [0.0, 1.0]]),
    ([[0, 1], [-1, 0]], diag([1e14, 1e-14]), eye(2)),
    (eye(17), diag([1e-14, 1e14] + [1.0] * 15), eye(17)),  # 17 rows: Householder, with a bound of 17
    # a pivot whose reciprocal overflows: the bound is still 17, where it was inf and refused
    (eye(17), diag([1e-310, 1e155, 1e155] + [1.0] * 14), eye(17)),
], ids=["a-1e14", "a-1e200", "a-3-rows", "n-2e13", "n-1e20", "k-a", "a-17-rows", "a-1e-310-17-rows"])
def test_elements_of_a_n_and_k_a_factor_exactly_however_far_apart_their_entries(k, a, n, capsys):
    # Entries far apart are no reason to refuse: Householder's error bound is at
    # most 17 on the diagonal ones, and exactkan factors the others exactly.
    g = matmul(matmul(k, a), n)
    assert factor(square_matrix(g)) == (k, a, n, 0.0)
    assert main(["slmodel", "iwasawa", "--rank", str(len(g) - 1), "--matrix", json.dumps(g)]) == 0
    assert json.loads(capsys.readouterr().out) == {"k": k, "a": a, "n": n, "residual": 0.0}


def test_kan_of_a_one_by_one_matrix_and_of_a_negative_pivot():
    assert factor(square_matrix([[1.0]]))[:3] == ([[1.0]], [[1.0]], [[1.0]])
    f = factor(square_matrix([[-1.0, 0.0], [0.0, -1.0]]))  # rotation by pi: k = g, a = n = 1
    assert f[:3] == ([[-1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
