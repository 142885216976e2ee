"""Iwasawa factorization g = k a n of SL_n(R), in plain Python.

k is special orthogonal, a a positive diagonal of determinant one and n unit
upper triangular: the decomposition G = KAN of SL_n(R), whose solvable part
AN the foliations are built from.  The factors come from a Householder QR
factorization of g on lists of floats, with the signs chosen so that a > 0,
which makes them unique.  Its pivots have absolute errors of about
eps max|g_ij|, so a pivot small against g would carry a large relative error
into a and n (and prod a_ii, which is |det g|): below _EXACT_BELOW of
max(1, max|g_ij|), at up to _EXACT_MAX_SIZE rows, the factors are computed
exactly from the rational entries of g by ``exactkan`` and rounded once.
The CLI's ``slmodel iwasawa`` calls ``factor`` without loading ``slmodel``,
and ``slmodel.iwasawa_group`` returns its ``KAN``.

``square_matrix`` is the one statement of what a matrix argument is, for the
CLI's JSON and for every ``slmodel`` function alike: a nonempty square list
of rows of finite real numbers, where bools and strings are not numbers and
numpy's integer and floating scalars are.  Each caller checks once: ``kan(g)``
reads g through it and calls ``factor``; a caller that has already read its
matrix (the CLI through ``square_matrix``, ``slmodel`` through its reader)
calls ``factor`` directly, so that no entry is checked twice.  In plain
Python the factorization is slower than LAPACK's from n = 4 up (about 130
against 46 microseconds per call at n = 8).

TAU_NUM (1e-10) is the tolerance of factorization round trips on random
matrices, where conditioning error accumulates: the reconstruction
max|k a n - g| must stay below TAU_NUM * max(1, max|g_ij|), and det g must be
1 within TAU_NUM times the Hadamard bound prod_j ||g e_j||.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from numbers import Real
from operator import mul, sub

from .errors import LieFoliateError

TAU_NUM = 1e-10

# A pivot below this times max(1, max|g_ij|) means numerically dependent columns.
_PIVOT_FLOOR = 1e-13

# Householder gives a pivot to within about eps max|g_ij| absolutely.  Below this
# times max(1, max|g_ij|) that error is more than about 1e-13 of the pivot, and the
# factors of a matrix of at most _EXACT_MAX_SIZE rows come from ``exactkan``
# instead, which takes about 10 ms at that size and seconds at 64.
_EXACT_BELOW = 1e-3
_EXACT_MAX_SIZE = 16

KAN = namedtuple("KAN", "k a n residual")
KAN.__doc__ = """Factors of g = k a n as lists of rows of floats, and
max|k a n - g|, the reconstruction residual."""


def square_matrix(rows) -> list[list[float]]:
    """``rows``, a list of rows of numbers, as a new list of rows of floats.

    Raises LieFoliateError unless it is a nonempty square matrix whose entries
    are real numbers (``numbers.Real``, so numpy's integer and floating
    scalars too, but not bools) that are finite as floats.
    """
    if not isinstance(rows, (list, tuple)) or not set(map(type, rows)) <= {list, tuple}:
        raise LieFoliateError("expected a matrix: a list of rows")
    size = len(rows)
    if size == 0:
        raise LieFoliateError("expected a nonempty matrix")
    if set(map(len, rows)) != {size}:
        raise LieFoliateError(f"expected a square matrix, got {size} rows of lengths {list(map(len, rows))}")
    kinds = {k for k in set(map(type, chain.from_iterable(rows))) - {float, int}
             if k is bool or not issubclass(k, Real)}
    if kinds:
        raise LieFoliateError(f"matrix entries must be numbers, got {min(k.__name__ for k in kinds)}")
    try:
        out = [list(map(float, row)) for row in rows]
    except OverflowError:  # an int beyond the float range
        raise LieFoliateError("matrix entries must be finite as floats: an integer entry overflows")
    if not all(map(math.isfinite, chain.from_iterable(out))):
        raise LieFoliateError("matrix entries must be finite")
    return out


def check_det_one(det: float, hadamard: float) -> None:
    """Raise unless det is 1 within TAU_NUM times the Hadamard bound
    hadamard = prod_j ||g e_j|| >= |det g|.

    The bound scales with the columns as the determinant does.  A power of
    the largest entry does not: max|g|^n lets diag(1e3, 1e3, 1e3, 1e-3, 1e-3,
    2e-3), of determinant 2, through.
    """
    if not math.isfinite(det) or abs(det - 1.0) > TAU_NUM * hadamard:
        raise LieFoliateError(f"matrix must have determinant 1, got {det}")


def _reflect(v: list[float], tau: float, cols: list[list[float]], start: int) -> None:
    """Apply I - tau v v^t, acting on rows start.., to each of cols in place."""
    for col in cols:
        tail = col[start:]
        s = tau * sum(map(mul, v, tail))
        col[start:] = [t - s * vi for t, vi in zip(tail, v)]


def kan(g) -> KAN:
    """Factor g in SL_n(R), a list of rows, as k a n: ``factor`` of g read by
    ``square_matrix``."""
    return factor(square_matrix(g))


def factor(rows: list[list[float]]) -> KAN:
    """Factor g in SL_n(R) as k a n, g given as ``square_matrix`` returns it: a
    nonempty square list of rows of finite floats, which is not checked again.

    Householder QR on the columns of g gives g = Q R; each reflection has
    determinant -1, so det g = (-1)^(reflections) prod R_jj with no second
    pass.  With S the signs of diag R, k = Q S, a = |diag R| and
    n = diag(R)^-1 R, unless a pivot is small enough for ``exactkan`` to
    give the factors instead.  Raises LieFoliateError unless g has determinant 1
    (``check_det_one``) and columns that are not numerically dependent, and
    unless the factors reassemble g to within TAU_NUM * max(1, max|g_ij|).
    """
    size = len(rows)
    scale = max(1.0, max(map(abs, chain.from_iterable(rows))))
    cols = [list(c) for c in zip(*rows)]  # become R, on and above the diagonal
    hadamard = math.prod(math.hypot(*c) for c in cols)
    reflectors: list[tuple[int, list[float], float]] = []
    for j in range(size - 1):
        x = cols[j][j:]
        norm = math.hypot(*x)
        if norm == 0.0:  # nothing to reflect: a zero pivot, refused below
            continue
        # As LAPACK's dlarfg: H = I - tau v v^t with v_0 = 1 maps x to beta e_1, and
        # beta = -sign(x_0) ||x|| leaves no cancellation in x_0 - beta.
        x0 = x[0]
        beta = -math.copysign(norm, x0)
        pivot = x0 - beta
        v = [1.0] + [xi / pivot for xi in x[1:]]
        tau = (beta - x0) / beta
        cols[j][j] = beta
        _reflect(v, tau, cols[j + 1:], j)
        reflectors.append((j, v, tau))
    diag = [cols[j][j] for j in range(size)]
    check_det_one(math.prod(diag) * (-1.0) ** len(reflectors), hadamard)
    smallest = min(map(abs, diag))
    if smallest < _PIVOT_FLOOR * scale:
        raise LieFoliateError("columns are numerically dependent; cannot factor")
    if smallest < _EXACT_BELOW * scale and size <= _EXACT_MAX_SIZE:
        from .exactkan import exact_kan

        k, a_diag, n = exact_kan(rows)
    else:
        # k = H_0 H_1 ... S, its columns built from those of S, the last reflection first;
        # H_j fixes the columns c < j, which are still those of S.
        k_cols = [[0.0] * c + [math.copysign(1.0, d)] + [0.0] * (size - c - 1) for c, d in enumerate(diag)]
        for j, v, tau in reversed(reflectors):
            _reflect(v, tau, k_cols[j:], j)
        k = [list(row) for row in zip(*k_cols)]
        a_diag = [abs(d) for d in diag]
        n = [[0.0] * j + [1.0] + [cols[m][j] / diag[j] for m in range(j + 1, size)]
             for j in range(size)]
    a = [[0.0] * j + [d] + [0.0] * (size - j - 1) for j, d in enumerate(a_diag)]
    # k (a n), with the sums over l <= m only, since n is upper triangular
    an_cols = [[d * row[m] for d, row in zip(a_diag, n[:m + 1])] for m in range(size)]
    residual = max(max(map(abs, map(sub, [sum(map(mul, k_row, col)) for col in an_cols], g_row)))
                   for k_row, g_row in zip(k, rows))
    if not residual <= TAU_NUM * scale:
        raise LieFoliateError(f"factorization failed to reconstruct the input (error {residual})")
    return KAN(k, a, n, residual)
