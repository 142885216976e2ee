"""Iwasawa factorization g = k a n of SL_n(R), in plain Python.

k is special orthogonal, a a positive diagonal of determinant one and n unit
upper triangular: the decomposition G = KAN of SL_n(R), whose solvable part
AN the foliations are built from.  The factors come from a Householder QR
factorization of g on lists of floats, with the signs chosen so that a > 0,
which makes them unique.  Its backward error is columnwise, about
eps ||g e_j|| in column j, so the relative error of prod a_ii = |det g| (and
of every leading product a_11 ... a_jj) is at most about
eps sum_j ||g e_j|| ||e_j^t R^-1||, which a small pivot, or an ill-conditioned
g with no small pivot, makes large, and a zero pivot infinite.  That bound
is the one rule: above _EXACT_ABOVE eps, at up to _EXACT_MAX_SIZE rows, the
factors are computed exactly from the rational entries of g by ``exactkan``
and rounded once; above that size, where the exact factors cost seconds, a
bound above TAU_NUM is refused.
``factor`` is the one rule for "g is in SL_n(R)": the CLI calls it without loading
``slmodel``, and ``slmodel``'s ``iwasawa_group``, ``moebius`` and ``random_sl`` rest on it.

``square_matrix`` is the one statement of what a matrix argument is, for the
CLI's JSON and for every ``slmodel`` function alike: a nonempty square list
of rows of finite real numbers, where bools and strings are not numbers and
numpy's integer and floating scalars are.  Each caller reads its matrix once
through it and then calls ``factor``, which checks no entry again.  In plain
Python the factorization is slower than LAPACK's (about 0.17 against
0.016 ms per call at n = 8 on a 2-vCPU Xeon).

TAU_NUM (1e-10) is the tolerance of factorization round trips on random
matrices, where conditioning error accumulates: the reconstruction
max|k a n - g| must stay below TAU_NUM * max(1, max|g_ij|).  det g must be
1 within TAU_NUM times a condition number of det g, never times a size of g:
to first order, the most that changes of TAU_NUM relative to each column
move it, on Householder's path, where the number is the bound above and the
determinant Householder's; and the most that changes of TAU_NUM relative to
each entry move it, on the exact path, where the number is sum |g_ij C_ij|
over the cofactors C of g and the determinant exact (``exactkan``).  The
bound also counts changes of the entries that are exactly 0, and
[[1, 1e30], [0, 5]], whose bound is about 4e29, has sum |g_ij C_ij| = 10.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from numbers import Real
from operator import mul, sub

from .errors import LieFoliateError

TAU_NUM = 1e-10

# Where the bound on the relative error of prod a_ii that ``factor`` computes is
# above this many eps = 2^-52 (about 1e-13), the factors of a matrix of at most
# _EXACT_MAX_SIZE rows come from ``exactkan`` instead, which takes about 10 ms at
# that size and seconds at 64.  The bound was at least 1.1 times the error met on
# u diag(d) v (d spread up to 10^6).
_EXACT_ABOVE = 450.0
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


def _reflect(v: list[float], tau: float, cols: list[list[float]], start: int) -> None:
    """Apply I - tau v v^t, acting on rows start.., to each of cols in place."""
    for col in cols:
        tail = col[start:]
        s = tau * sum(map(mul, v, tail))
        col[start:] = [t - s * vi for t, vi in zip(tail, v)]


def _householder(cols: list[list[float]]) -> tuple:
    """Householder QR g = Q R on the columns of g, which become those of R on and above
    the diagonal: the reflections (j, v, tau) whose product is Q, diag R, and
    det g = (-1)^(reflections) prod R_jj, as each reflection has determinant -1."""
    reflectors = []
    for j in range(len(cols) - 1):
        x = cols[j][j:]
        norm = math.hypot(*x)
        if norm == 0.0:  # nothing to reflect: a zero pivot, whose bound is infinite
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
    diag = [c[j] for j, c in enumerate(cols)]
    return reflectors, diag, math.prod(diag) * (-1.0) ** len(reflectors)


def factor(rows: list[list[float]]) -> KAN:
    """Factor g in SL_n(R) as k a n, g given as ``square_matrix`` returns it: a
    nonempty square list of rows of finite floats, which is not checked again.

    Householder QR gives g = Q R and det g (``_householder``); with S the signs
    of diag R, k = Q S, a = |diag R| and n = diag(R)^-1 R, unless Householder's
    error bound is above _EXACT_ABOVE and ``exactkan`` gives the factors.
    Raises LieFoliateError unless g has determinant 1: Householder's within
    TAU_NUM times the bound, or the exact one within ``exactkan``'s rule; if a
    factor is beyond the float range; unless the factors reassemble g to within
    TAU_NUM * max(1, max|g_ij|); and, above _EXACT_MAX_SIZE rows, unless the
    relative error bound is at most TAU_NUM.
    """
    size = len(rows)
    scale = max(1.0, max(map(abs, chain.from_iterable(rows))))
    cols = [list(c) for c in zip(*rows)]  # become R, on and above the diagonal
    norms = [math.hypot(*c) for c in cols]
    reflectors, diag, det = _householder(cols)
    # The rows of g^-1 = R^-1 Q^t have the lengths of those of R^-1, so a change of
    # eps ||g e_j|| in each column j changes det g by at most eps * bound of it, to
    # first order: bound = sum_j ||g e_j|| ||e_j^t R^-1||, infinite at a zero pivot.
    bound = math.inf
    if all(diag):
        bound = 0.0
        for j in range(size):
            # diag[j] e_j^t R^-1 from entry j on, by forward substitution from 1, not 1/diag[j] (inf below 5.6e-309)
            row = [1.0]
            for m in range(j + 1, size):
                row.append(-sum(map(mul, row, cols[m][j:m])) / diag[m])
            bound += norms[j] / abs(diag[j]) * math.hypot(*row)
    # "not <=": a NaN bound (inf - inf past a tiny pivot) goes where an infinite one does
    if not bound <= _EXACT_ABOVE and size <= _EXACT_MAX_SIZE:
        from .exactkan import exact_kan

        k, a_diag, n = exact_kan(rows)
    elif not bound <= TAU_NUM * 2.0 ** 52:  # eps * bound > TAU_NUM, above _EXACT_MAX_SIZE rows
        raise LieFoliateError(f"a {size}-row matrix is too ill-conditioned to factor accurately: "
                              f"its relative error bound {bound / 2.0 ** 52:.1e} is above {TAU_NUM}")
    else:
        if not abs(det - 1.0) <= TAU_NUM * bound:  # also refuses an infinite or NaN det
            raise LieFoliateError(f"matrix must have determinant 1, got {det}")
        # k = H_0 H_1 ... S, its columns built from those of S, the last reflection first;
        # H_j fixes the columns c < j, which are still those of S.
        k_cols = [[0.0] * c + [math.copysign(1.0, d)] + [0.0] * (size - c - 1) for c, d in enumerate(diag)]
        for j, v, tau in reversed(reflectors):
            _reflect(v, tau, k_cols[j:], j)
        k = [list(row) for row in zip(*k_cols)]
        a_diag = [abs(d) for d in diag]
        n = [[0.0] * j + [1.0] + [cols[m][j] / diag[j] for m in range(j + 1, size)]
             for j in range(size)]
        if not all(map(math.isfinite, chain.from_iterable(n))):
            raise LieFoliateError("a factor of the matrix is beyond the float range; cannot factor")
    a = [[0.0] * j + [d] + [0.0] * (size - j - 1) for j, d in enumerate(a_diag)]
    # k (a n), with the sums over l <= m only, since n is upper triangular
    an_cols = [[d * row[m] for d, row in zip(a_diag, n[:m + 1])] for m in range(size)]
    residual = max(max(map(abs, map(sub, [sum(map(mul, k_row, col)) for col in an_cols], g_row)))
                   for k_row, g_row in zip(k, rows))
    if not residual <= TAU_NUM * scale:
        raise LieFoliateError(f"factorization failed to reconstruct the input (error {residual})")
    return KAN(k, a, n, residual)
