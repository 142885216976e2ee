"""The Iwasawa factors k, a, n of a float matrix g, computed exactly and then
rounded once per entry.

A float matrix is a rational one: with D the largest denominator of its
entries, a power of two, G = D g is a matrix of integers.  Since g = k a n,
M = G^t G = n^t (D a)^2 n is the LDL^t factorization of M, and
G^t = n^t (D a) k^t.  So the row operations that reduce M to upper triangular
form take [M | G^t] to [(D a)^2 n | (D a) k^t].  Fraction-free (Bareiss)
elimination carries them out over the integers: its row j ends as d_j times
that row, with d_j the leading principal minor of M of order j (d_0 = 1), and
its pivot is d_(j+1).  Hence, exactly,

    n_jm = B_jm / d_(j+1),   a_j = sqrt(d_(j+1) / d_j) / D,
    k_ij = B_j(size + i) / sqrt(d_j d_(j+1)).

Each entry is then rounded to a float once (a square root to within an ulp),
so prod a_j is |det g| to about size ulps however small a pivot is, where
Householder QR leaves a pivot an absolute error of about eps max|g_ij|.
The cost grows with the bit length of the minors: about a millisecond at
size 6 and seconds at size 64, so ``iwasawa.factor`` comes here only for a
pivot that Householder cannot give to full relative precision.
"""

from __future__ import annotations

from math import isqrt

from .errors import LieFoliateError


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for positive ints, to within an ulp: an integer square root
    of at least 64 bits, divided once with correct rounding."""
    e = max(0, (129 + q.bit_length() - p.bit_length()) // 2)
    return isqrt((p << 2 * e) // q) / (1 << e)


def exact_kan(rows: list[list[float]]) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """k (a list of rows), the diagonal of a and n (a list of rows) of
    g = k a n, for rows a nonempty square list of rows of finite floats.

    Raises LieFoliateError if the columns of g are linearly dependent, or if
    an entry of a or n is beyond the float range.
    """
    size = len(rows)
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    denom = max(d for row in ratios for _, d in row)
    g_cols = [[num * (denom // d) for num, d in col] for col in zip(*ratios)]
    # row j of [M | G^t]: the dots of column j of G with every column, then column j itself
    b = [[sum(x * y for x, y in zip(cj, cm)) for cm in g_cols] + cj for cj in g_cols]
    minors = [1]  # d_0, d_1, ...
    for j in range(size):
        pivot_row = b[j]
        pivot, prev = pivot_row[j], minors[-1]
        if pivot <= 0:  # M is positive definite exactly when the columns are independent
            raise LieFoliateError("columns are linearly dependent; cannot factor")
        for i in range(j + 1, size):
            row = b[i]
            f = row[j]
            row[j + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[j + 1:], pivot_row[j + 1:])]
        minors.append(pivot)
    try:  # an int quotient beyond the float range raises; |k_ij| <= 1 cannot
        a_diag = [_sqrt_ratio(minors[j + 1], minors[j] * denom * denom) for j in range(size)]
        n = [[0.0] * j + [1.0] + [x / b[j][j] for x in b[j][j + 1:size]] for j in range(size)]
    except OverflowError:
        raise LieFoliateError("a factor of the matrix is beyond the float range; cannot factor") from None
    k_cols = []
    for j in range(size):
        # k_ij = x / sqrt(p), as (x 2^e) / isqrt(p 4^e) with the root at least 64 bits long
        p = minors[j] * minors[j + 1]
        e = max(0, (129 - p.bit_length()) // 2)
        root = isqrt(p << 2 * e)
        k_cols.append([(x << e) / root for x in b[j][size:]])
    return [list(row) for row in zip(*k_cols)], a_diag, n
