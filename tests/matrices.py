"""Plain-Python matrix helpers for the tests: matrices are lists of rows of numbers."""

from operator import mul


def matmul(x, y):
    return [[sum(map(mul, row, col)) for col in zip(*y)] for row in x]


def transpose(x):
    return [list(col) for col in zip(*x)]


def add(*mats):
    return [[sum(values) for values in zip(*rows)] for rows in zip(*mats)]


def scale(c, x):
    return [[c * v for v in row] for row in x]


def diag(values):
    return [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]


def eye(n):
    return diag([1] * n)


def trace(x):
    return sum(x[i][i] for i in range(len(x)))


def max_abs(x):
    return max(abs(v) for row in x for v in row)


def traceless(rng, n):
    """Standard normal entries less tr/n on the diagonal, from a ``random.Random``."""
    x = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    return add(x, scale(-trace(x) / n, eye(n)))
