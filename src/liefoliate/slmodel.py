"""Concrete matrix model: sl(n,R) with n = r+1 and M = SL_n(R)/SO_n, in exact arithmetic.

The bracket, the Killing form from the adjoint action over a fixed basis, the
Cartan splitting, the restricted root space decomposition, the Iwasawa
factorization g = k a n (``iwasawa.factor``), Lie triple systems, the
foliation subalgebras s_{Phi,V} and the SL_2 action on the upper half plane.
A matrix is a tuple of row tuples of ints and Fractions, with no numpy: every
matrix argument is read once per call by ``iwasawa.square_matrix``, the CLI's
rule, and its floats exactly.  The structure constants of sl(n) in the basis
E_ij, h_i are integers, so independence, bracket closure and the Lie triple
test are rank questions over Q, decided by fraction-free elimination.
TAU_ALG (1e-12) is only for input checks: a float matrix made traceless,
symmetric, skew, diagonal or triangular in floating point passes within
TAU_ALG * n * max|X_ij|.  Random samples use random.Random(DEFAULT_SEED).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations
from numbers import Number
from operator import mul
from typing import TYPE_CHECKING

from .errors import LieFoliateError
from .iwasawa import KAN, _householder, factor, square_matrix

if TYPE_CHECKING:
    from .catalog import SpaceDescriptor
    from .roots import Root

TAU_ALG = 1e-12

DEFAULT_SEED = 1729

VALID_TAGS = ("k", "p", "a", "n")

MAX_ORBIT_SAMPLES = 100_000  # halfplane_orbit's time and memory grow linearly: 1.6 s and 368 MB at 10**6

Matrix = tuple[tuple[int | Fraction, ...], ...]


def _floats(x) -> list[list[float]]:
    """Matrix x (a MatrixElement's entries, an ndarray's ``tolist()``) read by ``square_matrix``."""
    x = x.entries if isinstance(x, MatrixElement) else x
    return square_matrix(x.tolist() if hasattr(x, "tolist") and not isinstance(x, (list, tuple)) else x)


def _read(x) -> tuple[tuple, int]:
    """Matrix x read once, exactly, as integer rows over a common denominator: a
    MatrixElement from its entries, rows of ints and Fractions as they are, and
    anything else as the floats of ``_floats``."""
    if isinstance(x, MatrixElement):
        return _integral(x.entries)
    floats = _floats(x)
    exact = isinstance(x, (list, tuple)) and set(map(type, chain.from_iterable(x))) <= {int, Fraction}
    return _integral(x if exact else floats)


def _integral(rows) -> tuple[tuple, int]:
    """Rows of ints, Fractions and floats as integer rows over their least common denominator."""
    n, ratios = len(rows), [v.as_integer_ratio() for v in chain.from_iterable(rows)]
    d = math.lcm(*{q for _, q in ratios})
    flat = [p * (d // q) for p, q in ratios]
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n)), d


def _read_pair(x, y) -> tuple[tuple[tuple, int], tuple[tuple, int]]:
    a, b = _read(x), _read(y)
    if len(a[0]) != len(b[0]):
        raise LieFoliateError(f"size mismatch: {(len(a[0]),) * 2} vs {(len(b[0]),) * 2}")
    return a, b


def _exact(rows, d: int) -> Matrix:
    """Integer rows over the denominator d as a matrix of ints and Fractions."""
    return tuple(map(tuple, rows)) if d == 1 else tuple(tuple(Fraction(v, d) for v in row) for row in rows)


def _ratio(num: int, den: int) -> float:
    """num / den rounded once; LieFoliateError past the float range."""
    try:
        return num / den
    except OverflowError:
        raise LieFoliateError("the result is not finite as a float") from None


def _negligible(deviation: int, entries, n: int) -> bool:
    """deviation <= TAU_ALG * n * max|entries|: the input checks' rule, relative to the entries."""
    return not deviation or deviation / (n * max(map(abs, entries))) <= TAU_ALG


_SHAPES = {  # tag: what it requires, and the entry of A that its shape forbids at (i, j)
    "k": ("a skew-symmetric", lambda a, i, j: a[i][j] + a[j][i]),
    "p": ("a symmetric", lambda a, i, j: a[i][j] - a[j][i]),
    "a": ("a diagonal", lambda a, i, j: a[i][j] if i != j else 0),
    "n": ("a strictly upper triangular", lambda a, i, j: a[i][j] if i >= j else 0),
}


@dataclass(frozen=True, eq=False)
class MatrixElement:
    """A traceless real matrix, exactly, optionally tagged with a membership claim:
    k is skew-symmetric, p symmetric, a diagonal, n strictly upper triangular.
    Entries traceless only within TAU_ALG are kept as read; span, brackets and the
    Lie triple test use their exact projection X - tr(X)/n I onto sl(n)."""

    entries: Matrix
    tag: str | None = None

    def __post_init__(self) -> None:
        a, d = _read(self.entries)
        n, t = len(a), sum(row[i] for i, row in enumerate(a))
        if not _negligible(abs(t), chain.from_iterable(a), n):
            raise LieFoliateError("matrix is not traceless")
        if self.tag is not None:
            if self.tag not in VALID_TAGS:
                raise LieFoliateError(f"unknown tag {self.tag!r}; valid tags: {VALID_TAGS}")
            shape, forbidden = _SHAPES[self.tag]
            deviation = max(abs(forbidden(a, i, j)) for i in range(n) for j in range(n))
            if not _negligible(deviation, chain.from_iterable(a), n):
                raise LieFoliateError(f"tag {self.tag} requires {shape} matrix")
        object.__setattr__(self, "entries", _exact(a, d))
        if t:  # traceless within TAU_ALG only: decide on the exact projection n A - t I onto sl(n)
            a = [[n * v - (t if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(a)]
        object.__setattr__(self, "_vector", _sparse(a))  # a multiple of that projection, for elimination

    @property
    def size(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        tag = f", tag={self.tag!r}" if self.tag else ""
        return f"MatrixElement({[list(row) for row in self.entries]}{tag})"


def as_element(x, tag: str | None = None) -> MatrixElement:
    if isinstance(x, MatrixElement) and (tag is None or tag == x.tag):
        return x
    return MatrixElement(x, tag)


def _matrix(n: int, entries: dict[tuple[int, int], int]) -> Matrix:
    """The n x n matrix with these entries (0-based positions) and zeros elsewhere."""
    return tuple(tuple(entries.get((i, j), 0) for j in range(n)) for i in range(n))


def e_matrix(n: int, i: int, j: int) -> Matrix:
    """Matrix unit E_ij (0-based indices)."""
    return _matrix(n, {(i, j): 1})


def h_matrix(n: int, i: int) -> Matrix:
    """Diagonal basis element E_ii - E_{i+1,i+1} (0-based index, i < n-1)."""
    return _matrix(n, {(i, i): 1, (i + 1, i + 1): -1})


@lru_cache(maxsize=None)
def _element(n: int, tag: str | None, *entries: tuple[int, int, int]) -> MatrixElement:
    """The element with these (i, j, value) entries, built once per process:
    the builders' E_ij, h_i and E_ij + E_ji."""
    return MatrixElement(_matrix(n, {(i, j): v for i, j, v in entries}), tag)


def _h(n: int, i: int, tag: str | None) -> MatrixElement:
    return _element(n, tag, (i, i, 1), (i + 1, i + 1, -1))


def _basis_indices(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def sl_basis(n: int) -> tuple[Matrix, ...]:
    """Fixed ordered basis of sl(n,R): E_ij (i != j, row-major), then the h_i, to which
    adjoint matrices and all coordinates refer.  The coordinate of E_ij is the
    (i, j) entry, and that of h_i the sum of the first i + 1 diagonal entries."""
    return tuple(e_matrix(n, i, j) for i, j in _basis_indices(n)) + tuple(h_matrix(n, i) for i in range(n - 1))


# --- sparse integer matrices {(i, j): nonzero int}, and their span ------------


def _sparse(rows) -> dict[tuple[int, int], int]:
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def _commutator(x: dict, y: dict) -> dict:
    """[X, Y] = XY - YX of sparse matrices."""
    out: dict = {}
    for left, right, sign in ((x, y, 1), (y, x, -1)):
        rows: dict = {}
        for (k, j), v in right.items():
            rows.setdefault(k, []).append((j, sign * v))
        for (i, k), u in left.items():
            for j, v in rows.get(k, ()):
                out[i, j] = out.get((i, j), 0) + u * v
    return {key: v for key, v in out.items() if v}


def _combine(a: int, x: dict, b: int, y: dict) -> dict:
    """a x + b y, without its zeros and divided by the gcd of its entries."""
    out = {key: a * v for key, v in x.items()}
    for key, v in y.items():
        out[key] = out.get(key, 0) + b * v
    out = {key: v for key, v in out.items() if v}
    g = math.gcd(*out.values())
    return {key: v // g for key, v in out.items()} if g > 1 else out


def _dot(x: dict, y: dict) -> int:
    """The pairing sum X_ij Y_ij."""
    return sum(v * y.get(key, 0) for key, v in x.items())


def _residue(span: dict, v: dict) -> dict:
    """v less a combination of the span's rows, up to a nonzero factor: empty exactly
    when v lies in the span.  The span is a fraction-free reduced echelon form, each
    row filed under its pivot, where every other row is zero."""
    for key in [key for key in v if key in span]:
        row = span[key]
        v = _combine(row[key], v, -v[key], row)
    return v


def _extend(span: dict, v: dict) -> bool:
    """Add v to the span; False, with no change, when it already lies there."""
    r = _residue(span, v)
    if r:
        pivot = next(iter(r))
        for key, row in span.items():
            if pivot in row:
                span[key] = _combine(r[pivot], row, -row[pivot], r)
        span[pivot] = r
    return bool(r)


def bracket(x, y) -> MatrixElement:
    """Commutator [X, Y] = XY - YX, exactly."""
    (a, da), (b, db) = _read_pair(x, y)
    c = _commutator(_sparse(a), _sparse(b))
    return MatrixElement(_exact(_matrix(len(a), c), da * db))


def ad_matrix(x) -> Matrix:
    """Adjoint operator ad(X) as a matrix over the fixed basis of sl(n,R), exactly."""
    a, d = _read(x)
    n, xs = len(a), _sparse(a)
    columns, indices = [], _basis_indices(n)
    for b in sl_basis(n):
        m = _commutator(xs, _sparse(b))
        diagonal = accumulate(m.get((i, i), 0) for i in range(n - 1))
        columns.append([m.get(ij, 0) for ij in indices] + list(diagonal))
    return _exact(zip(*columns), d)


@lru_cache(maxsize=None)
def _killing_terms(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(p, q, r, c, w): the element b of sl_basis(n) has entry w_b at (p, q), and b's
    coordinate reads entry (r, c) with weight w_c; w = w_b w_c.  r == p exactly when q == c."""
    # h_i = E_ii - E_i+1,i+1, whose coordinate sums the diagonal entries k <= i
    h_terms = [(p, p, k, k, w) for i in range(n - 1) for k in range(i + 1) for p, w in ((i, 1), (i + 1, -1))]
    return tuple((i, j, i, j, 1) for i, j in _basis_indices(n)) + tuple(h_terms)


def killing_form(x, y) -> float:
    """Killing form B(X,Y) = tr(ad X o ad Y) on sl(n,R), computed exactly and rounded once.

    For each b of sl_basis(n) only b's own coordinate of [X, [Y, b]] is read, in
    integers: entry (r, c) of [X, [Y, E_pq]] is (XY)_rp [q = c] - X_rp Y_qc -
    Y_rp X_qc + (YX)_qc [r = p], and r = p exactly when q = c here, so only the
    diagonals of XY and YX enter.  An argument with |tr X| above
    TAU_ALG * n * max|X_ij| is rejected.
    """
    (a, da), (b, db) = _read_pair(x, y)
    for name, m in (("X", a), ("Y", b)):
        if not _negligible(abs(sum(row[i] for i, row in enumerate(m))), chain.from_iterable(m), len(m)):
            raise LieFoliateError(f"{name} is not in sl(n,R): its trace is not zero")
    xy = [sum(map(mul, row, col)) for row, col in zip(a, zip(*b))]
    yx = [sum(map(mul, row, col)) for row, col in zip(b, zip(*a))]
    total = 0
    for p, q, r, c, w in _killing_terms(len(a)):
        t = a[r][p] * b[q][c] + b[r][p] * a[q][c]
        total += w * (xy[p] + yx[q] - t if r == p else -t)
    return _ratio(total, da * db)


def cartan_split(x) -> tuple[MatrixElement, MatrixElement]:
    """Split X into its skew-symmetric and symmetric parts (k part, p part)."""
    a, d = _read(x)
    skew = [[u - v for u, v in zip(row, col)] for row, col in zip(a, zip(*a))]
    symmetric = [[u + v for u, v in zip(row, col)] for row, col in zip(a, zip(*a))]
    return MatrixElement(_exact(skew, 2 * d), tag="k"), MatrixElement(_exact(symmetric, 2 * d), tag="p")


def metric_inner(x, y) -> float:
    """The positive-definite pairing <X,Y> = -B(X, theta Y) = 2n tr(X Y^t), exactly and rounded once."""
    (a, da), (b, db) = _read_pair(x, y)
    return _ratio(2 * len(a) * sum(sum(map(mul, u, v)) for u, v in zip(a, b)), da * db)


def restricted_root_decompose(x) -> dict[Root | None, MatrixElement]:
    """Split X into its diagonal part (key None) and root-space components: at the root
    e_i* - e_j* the single entry X[i,j] E_ij, zero components omitted; they sum to X.
    The diagonal part, an element of a, must be traceless relative to its own entries."""
    from .roots import Root

    a, d = _read(x)
    n = len(a)
    diag = {(i, i): a[i][i] for i in range(n) if a[i][i]}
    if not _negligible(abs(sum(diag.values())), diag.values(), n):
        raise LieFoliateError("matrix is not traceless")
    out = {None: MatrixElement(_exact(_matrix(n, diag), d), tag="a")} if diag else {}
    for i, j in _basis_indices(n):
        if a[i][j]:
            scaled = tuple(2 if k == i else -2 if k == j else 0 for k in range(n))
            out[Root(scaled)] = MatrixElement(_exact(_matrix(n, {(i, j): a[i][j]}), d))
    return out


def iwasawa_group(g) -> KAN:
    """Factor g in SL_n(R) as k a n, unique with a > 0: ``iwasawa.factor`` of g read as
    floats, which raises LieFoliateError for a g it does not factor."""
    return factor(_floats(g))


def random_sl(n: int, rng: random.Random | None = None) -> Matrix:
    """Random SL_n(R) sample from rng (by default random.Random(DEFAULT_SEED)): i.i.d. standard normal
    entries, the first column flipped if det < 0, scaled to det 1 as ``iwasawa.factor`` computes det."""
    if type(n) is not int or n < 1:
        raise LieFoliateError(f"size {n!r} must be an int >= 1")
    rng = random.Random(DEFAULT_SEED) if rng is None else rng
    x, det = [], 0.0
    while abs(det) <= 1e-8:  # draw again when numerically singular
        x = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
        det = _householder([list(c) for c in zip(*x)])[2]
    sign, root = math.copysign(1.0, det), abs(det) ** (1.0 / n)
    return tuple((sign * row[0] / root, *(v / root for v in row[1:])) for row in x)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of matrices given by a linearly independent basis."""

    basis: tuple[MatrixElement, ...]

    def __post_init__(self) -> None:
        try:
            basis = tuple(self.basis)  # read once, so that an iterator gives the subspace of its items
        except TypeError:  # not an iterable
            basis = None
        if basis is None or not all(isinstance(b, MatrixElement) for b in basis):
            raise LieFoliateError(f"basis {self.basis!r} is not a tuple of MatrixElements")
        object.__setattr__(self, "basis", basis)
        if len({b.size for b in basis}) > 1:
            raise LieFoliateError("basis matrices must all have the same size")
        span: dict = {}
        if not all(_extend(span, b._vector) for b in basis):
            raise LieFoliateError("basis of subspace is linearly dependent")
        object.__setattr__(self, "_span", span)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.basis[0].size if self.basis else 0


def subspace(mats, tag: str | None = None) -> Subspace:
    """The span of an iterable of matrices; LieFoliateError for anything else."""
    try:
        mats = iter(mats)
    except TypeError:
        raise LieFoliateError(f"subspace basis {mats!r} is not an iterable of matrices") from None
    return Subspace(tuple(as_element(m, tag) for m in mats))


LieTripleResult = namedtuple("LieTripleResult", "holds residual")


def _vectors(s: Subspace) -> list[dict]:
    """The sparse vectors of the basis of s; LieFoliateError when s is no Subspace."""
    if not isinstance(s, Subspace):  # roots.expect's message, without loading roots
        raise LieFoliateError(f"expected a Subspace, not a {type(s).__name__}")
    return [b._vector for b in s.basis]


def _residual(vectors: list[dict], size: int, m: dict, factors) -> float:
    """Metric norm outside the span of the n x n vectors (n = size) of M, a bracket of
    the vectors at factors, scaled to unit norm; 0.0 exactly when M lies in that span.
    Its square is exact: ||M||^2 less the projections on an orthogonal basis of the
    span, integer Gram-Schmidt of the vectors, over the factors' squared norms."""
    ortho = []
    for v in vectors:
        for q, qq in ortho:
            v = _combine(qq, v, -_dot(v, q), q)
        if v:
            ortho.append((v, _dot(v, v)))
    two_n = 2 * size  # the metric is 2n times the pairing sum X_ij Y_ij
    outside = _dot(m, m) - sum(Fraction(_dot(m, q) ** 2, qq) for q, qq in ortho)
    return math.sqrt(two_n * outside / math.prod(two_n * _dot(vectors[f], vectors[f]) for f in factors))


def is_lie_triple(s: Subspace) -> LieTripleResult:
    """Test [[S,S],S] inside span(S) for a subspace S of symmetric matrices, exactly, in one
    walk over the pairs i < j: each [B_i,B_j] that extends the span of the brackets before
    it is bracketed at once with B_0, B_1, ..., and the first [[B_i,B_j],B_k] outside
    span(S) ends the test.  A pair whose bracket does not extend that span is a
    combination of earlier brackets that all passed, so it passes too; the walk therefore
    stops at the lexicographically first failing (i, j, k).  The residual is that double
    bracket's metric norm outside span(S), the basis scaled to unit norm: 0.0 exactly
    when the test holds.  Each basis element must be symmetric to within
    TAU_ALG * n * max|entry|; one symmetric only within it is replaced by X + X^t, twice
    its exact symmetric part, before the test."""
    vectors, span = _vectors(s), s._span
    for k, v in enumerate(vectors):
        skew = max(abs(x - v.get((j, i), 0)) for (i, j), x in v.items())
        if not _negligible(skew, v.values(), s.size):
            raise LieFoliateError("Lie-triple test requires symmetric basis elements")
        if skew:
            vectors[k], span = _combine(1, v, 1, {(j, i): x for (i, j), x in v.items()}), {}
    if not span:  # some element was replaced: the span of the symmetric parts
        for v in vectors:
            _extend(span, v)
    derived: dict = {}
    for i, j in combinations(range(s.dim), 2):
        c = _commutator(vectors[i], vectors[j])
        if _extend(derived, c):
            for k, v in enumerate(vectors):
                if _residue(span, m := _commutator(c, v)):
                    return LieTripleResult(False, _residual(vectors, s.size, m, (i, j, k)))
    return LieTripleResult(True, 0.0)


def bracket_closure_residual(s: Subspace) -> float:
    """Metric-norm residual outside span(S) of the first [B_i,B_j], i < j in
    lexicographic order, that leaves it, the basis scaled to unit norm, exactly: 0.0
    when S is closed under the bracket."""
    vectors = _vectors(s)
    for i, j in combinations(range(s.dim), 2):
        if _residue(s._span, m := _commutator(vectors[i], vectors[j])):
            return _residual(vectors, s.size, m, (i, j))
    return 0.0


def _check_sl_space(space: SpaceDescriptor) -> int:
    from .roots import Family

    if space.family is not Family.A or any(space.m_alpha(i) != 1 for i in range(1, space.rank + 1)):
        raise LieFoliateError("the matrix model applies to the split A-family entry sl(n,R) only")
    return space.rank


def _parabolic():
    """``parabolic``, which decides what a Phi and a dim V are, imported on first use."""
    from . import parabolic

    return parabolic


def phi_blocks(r: int, phi) -> list[tuple[int, ...]]:
    """Partition of {1,...,r+1} into runs joined by the chosen simple roots."""
    indices = set(_parabolic().phi_indices(r, phi))
    blocks: list[list[int]] = [[1]]
    for pos in range(2, r + 2):
        blocks[-1].append(pos) if pos - 1 in indices else blocks.append([pos])
    return [tuple(b) for b in blocks]


def q_phi_block_dimension(r: int, phi) -> int:
    """Entry count of the block upper triangular traceless matrices for Phi."""
    return ((r + 1) ** 2 + sum(len(b) ** 2 for b in phi_blocks(r, phi))) // 2 - 1


def _upper_units(n: int, skip, tag: str | None) -> list[MatrixElement]:
    """The E_ij with i < j (0-based), row-major, but for the (i, j) in skip: the
    basis of n_Phi when skip holds the pairs inside one block of Phi."""
    return [_element(n, tag, (i, j, 1)) for i, j in combinations(range(n), 2) if (i, j) not in skip]


def a_phi_subspace(r: int, phi) -> Subspace:
    """The kernel of all chosen simple roots inside a: block-constant diagonals."""
    blocks = phi_blocks(r, phi)
    mats = []
    for left, right in zip(blocks, blocks[1:]):
        diag = {(pos - 1, pos - 1): len(right) for pos in left}
        diag.update({(pos - 1, pos - 1): -len(left) for pos in right})
        mats.append(_matrix(r + 1, diag))
    return subspace(mats, tag="a")


def _same_block_pairs(r: int, phi) -> list[tuple[int, int]]:
    return sorted((i - 1, j - 1) for block in phi_blocks(r, phi) for i, j in combinations(block, 2))


def p_phi_subspace(r: int, phi) -> Subspace:
    """Lie triple system a + sum of p_lambda over the subsystem of Phi."""
    pairs = _same_block_pairs(r, phi)
    mats = [_h(r + 1, i, "p") for i in range(r)] + [_element(r + 1, "p", (i, j, 1), (j, i, 1)) for i, j in pairs]
    return Subspace(tuple(mats))


def p_phi_s_subspace(r: int, phi) -> Subspace:
    """Semisimple part: a^Phi + sum of p_lambda over the subsystem of Phi."""
    mats = [_h(r + 1, i - 1, "p") for i in _parabolic().phi_indices(r, phi)]
    mats.extend(_element(r + 1, "p", (i, j, 1), (j, i, 1)) for i, j in _same_block_pairs(r, phi))
    return Subspace(tuple(mats))


def n_phi_subspace(r: int, phi) -> Subspace:
    same = set(_same_block_pairs(r, phi))  # checks r first
    return Subspace(tuple(_upper_units(r + 1, same, "n")))


def q_phi_subspace(r: int, phi) -> Subspace:
    """Block upper triangular realization of the parabolic subalgebra."""
    same = set(_same_block_pairs(r, phi))
    mats = [_h(r + 1, i, None) for i in range(r)]
    for i, j in combinations(range(r + 1), 2):
        mats += [_element(r + 1, None, (i, j, 1))] + [_element(r + 1, None, (j, i, 1))] * ((i, j) in same)
    return Subspace(tuple(mats))


def build_s_phi_v(space: SpaceDescriptor, phi, dim_v: int) -> Subspace:
    """Basis of the foliation subalgebra (a^Phi + V + n) with one line removed from each
    root space g_alpha, alpha in Phi, as ``PhiSubset.check_foliation`` admits them.  V is
    the first dim_v vectors of the canonical basis of a_Phi.  In sl(n,R) each g_alpha
    is a line, so the removed line is g_alpha itself, and for an orthogonal Phi, whose
    blocks are the pairs (i, i+1) for i in Phi, n less these lines is n_Phi: the basis
    is the h_i for i in Phi, then V, then the units of ``n_phi_subspace``."""
    subset = _parabolic().phi_subset(space, phi)  # which checks that space is a SpaceDescriptor
    r = _check_sl_space(space)
    subset.check_foliation(dim_v)
    indices = subset.indices
    mats = [_h(r + 1, i - 1, None) for i in indices]
    mats.extend(a_phi_subspace(r, indices).basis[:dim_v])
    mats.extend(_upper_units(r + 1, {(i - 1, i) for i in indices}, None))
    return Subspace(tuple(mats))


# --- the SL_2 action on the upper half plane ---------------------------------


def k_factor(s: float) -> Matrix:
    """Rotation factor of the Iwasawa decomposition of SL_2(R)."""
    return ((math.cos(s), math.sin(s)), (-math.sin(s), math.cos(s)))


def a_factor(t: float) -> Matrix:
    """Diagonal factor diag(e^t, e^-t)."""
    return ((math.exp(t), 0.0), (0.0, math.exp(-t)))


def n_factor(u: float) -> Matrix:
    """Unipotent factor with upper entry u."""
    return ((1.0, u), (0.0, 1.0))


def _point(z) -> complex:
    """z, a number (not a string or a bool) in the upper half plane, as a complex."""
    if isinstance(z, bool) or not isinstance(z, Number):
        raise LieFoliateError(f"the point {z!r} is not a number")
    z = complex(z)
    if not (z.imag > 0 and math.isfinite(z.real) and math.isfinite(z.imag)):
        raise LieFoliateError("the point must lie in the upper half plane")
    return z


def _act(g, z: complex) -> complex:
    """(az+b)/(cz+d) for g = ((a, b), (c, d)); LieFoliateError unless it is finite."""
    (a, b), (c, d) = g
    w = (a * z + b) / den if (den := c * z + d) else complex(math.inf)  # den is 0 by underflow only
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):  # a float overflowed
        raise LieFoliateError(f"the image {w!r} of the point {z!r} is not finite")
    return w


def moebius(g, z: complex) -> complex:
    """Action z -> (az+b)/(cz+d) of g in SL_2(R), accepted exactly when ``iwasawa.factor`` factors
    it, on a number z (not a string or a bool) in the upper half plane, to a finite image."""
    z = _point(z)
    m = _floats(g)
    if len(m) != 2:
        raise LieFoliateError("moebius needs a 2x2 matrix")
    factor(m)
    return _act(m, z)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num values from start to stop, both included, as ``numpy.linspace`` spaces them."""
    if type(num) is not int or num < 0:
        raise LieFoliateError(f"count {num!r} must be an int >= 0")
    step = (stop - start) / max(num - 1, 1)
    return [i * step + start for i in range(num - 1)] + [stop if num > 1 else start] * (num > 0)


def halfplane_orbit(kind: str, samples: int, base: complex = 1j) -> list[complex]:
    """Sample points, at most MAX_ORBIT_SAMPLES, on a K, A or N orbit through the base point:
    K sweeps the angle over [0, 2*pi), A the diagonal and N the translation parameter over [-3, 3]."""
    if type(samples) is not int or samples < 1:
        raise LieFoliateError(f"samples {samples!r} must be an int >= 1")
    if samples > MAX_ORBIT_SAMPLES:
        raise LieFoliateError(f"samples {samples} is above the ceiling MAX_ORBIT_SAMPLES = {MAX_ORBIT_SAMPLES}")
    kind = kind.upper() if isinstance(kind, str) else None
    if kind == "K":
        mats = [k_factor(2.0 * math.pi * i / samples) for i in range(samples)]
    elif kind in ("A", "N"):
        mats = list(map(a_factor if kind == "A" else n_factor, linspace(-3.0, 3.0, samples)))
    else:
        raise LieFoliateError("orbit kind must be one of K, A, N")
    base = _point(base)  # checked once: the k, a and n matrices are in SL_2(R) by construction
    return [_act(m, base) for m in mats]
