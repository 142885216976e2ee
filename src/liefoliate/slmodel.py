"""Concrete matrix model: sl(n,R) with n = r+1 and M = SL_n(R)/SO_n.

Provides the bracket, the Killing form computed from adjoint matrices over a
fixed basis, the Cartan splitting into skew and symmetric parts, the
restricted root space decomposition, group-level Iwasawa factorization
g = k a n, Lie-triple-system testing, the foliation subalgebras built from an
orthogonal subset Phi and a Euclidean direction count, and the SL_2 action on
the upper half plane.  Every root space is a line here, so no construction
chooses inside one; random samples use the fixed seed DEFAULT_SEED = 1729.

The group factorization and its determinant rule live in ``iwasawa``, which
does not import numpy: ``iwasawa_group`` wraps the factors of
``iwasawa.factor`` as read-only arrays, and ``moebius`` applies ``iwasawa.check_det_one``.

Each caller checks once: every matrix argument is read once per call by
``_read``, a float ndarray in numpy (square, nonempty, finite) and anything
else by ``iwasawa.square_matrix``, the CLI's rule, whose messages it gets.

Phi and dim V are read and checked as everywhere else, by ``parabolic``:
the rank-r builders take Phi in any order through ``phi_indices``, and
``build_s_phi_v`` needs an orthogonal Phi and an int dim V in 0..r - r_Phi
(``PhiSubset.check_foliation``).  ``parabolic`` is imported on first use,
so the other matrix functions do not load it.

Two tolerances are used: TAU_ALG (1e-12) here, for identities that are exact
in principle and only pick up rounding error on small integer bases, and
``iwasawa.TAU_NUM`` (1e-10) for factorization round trips on random
matrices, where conditioning error accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Number
from typing import TYPE_CHECKING

import numpy as np

from .errors import LieFoliateError
from .iwasawa import check_det_one, factor, square_matrix

if TYPE_CHECKING:
    from .catalog import SpaceDescriptor
    from .roots import Root

TAU_ALG = 1e-12

DEFAULT_SEED = 1729

VALID_TAGS = ("k", "p", "a", "n")


def default_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


def _read(x) -> np.ndarray | list[list[float]]:
    """Matrix x (or a MatrixElement's entries) read once: a float ndarray that
    is square, nonempty and finite as it is, anything else by ``square_matrix``,
    which raises the CLI's message for what it refuses."""
    x = getattr(x, "entries", x)
    if isinstance(x, np.ndarray):
        if x.dtype == float and x.ndim == 2 and x.shape[0] == x.shape[1] and x.size and np.isfinite(x).all():
            return x
        x = x.tolist()
    return square_matrix(x)


def _as_array(x) -> np.ndarray:
    return np.asarray(_read(x))


def _as_rows(x) -> list[list[float]]:
    m = _read(x)
    return m if isinstance(m, list) else m.tolist()


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a, b = _as_array(x), _as_array(y)
    if a.shape != b.shape:
        raise LieFoliateError(f"size mismatch: {a.shape} vs {b.shape}")
    return a, b


def _tolerance(a: np.ndarray) -> float:
    """TAU_ALG * n * max|A_ij|: a tolerance that scales with A."""
    return TAU_ALG * a.shape[0] * np.abs(a).max()


def _is_traceless(a: np.ndarray) -> bool:
    return abs(np.trace(a)) <= _tolerance(a)


@dataclass(frozen=True, eq=False)
class MatrixElement:
    """A traceless real matrix, optionally tagged with a membership claim.

    Tags assert a shape: k is skew-symmetric, p symmetric, a diagonal, n
    strictly upper triangular.  Entries are frozen after construction.
    """

    entries: np.ndarray
    tag: str | None = None

    def __post_init__(self) -> None:
        a = np.array(_read(self.entries))  # a copy, frozen below
        if not _is_traceless(a):
            raise LieFoliateError("matrix is not traceless")
        if self.tag is not None:
            if self.tag not in VALID_TAGS:
                raise LieFoliateError(f"unknown tag {self.tag!r}; valid tags: {VALID_TAGS}")
            tol = _tolerance(a)
            if self.tag == "k" and np.abs(a + a.T).max() > tol:
                raise LieFoliateError("tag k requires a skew-symmetric matrix")
            if self.tag == "p" and np.abs(a - a.T).max() > tol:
                raise LieFoliateError("tag p requires a symmetric matrix")
            if self.tag == "a" and np.abs(a - np.diag(np.diag(a))).max() > tol:
                raise LieFoliateError("tag a requires a diagonal matrix")
            if self.tag == "n" and np.abs(np.tril(a)).max() > tol:
                raise LieFoliateError("tag n requires a strictly upper triangular matrix")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        tag = f", tag={self.tag!r}" if self.tag else ""
        return f"MatrixElement({self.entries.tolist()}{tag})"


def as_element(x, tag: str | None = None) -> MatrixElement:
    if isinstance(x, MatrixElement) and (tag is None or tag == x.tag):
        return x
    return MatrixElement(x, tag)


def e_matrix(n: int, i: int, j: int) -> np.ndarray:
    """Matrix unit E_ij (0-based indices)."""
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def h_matrix(n: int, i: int) -> np.ndarray:
    """Diagonal basis element E_ii - E_{i+1,i+1} (0-based index, i < n-1)."""
    m = np.zeros((n, n))
    m[i, i] = 1.0
    m[i + 1, i + 1] = -1.0
    return m


@lru_cache(maxsize=None)
def _basis_indices(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


@lru_cache(maxsize=None)
def sl_basis(n: int) -> tuple[np.ndarray, ...]:
    """Fixed ordered basis of sl(n,R): E_ij (i != j, row-major), then the h_i.

    The order is part of the contract; adjoint matrices and all coordinates
    refer to it.
    """
    mats = [e_matrix(n, i, j) for i, j in _basis_indices(n)]
    mats.extend(h_matrix(n, i) for i in range(n - 1))
    for m in mats:
        m.flags.writeable = False
    return tuple(mats)


def _coords_stack(stack: np.ndarray) -> np.ndarray:
    # Coordinates over sl_basis(n) of a stack of traceless matrices (k, n, n) -> (k, n*n-1).
    k, n, _ = stack.shape
    idx = _basis_indices(n)
    off = stack[:, [i for i, _ in idx], [j for _, j in idx]]
    diag = np.cumsum(stack[:, range(n), range(n)], axis=1)[:, : n - 1]
    return np.concatenate([off, diag], axis=1)


def bracket(x, y) -> MatrixElement:
    """Commutator [X, Y] = XY - YX.

    A commutator is traceless, so the trace it picks up in rounding is
    removed from its diagonal: for commuting X and Y the computed result is
    rounding error alone, whose trace is not small next to its own entries.
    """
    a, b = _as_pair(x, y)
    c = a @ b - b @ a
    c[np.diag_indices_from(c)] -= np.trace(c) / c.shape[0]
    return MatrixElement(c)


def ad_matrix(x) -> np.ndarray:
    """Adjoint operator ad(X) as a matrix over the fixed basis of sl(n,R)."""
    return _ad(_as_array(x))


def _ad(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    stack = np.stack(sl_basis(n))
    brackets = a @ stack - stack @ a
    return _coords_stack(brackets).T


def killing_form(x, y) -> float:
    """Killing form B(X,Y) = tr(ad X o ad Y) on sl(n,R), computed from adjoint matrices.

    Both arguments must lie in sl(n,R): a matrix with |tr X| above
    TAU_ALG * n * max|X_ij| is rejected, a tolerance that scales with X.
    """
    a, b = _as_pair(x, y)
    for name, m in (("X", a), ("Y", b)):
        if not _is_traceless(m):
            raise LieFoliateError(f"{name} is not in sl(n,R): its trace is not zero")
    return float(np.trace(_ad(a) @ _ad(b)))


def cartan_involution(x) -> MatrixElement:
    """theta(X) = -X^t."""
    return MatrixElement(-_as_array(x).T)


def cartan_split(x) -> tuple[MatrixElement, MatrixElement]:
    """Split X into its skew-symmetric and symmetric parts (k part, p part)."""
    a = _as_array(x)
    return (
        MatrixElement((a - a.T) / 2.0, tag="k"),
        MatrixElement((a + a.T) / 2.0, tag="p"),
    )


def metric_inner(x, y) -> float:
    """The positive-definite pairing <X,Y> = -B(X, theta Y) = 2n tr(X Y^t)."""
    a, b = _as_pair(x, y)
    n = a.shape[0]
    return 2.0 * n * float(np.sum(a * b))


def restricted_root_decompose(x) -> dict[Root | None, MatrixElement]:
    """Split X into its diagonal part (key None) and root-space components.

    The component at the root e_i* - e_j* is the single entry X[i,j] E_ij;
    zero components are omitted.  Summing all values reassembles X exactly.
    The trace is tested on the diagonal part, which is returned as an element
    of a and so must be traceless relative to its own entries; that test
    implies the one relative to X.
    """
    from .roots import Root

    a = _as_array(x)
    n = a.shape[0]
    diag = np.diag(np.diag(a))
    if not _is_traceless(diag):
        raise LieFoliateError("matrix is not traceless")
    out: dict[Root | None, MatrixElement] = {}
    if np.any(np.diag(a) != 0.0):
        out[None] = MatrixElement(diag, tag="a")
    for i, j in _basis_indices(n):
        if a[i, j] != 0.0:
            scaled = tuple(2 if k == i else -2 if k == j else 0 for k in range(n))
            out[Root(scaled)] = MatrixElement(a[i, j] * e_matrix(n, i, j))
    return out


@dataclass(frozen=True, eq=False)
class IwasawaFactors:
    """Factors of g = k a n: k special orthogonal, a positive diagonal with
    determinant one, n unit upper triangular."""

    k: np.ndarray
    a: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        for m in (self.k, self.a, self.n):
            m.flags.writeable = False

    def reassemble(self) -> np.ndarray:
        return self.k @ self.a @ self.n


def iwasawa_group(g) -> IwasawaFactors:
    """Factor g in SL_n(R) as k a n: ``iwasawa.factor``, the factors as read-only arrays.

    A Householder QR factorization with the signs normalized so that a has a
    strictly positive diagonal, which makes the factors unique.  Rejects
    matrices whose determinant is not 1 (within TAU_NUM times the Hadamard
    bound), numerically dependent column sets, and a failed round trip.
    g is read once, into the rows of floats that ``factor`` takes.
    """
    f = factor(_as_rows(g))
    return IwasawaFactors(k=np.array(f.k), a=np.array(f.a), n=np.array(f.n))


def random_sl(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Random SL_n(R) sample: i.i.d. standard normal entries scaled to det 1.

    A negative determinant is fixed by flipping the first column before
    scaling, so the result is deterministic given the generator state.
    """
    if type(n) is not int or n < 1:
        raise LieFoliateError(f"size {n!r} must be an int >= 1")
    rng = default_rng() if rng is None else rng
    while True:
        x = rng.standard_normal((n, n))
        det = float(np.linalg.det(x))
        if abs(det) > 1e-8:
            break
    if det < 0:
        x[:, 0] = -x[:, 0]
        det = -det
    return x / det ** (1.0 / n)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of matrices given by a linearly independent basis."""

    basis: tuple[MatrixElement, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len({b.size for b in self.basis}) > 1:
            raise LieFoliateError("basis matrices must all have the same size")
        if self.basis:
            flat = np.stack([b.entries.ravel() for b in self.basis])
            if np.linalg.matrix_rank(flat) != len(self.basis):
                raise LieFoliateError(f"basis of {self.label or 'subspace'} is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.basis[0].size if self.basis else 0


def subspace(mats, label: str = "", tag: str | None = None) -> Subspace:
    """The span of an iterable of matrices; LieFoliateError for anything else."""
    try:
        mats = iter(mats)
    except TypeError:
        raise LieFoliateError(f"subspace basis {mats!r} is not an iterable of matrices") from None
    return Subspace(tuple(as_element(m, tag) for m in mats), label)


@dataclass(frozen=True)
class LieTripleResult:
    holds: bool
    residual: float


def _basis_brackets(s: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The basis of S stacked (k, n, n), each element scaled to unit metric norm
    so that no residual depends on the scale of the given basis, and the
    brackets [B_i, B_j] of its pairs (k, k, n, n)."""
    stack = np.stack([b.entries for b in s.basis])
    stack = stack / np.abs(stack).max(axis=(1, 2), keepdims=True)  # no under- or overflow below
    stack = stack / np.sqrt(2.0 * s.size * np.sum(stack * stack, axis=(1, 2), keepdims=True))
    pair = np.einsum("iab,jbc->ijac", stack, stack) - np.einsum("jab,ibc->ijac", stack, stack)
    return stack, pair


def _residual_outside_span(s: Subspace, mats: np.ndarray) -> float:
    """Largest metric norm, over the matrices of the stack mats, of their part outside span(S)."""
    n = s.size
    flat = mats.reshape(-1, n * n)
    span = np.stack([b.entries.ravel() for b in s.basis], axis=1)
    q, _ = np.linalg.qr(span)
    resid = flat - (flat @ q) @ q.T
    norms = np.sqrt(np.maximum(np.sum(resid * resid, axis=1), 0.0) * 2.0 * n)
    return float(norms.max())


def is_lie_triple(s: Subspace) -> LieTripleResult:
    """Test [[S,S],S] inside span(S) for a subspace S of symmetric matrices.

    For every triple of basis elements the double bracket is projected onto
    the orthogonal complement of span(S) under the pairing -B(., theta .);
    the subspace is a Lie triple system when the largest residual norm, for
    the basis scaled to unit norm, stays below TAU_ALG.  Each basis element
    must be symmetric to within TAU_ALG * n * max|entry|.
    """
    for b in s.basis:
        if np.abs(b.entries - b.entries.T).max() > _tolerance(b.entries):
            raise LieFoliateError("Lie-triple test requires symmetric basis elements")
    if s.dim == 0:
        return LieTripleResult(True, 0.0)
    stack, pair = _basis_brackets(s)
    triple = np.einsum("ijab,kbc->ijkac", pair, stack) - np.einsum("kab,ijbc->ijkac", stack, pair)
    residual = _residual_outside_span(s, triple)
    return LieTripleResult(residual <= TAU_ALG, residual)


def bracket_closure_residual(s: Subspace) -> float:
    """Largest metric-norm residual of [X,Y] outside span(S) over pairs of the
    basis scaled to unit norm."""
    if s.dim == 0:
        return 0.0
    return _residual_outside_span(s, _basis_brackets(s)[1])


def _check_sl_space(space: SpaceDescriptor) -> int:
    from .roots import Family

    if space.family is not Family.A or any(
        space.m_alpha(i) != 1 for i in range(1, space.rank + 1)
    ):
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
        if (pos - 1) in indices:
            blocks[-1].append(pos)
        else:
            blocks.append([pos])
    return [tuple(b) for b in blocks]


def q_phi_block_dimension(r: int, phi) -> int:
    """Entry count of the block upper triangular traceless matrices for Phi."""
    sizes = [len(b) for b in phi_blocks(r, phi)]
    n = r + 1
    return (n * n + sum(s * s for s in sizes)) // 2 - 1


def a_subspace(r: int) -> Subspace:
    _parabolic().phi_indices(r, ())
    n = r + 1
    return subspace([h_matrix(n, i) for i in range(r)], label="a", tag="a")


def _upper_units(n: int, skip=frozenset()) -> list[np.ndarray]:
    """The E_ij with i < j, row-major, but for the (i, j) in skip (0-based)."""
    return [e_matrix(n, i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in skip]


def n_subspace(r: int) -> Subspace:
    _parabolic().phi_indices(r, ())
    return subspace(_upper_units(r + 1), label="n", tag="n")


def a_phi_subspace(r: int, phi) -> Subspace:
    """The kernel of all chosen simple roots inside a: block-constant diagonals."""
    blocks = phi_blocks(r, phi)
    n = r + 1
    mats = []
    for t in range(len(blocks) - 1):
        d = np.zeros(n)
        for pos in blocks[t]:
            d[pos - 1] = len(blocks[t + 1])
        for pos in blocks[t + 1]:
            d[pos - 1] = -len(blocks[t])
        mats.append(np.diag(d))
    return subspace(mats, label="a_Phi", tag="a")


def _same_block_pairs(r: int, phi) -> list[tuple[int, int]]:
    pairs = []
    for block in phi_blocks(r, phi):
        for ii in range(len(block)):
            for jj in range(ii + 1, len(block)):
                pairs.append((block[ii] - 1, block[jj] - 1))
    return sorted(pairs)


def p_phi_subspace(r: int, phi) -> Subspace:
    """Lie triple system a + sum of p_lambda over the subsystem of Phi."""
    pairs = _same_block_pairs(r, phi)
    n = r + 1
    mats = [h_matrix(n, i) for i in range(r)]
    mats.extend(e_matrix(n, i, j) + e_matrix(n, j, i) for i, j in pairs)
    return subspace(mats, label="p_Phi", tag="p")


def p_phi_s_subspace(r: int, phi) -> Subspace:
    """Semisimple part: a^Phi + sum of p_lambda over the subsystem of Phi."""
    indices = _parabolic().phi_indices(r, phi)
    n = r + 1
    mats = [h_matrix(n, i - 1) for i in indices]
    mats.extend(e_matrix(n, i, j) + e_matrix(n, j, i) for i, j in _same_block_pairs(r, phi))
    return subspace(mats, label="p_Phi^s", tag="p")


def n_phi_subspace(r: int, phi) -> Subspace:
    same = set(_same_block_pairs(r, phi))  # checks r first
    return subspace(_upper_units(r + 1, same), label="n_Phi", tag="n")


def q_phi_subspace(r: int, phi) -> Subspace:
    """Block upper triangular realization of the parabolic subalgebra."""
    same = set(_same_block_pairs(r, phi))
    n = r + 1
    mats = [h_matrix(n, i) for i in range(r)]
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(e_matrix(n, i, j))
            if (i, j) in same:
                mats.append(e_matrix(n, j, i))
    return subspace(mats, label="q_Phi")


def build_s_phi_v(space: SpaceDescriptor, phi, dim_v: int) -> Subspace:
    """Basis of the foliation subalgebra (a^Phi + V + n) with one line removed
    from each root space g_alpha, alpha in Phi.

    Phi must be orthogonal and dim_v an int in 0..r - |Phi|, as
    ``PhiSubset.check_foliation`` checks.  V is realized as the first dim_v
    vectors of the canonical basis of a_Phi.  In the split space sl(n,R) each
    g_alpha is one-dimensional, so the removed line is g_alpha itself.
    """
    r = _check_sl_space(space)
    subset = _parabolic().phi_subset(space, phi)
    subset.check_foliation(dim_v)
    indices = subset.indices
    n = r + 1
    mats = [h_matrix(n, i - 1) for i in indices]
    v_basis = a_phi_subspace(r, indices).basis
    mats.extend(b.entries for b in v_basis[:dim_v])
    mats.extend(_upper_units(n, {(i - 1, i) for i in indices}))
    label = f"s(Phi={{{','.join(map(str, indices))}}}, dim_V={dim_v})"
    return Subspace(tuple(as_element(m) for m in mats), label)


# --- the SL_2 action on the upper half plane ---------------------------------


def k_factor(s: float) -> np.ndarray:
    """Rotation factor of the Iwasawa decomposition of SL_2(R)."""
    return np.array([[math.cos(s), math.sin(s)], [-math.sin(s), math.cos(s)]])


def a_factor(t: float) -> np.ndarray:
    """Diagonal factor diag(e^t, e^-t)."""
    return np.array([[math.exp(t), 0.0], [0.0, math.exp(-t)]])


def n_factor(u: float) -> np.ndarray:
    """Unipotent factor with upper entry u."""
    return np.array([[1.0, u], [0.0, 1.0]])


def moebius(g, z: complex) -> complex:
    """Action of g in SL_2(R) on the upper half plane: z -> (az+b)/(cz+d).

    z must be a number (not a string or a bool) in the upper half plane.
    """
    if isinstance(z, bool) or not isinstance(z, Number):
        raise LieFoliateError(f"the point {z!r} is not a number")
    m = _as_rows(g)
    if len(m) != 2:
        raise LieFoliateError("moebius needs a 2x2 matrix")
    (a, b), (c, d) = m
    check_det_one(a * d - b * c, math.hypot(a, c) * math.hypot(b, d))
    z = complex(z)
    if not (z.imag > 0 and math.isfinite(z.real) and math.isfinite(z.imag)):
        raise LieFoliateError("the point must lie in the upper half plane")
    return (a * z + b) / (c * z + d)


def halfplane_orbit(kind: str, samples: int, base: complex = 1j) -> list[complex]:
    """Sample points on a K, A or N orbit through the base point.

    K sweeps the rotation angle over [0, 2*pi), A the diagonal parameter over
    [-3, 3], and N the translation parameter over [-3, 3].
    """
    if type(samples) is not int or samples < 1:
        raise LieFoliateError(f"samples {samples!r} must be an int >= 1")
    kind = kind.upper() if isinstance(kind, str) else None
    if kind == "K":
        mats = [k_factor(2.0 * math.pi * i / samples) for i in range(samples)]
    elif kind in ("A", "N"):
        mats = list(map(a_factor if kind == "A" else n_factor, np.linspace(-3.0, 3.0, samples)))
    else:
        raise LieFoliateError("orbit kind must be one of K, A, N")
    return [moebius(m, base) for m in mats]
