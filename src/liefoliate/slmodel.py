"""Concrete matrix model: sl(n,R) with n = r+1 and M = SL_n(R)/SO_n.

Provides the bracket, the Killing form computed from adjoint matrices over a
fixed basis, the Cartan splitting into skew and symmetric parts, the
restricted root space decomposition, group-level Iwasawa factorization
g = k a n, Lie-triple-system testing, the foliation subalgebras built from an
orthogonal subset Phi and a Euclidean direction count, and the SL_2 action on
the upper half plane.

Two tolerances are used throughout: TAU_ALG (1e-12) for identities that are
exact in principle and only pick up rounding error on small integer bases,
and TAU_NUM (1e-10) for factorization round trips on random matrices, where
conditioning error accumulates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import LieFoliateError

if TYPE_CHECKING:
    from .catalog import SpaceDescriptor
    from .roots import Root

TAU_ALG = 1e-12
TAU_NUM = 1e-10

DEFAULT_SEED = 1729

VALID_TAGS = ("g", "k", "p", "a", "n", "q_phi", "s_phi_v")


def sampling_seed() -> int:
    """Default RNG seed; the LIEFOLIATE_SEED environment variable overrides it."""
    raw = os.environ.get("LIEFOLIATE_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise LieFoliateError(f"LIEFOLIATE_SEED must be an integer, got {raw!r}")


def default_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(sampling_seed() if seed is None else seed)


def _as_array(x, *, square: bool = True) -> np.ndarray:
    a = np.array(getattr(x, "entries", x), dtype=float)
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        raise LieFoliateError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise LieFoliateError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise LieFoliateError("matrix entries must be finite")
    return a


def _is_traceless(a: np.ndarray) -> bool:
    """|tr A| <= TAU_ALG * n * max|A_ij|: a tolerance that scales with A."""
    return abs(np.trace(a)) <= TAU_ALG * a.shape[0] * np.abs(a).max()


@dataclass(frozen=True, eq=False)
class MatrixElement:
    """A traceless real matrix, optionally tagged with a membership claim.

    Tags assert a shape: k is skew-symmetric, p symmetric, a diagonal, n
    strictly upper triangular.  Entries are frozen after construction.
    """

    entries: np.ndarray
    tag: str | None = None

    def __post_init__(self) -> None:
        a = _as_array(self.entries)
        if not _is_traceless(a):
            raise LieFoliateError("matrix is not traceless")
        if self.tag is not None:
            if self.tag not in VALID_TAGS:
                raise LieFoliateError(f"unknown tag {self.tag!r}; valid tags: {VALID_TAGS}")
            tol = TAU_ALG * max(1.0, float(np.abs(a).max()))
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
    return MatrixElement(_as_array(x), tag)


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


def basis_coords(x) -> np.ndarray:
    """Coordinates of a traceless matrix over sl_basis(n)."""
    a = _as_array(x)
    n = a.shape[0]
    off = np.array([a[i, j] for i, j in _basis_indices(n)])
    diag = np.cumsum(np.diag(a))[: n - 1]
    return np.concatenate([off, diag])


def _coords_stack(stack: np.ndarray) -> np.ndarray:
    # Vectorized basis_coords for a stack of matrices (k, n, n) -> (k, n*n-1).
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
    a, b = _as_array(x), _as_array(y)
    if a.shape != b.shape:
        raise LieFoliateError(f"size mismatch: {a.shape} vs {b.shape}")
    c = a @ b - b @ a
    c[np.diag_indices_from(c)] -= np.trace(c) / c.shape[0]
    return MatrixElement(c)


def ad_matrix(x) -> np.ndarray:
    """Adjoint operator ad(X) as a matrix over the fixed basis of sl(n,R)."""
    a = _as_array(x)
    n = a.shape[0]
    stack = np.stack(sl_basis(n))
    brackets = a @ stack - stack @ a
    return _coords_stack(brackets).T


def killing_form(x, y) -> float:
    """Killing form B(X,Y) = tr(ad X o ad Y) on sl(n,R), computed from adjoint matrices.

    Both arguments must lie in sl(n,R): a matrix with |tr X| above
    TAU_ALG * n * max|X_ij| is rejected, a tolerance that scales with X.
    """
    a, b = _as_array(x), _as_array(y)
    if a.shape != b.shape:
        raise LieFoliateError(f"size mismatch: {a.shape} vs {b.shape}")
    for name, m in (("X", a), ("Y", b)):
        if not _is_traceless(m):
            raise LieFoliateError(f"{name} is not in sl(n,R): its trace is not zero")
    return float(np.trace(ad_matrix(a) @ ad_matrix(b)))


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
    a, b = _as_array(x), _as_array(y)
    n = a.shape[0]
    return 2.0 * n * float(np.sum(a * b))


def metric_norm(x) -> float:
    return math.sqrt(max(metric_inner(x, x), 0.0))


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
    for i in range(n):
        for j in range(n):
            if i != j and a[i, j] != 0.0:
                scaled = [0] * n
                scaled[i] = 2
                scaled[j] = -2
                out[Root(tuple(scaled))] = MatrixElement(a[i, j] * e_matrix(n, i, j))
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


def _require_det_one(a: np.ndarray) -> None:
    """Reject a matrix whose determinant is not 1 within TAU_NUM.

    The tolerance is relative to the Hadamard bound prod_j ||a e_j|| >= |det a|,
    which scales with the columns as the determinant does.  A power of the
    largest entry does not: max|a|^n let diag(1e3, 1e3, 1e3, 1e-3, 1e-3, 2e-3),
    of determinant 2, through.
    """
    det = float(np.linalg.det(a))
    hadamard = float(np.prod(np.linalg.norm(a, axis=0)))
    if not math.isfinite(det) or abs(det - 1.0) > TAU_NUM * hadamard:
        raise LieFoliateError(f"matrix must have determinant 1, got {det}")


def iwasawa_group(g) -> IwasawaFactors:
    """Factor g in SL_n(R) as k a n by orthonormalizing the columns of g.

    Uses a Householder QR factorization with the signs normalized so that a
    has a strictly positive diagonal, which makes the factors unique.
    Rejects matrices whose determinant is not 1 (within TAU_NUM) and
    numerically singular column sets.
    """
    a = _as_array(g)
    _require_det_one(a)
    q, r = np.linalg.qr(a)
    diag = np.diag(r).copy()
    if np.any(np.abs(diag) < 1e-13 * max(1.0, np.abs(a).max())):
        raise LieFoliateError("columns are numerically dependent; cannot factor")
    signs = np.sign(diag)
    q = q * signs
    r = r * signs[:, None]
    diag = np.diag(r).copy()
    n_mat = np.triu(r / diag[:, None])
    np.fill_diagonal(n_mat, 1.0)
    factors = IwasawaFactors(k=q, a=np.diag(diag), n=n_mat)
    err = np.abs(factors.reassemble() - a).max()
    if err > TAU_NUM * max(1.0, np.abs(a).max()):
        raise LieFoliateError(f"factorization failed to reconstruct the input (error {err})")
    return factors


def random_sl(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Random SL_n(R) sample: i.i.d. standard normal entries scaled to det 1.

    A negative determinant is fixed by flipping the first column before
    scaling, so the result is deterministic given the generator state.
    """
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

    def contains(self, x, tol: float = TAU_ALG) -> bool:
        """Whether x lies in the span of the basis, up to tolerance."""
        a = _as_array(x)
        if not self.basis:
            return bool(np.abs(a).max() <= tol)
        flat = np.stack([b.entries.ravel() for b in self.basis], axis=1)
        q, _ = np.linalg.qr(flat)
        v = a.ravel()
        resid = v - q @ (q.T @ v)
        return bool(np.abs(resid).max() <= tol * max(1.0, np.abs(a).max()))


def subspace(mats, label: str = "", tag: str | None = None) -> Subspace:
    return Subspace(tuple(as_element(m, tag) for m in mats), label)


@dataclass(frozen=True)
class LieTripleResult:
    holds: bool
    residual: float


def is_lie_triple(s: Subspace) -> LieTripleResult:
    """Test [[S,S],S] inside span(S) for a subspace S of symmetric matrices.

    For every triple of basis elements the double bracket is projected onto
    the orthogonal complement of span(S) under the pairing -B(., theta .);
    the subspace is a Lie triple system when the largest residual norm stays
    below TAU_ALG.
    """
    for b in s.basis:
        if np.abs(b.entries - b.entries.T).max() > TAU_ALG * max(1.0, np.abs(b.entries).max()):
            raise LieFoliateError("Lie-triple test requires symmetric basis elements")
    k = s.dim
    if k == 0:
        return LieTripleResult(True, 0.0)
    n = s.size
    stack = np.stack([b.entries for b in s.basis])
    pair = np.einsum("iab,jbc->ijac", stack, stack) - np.einsum("jab,ibc->ijac", stack, stack)
    triple = np.einsum("ijab,kbc->ijkac", pair, stack) - np.einsum("kab,ijbc->ijkac", stack, pair)
    flat = triple.reshape(k * k * k, n * n)
    span = np.stack([b.entries.ravel() for b in s.basis], axis=1)
    q, _ = np.linalg.qr(span)
    resid = flat - (flat @ q) @ q.T
    norms = np.sqrt(np.maximum(np.sum(resid * resid, axis=1), 0.0) * 2.0 * n)
    residual = float(norms.max())
    return LieTripleResult(residual <= TAU_ALG, residual)


def bracket_closure_residual(s: Subspace) -> float:
    """Largest metric-norm residual of [X,Y] outside span(S) over basis pairs."""
    k = s.dim
    if k == 0:
        return 0.0
    n = s.size
    stack = np.stack([b.entries for b in s.basis])
    pair = np.einsum("iab,jbc->ijac", stack, stack) - np.einsum("jab,ibc->ijac", stack, stack)
    flat = pair.reshape(k * k, n * n)
    span = np.stack([b.entries.ravel() for b in s.basis], axis=1)
    q, _ = np.linalg.qr(span)
    resid = flat - (flat @ q) @ q.T
    norms = np.sqrt(np.maximum(np.sum(resid * resid, axis=1), 0.0) * 2.0 * n)
    return float(norms.max())


def _check_sl_space(space: SpaceDescriptor) -> int:
    from .roots import Family

    if space.family is not Family.A or any(
        space.m_alpha(i) != 1 for i in range(1, space.rank + 1)
    ):
        raise LieFoliateError("the matrix model applies to the split A-family entry sl(n,R) only")
    return space.rank


def _phi_indices(phi) -> tuple[int, ...]:
    indices = tuple(sorted(set(int(i) for i in getattr(phi, "indices", phi))))
    return indices


def phi_blocks(r: int, phi) -> list[tuple[int, ...]]:
    """Partition of {1,...,r+1} into runs joined by the chosen simple roots."""
    indices = set(_phi_indices(phi))
    if any(not 1 <= i <= r for i in indices):
        raise LieFoliateError(f"Phi indices must lie in 1..{r}")
    blocks: list[list[int]] = [[1]]
    for pos in range(2, r + 2):
        if (pos - 1) in indices:
            blocks[-1].append(pos)
        else:
            blocks.append([pos])
    return [tuple(b) for b in blocks]


def q_phi_block_dimension(r: int, phi) -> int:
    """Entry count of the block upper triangular traceless matrices for Phi."""
    n = r + 1
    sizes = [len(b) for b in phi_blocks(r, phi)]
    return (n * n + sum(s * s for s in sizes)) // 2 - 1


def a_subspace(r: int) -> Subspace:
    n = r + 1
    return subspace([h_matrix(n, i) for i in range(r)], label="a", tag="a")


def n_subspace(r: int) -> Subspace:
    n = r + 1
    return subspace(
        [e_matrix(n, i, j) for i in range(n) for j in range(i + 1, n)], label="n", tag="n"
    )


def a_phi_subspace(r: int, phi) -> Subspace:
    """The kernel of all chosen simple roots inside a: block-constant diagonals."""
    n = r + 1
    blocks = phi_blocks(r, phi)
    mats = []
    for t in range(len(blocks) - 1):
        d = np.zeros(n)
        for pos in blocks[t]:
            d[pos - 1] = len(blocks[t + 1])
        for pos in blocks[t + 1]:
            d[pos - 1] = -len(blocks[t])
        mats.append(np.diag(d))
    return subspace(mats, label="a_Phi", tag="a")


def a_phi_orth_subspace(r: int, phi) -> Subspace:
    """Orthogonal complement of a_Phi in a, spanned by the h_i with i in Phi."""
    n = r + 1
    return subspace([h_matrix(n, i - 1) for i in _phi_indices(phi)], label="a^Phi", tag="a")


def _same_block_pairs(r: int, phi) -> list[tuple[int, int]]:
    pairs = []
    for block in phi_blocks(r, phi):
        for ii in range(len(block)):
            for jj in range(ii + 1, len(block)):
                pairs.append((block[ii] - 1, block[jj] - 1))
    return sorted(pairs)


def p_phi_subspace(r: int, phi) -> Subspace:
    """Lie triple system a + sum of p_lambda over the subsystem of Phi."""
    n = r + 1
    mats = [h_matrix(n, i) for i in range(r)]
    mats.extend(e_matrix(n, i, j) + e_matrix(n, j, i) for i, j in _same_block_pairs(r, phi))
    return subspace(mats, label="p_Phi", tag="p")


def p_phi_s_subspace(r: int, phi) -> Subspace:
    """Semisimple part: a^Phi + sum of p_lambda over the subsystem of Phi."""
    n = r + 1
    mats = [h_matrix(n, i - 1) for i in _phi_indices(phi)]
    mats.extend(e_matrix(n, i, j) + e_matrix(n, j, i) for i, j in _same_block_pairs(r, phi))
    return subspace(mats, label="p_Phi^s", tag="p")


def n_phi_subspace(r: int, phi) -> Subspace:
    n = r + 1
    same = set(_same_block_pairs(r, phi))
    mats = [
        e_matrix(n, i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in same
    ]
    return subspace(mats, label="n_Phi", tag="n")


def q_phi_subspace(r: int, phi) -> Subspace:
    """Block upper triangular realization of the parabolic subalgebra."""
    n = r + 1
    same = set(_same_block_pairs(r, phi))
    mats = [h_matrix(n, i) for i in range(r)]
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(e_matrix(n, i, j))
            if (i, j) in same:
                mats.append(e_matrix(n, j, i))
    return subspace(mats, label="q_Phi")


def build_s_phi_v(
    space: SpaceDescriptor,
    phi,
    dim_v: int,
    ell_choice: dict[int, np.ndarray] | None = None,
) -> Subspace:
    """Basis of the foliation subalgebra (a^Phi + V + n) with one line removed
    from each root space g_alpha, alpha in Phi.

    Phi must be orthogonal (no two indices adjacent) and dim_v lies in
    0..r - |Phi|.  V is realized as the first dim_v vectors of the canonical
    basis of a_Phi.  Each removed line may be specified explicitly as a
    nonzero element of the one-dimensional root space g_alpha; since those
    spaces are lines here, any choice spans the same line and produces the
    same subalgebra.
    """
    r = _check_sl_space(space)
    indices = _phi_indices(phi)
    if any(b - a == 1 for a, b in zip(indices, indices[1:])):
        raise LieFoliateError("Phi must be orthogonal: no two adjacent simple roots")
    if not 0 <= dim_v <= r - len(indices):
        raise LieFoliateError(f"dim_v must lie in 0..{r - len(indices)}")
    n = r + 1
    if ell_choice:
        for idx, mat in ell_choice.items():
            if idx not in indices:
                raise LieFoliateError(f"ell choice given for index {idx} outside Phi")
            m = _as_array(mat, square=True)
            if m.shape != (n, n):
                raise LieFoliateError("ell choice has the wrong matrix size")
            probe = m.copy()
            top = abs(probe[idx - 1, idx])
            probe[idx - 1, idx] = 0.0
            if top <= TAU_ALG or np.abs(probe).max() > TAU_ALG * max(1.0, top):
                raise LieFoliateError(
                    f"ell choice for alpha_{idx} must be a nonzero element of its root space"
                )
    mats = [h_matrix(n, i - 1) for i in indices]
    v_basis = a_phi_subspace(r, indices).basis
    mats.extend(b.entries for b in v_basis[:dim_v])
    removed = {(i - 1, i) for i in indices}
    mats.extend(
        e_matrix(n, i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in removed
    )
    label = f"s(Phi={{{','.join(map(str, indices))}}}, dim_V={dim_v})"
    return Subspace(tuple(as_element(m, tag="s_phi_v") for m in mats), label)


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
    """Action of g in SL_2(R) on the upper half plane: z -> (az+b)/(cz+d)."""
    a = _as_array(g)
    if a.shape != (2, 2):
        raise LieFoliateError("moebius needs a 2x2 matrix")
    _require_det_one(a)
    z = complex(z)
    if not (z.imag > 0 and math.isfinite(z.real) and math.isfinite(z.imag)):
        raise LieFoliateError("the point must lie in the upper half plane")
    return complex((a[0, 0] * z + a[0, 1]) / (a[1, 0] * z + a[1, 1]))


def halfplane_orbit(kind: str, samples: int, base: complex = 1j) -> list[complex]:
    """Sample points on a K, A or N orbit through the base point.

    K sweeps the rotation angle over [0, 2*pi), A the diagonal parameter over
    [-3, 3], and N the translation parameter over [-3, 3].
    """
    if samples < 1:
        raise LieFoliateError("need at least one sample")
    base = complex(base)
    if base.imag <= 0:
        raise LieFoliateError("the base point must lie in the upper half plane")
    kind = kind.upper()
    if kind == "K":
        params = [2.0 * math.pi * i / samples for i in range(samples)]
        mats = [k_factor(s) for s in params]
    elif kind == "A":
        params = list(np.linspace(-3.0, 3.0, samples))
        mats = [a_factor(t) for t in params]
    elif kind == "N":
        params = list(np.linspace(-3.0, 3.0, samples))
        mats = [n_factor(u) for u in params]
    else:
        raise LieFoliateError("orbit kind must be one of K, A, N")
    return [moebius(m, base) for m in mats]
