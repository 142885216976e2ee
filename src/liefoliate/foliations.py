"""Enumeration of hyperpolar homogeneous foliation classes.

A foliation F_{Phi,V} is determined by an orthogonal subset Phi of the
simple roots (no two chosen vertices adjacent in the Dynkin diagram) together
with a linear subspace V of the Euclidean factor E^{r - r_Phi}.  Each chosen
root contributes a codimension-one foliation of a totally geodesic hyperbolic
space F_alpha H^{n_alpha}; the V part foliates the Euclidean factor by
parallel affine subspaces; the nilpotent factor N_Phi is taken whole.

A record is keyed by (Phi orbit, dim V): the orbit of Phi under the diagram
automorphism group, and the dimension of V, not V itself.  By part (iii) of
the main theorem of Berndt, Diaz-Ramos and Tamaru, F_{Phi,V} and
F_{Phi',V'} are congruent exactly when a diagram automorphism P has
P(Phi) = Phi' and P_*V = V'; that does not make distinct V of one dimension
congruent in M, so a record with 0 < dim V < r - r_Phi stands for a
continuous family of foliations, not for one congruence class.  Whether
records with different keys are always non-congruent is not certified here;
records are labeled accordingly.

For an orthogonal Phi the dimension of N_Phi has a closed form.  The support
of a positive root is connected in the Dynkin diagram, and no two roots of
Phi are adjacent, so the only positive roots in the span of Phi are the
alpha and 2 alpha with alpha in Phi: Sigma_Phi^+ = {alpha, 2 alpha}.  Hence

    dim N_Phi = dim M - r - sum over alpha in Phi of (m_alpha + m_2alpha),

and m_alpha + m_2alpha = dim F_alpha H^{n_alpha} - 1 for the hyperbolic
factor of alpha, so the enumeration reads dim N_Phi off the factors it
builds anyway and never scans the roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .catalog import SpaceDescriptor, catalog_lookup
from .errors import LieFoliateError
from .roots import DynkinDiagram, apply_permutation, diagram_automorphisms, dynkin_diagram

__all__ = [
    "HyperbolicFactor",
    "FoliationClass",
    "orthogonal_subsets",
    "hyperbolic_factor",
    "enumerate_foliations",
    "foliation_codimension",
    "CONGRUENCE_NOTE",
]

CONGRUENCE_NOTE = "orbit representative; pairwise non-congruence of distinct records is not certified"

_ALGEBRA_REAL_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}
_ALGEBRA_BY_DOUBLE_MULT = {1: "C", 3: "H", 7: "O"}


def orthogonal_subsets(dd: DynkinDiagram) -> list[tuple[int, ...]]:
    """All independent sets of the diagram, in lexicographic order.

    The empty set is included.  For a path diagram of rank r the count is the
    Fibonacci number F(r+2).
    """
    verts = [v.index for v in dd.vertices]
    out: list[tuple[int, ...]] = []

    def extend(chosen: list[int], start: int) -> None:
        out.append(tuple(chosen))
        for k in range(start, len(verts)):
            v = verts[k]
            if not any(v in dd.neighbors(c) for c in chosen):
                chosen.append(v)
                extend(chosen, k + 1)
                chosen.pop()

    extend([], 0)
    return out


@dataclass(frozen=True)
class HyperbolicFactor:
    """The hyperbolic space F_alpha H^{n_alpha} attached to a simple root.

    The base algebra is R when the doubled root is absent (then
    n = m_alpha + 1) and is otherwise C, H or O according to the doubled
    root's multiplicity 1, 3 or 7.
    """

    alpha_index: int
    algebra: str
    n: int
    real_dim: int

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha_index,
            "algebra": self.algebra,
            "n": self.n,
            "real_dim": self.real_dim,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HyperbolicFactor":
        return cls(data["alpha"], data["algebra"], data["n"], data["real_dim"])


def hyperbolic_factor(space: SpaceDescriptor, alpha_index: int) -> HyperbolicFactor:
    """Hyperbolic-space data of the rank-one boundary component at alpha."""
    if not 1 <= alpha_index <= space.rank:
        raise LieFoliateError(f"simple root index {alpha_index} out of range 1..{space.rank}")
    m = space.m_alpha(alpha_index)
    m2 = space.m_2alpha(alpha_index)
    if m2 == 0:
        algebra, n = "R", m + 1
    else:
        algebra = _ALGEBRA_BY_DOUBLE_MULT.get(m2)
        if algebra is None:
            raise LieFoliateError(f"doubled-root multiplicity {m2} is not one of 1, 3, 7")
        if algebra == "C":
            if m % 2:
                raise LieFoliateError("complex factor needs an even root multiplicity")
            n = m // 2 + 1
        elif algebra == "H":
            if m % 4:
                raise LieFoliateError("quaternionic factor needs a multiplicity divisible by 4")
            n = m // 4 + 1
        else:
            if m != 8:
                raise LieFoliateError("octonionic factor needs root multiplicity 8")
            n = 2
    return HyperbolicFactor(alpha_index, algebra, n, n * _ALGEBRA_REAL_DIM[algebra])


@dataclass(frozen=True)
class FoliationClass:
    """One congruence-class representative (Phi orbit, dim V)."""

    space: SpaceDescriptor
    phi: tuple[int, ...]
    orbit: tuple[tuple[int, ...], ...]
    dim_v: int
    leaf_dim: int
    codim: int
    trivial: bool
    factors: tuple[HyperbolicFactor, ...]
    dim_n_phi: int

    @property
    def r_phi(self) -> int:
        return len(self.phi)

    def to_dict(self) -> dict:
        return {
            "space": self.space.name,
            "phi": list(self.phi),
            "orbit": [list(p) for p in self.orbit],
            "dim_v": self.dim_v,
            "leaf_dim": self.leaf_dim,
            "codim": self.codim,
            "trivial": self.trivial,
            "factors": [f.to_dict() for f in self.factors],
            "dim_n_phi": self.dim_n_phi,
            "congruence": CONGRUENCE_NOTE,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FoliationClass":
        return cls(
            space=catalog_lookup(data["space"]),
            phi=tuple(data["phi"]),
            orbit=tuple(tuple(p) for p in data["orbit"]),
            dim_v=data["dim_v"],
            leaf_dim=data["leaf_dim"],
            codim=data["codim"],
            trivial=data["trivial"],
            factors=tuple(HyperbolicFactor.from_dict(f) for f in data["factors"]),
            dim_n_phi=data["dim_n_phi"],
        )


def foliation_codimension(fc: FoliationClass) -> int:
    """Codimension r_Phi + (r - r_Phi - dim V) of the leaves."""
    return fc.r_phi + (fc.space.rank - fc.r_phi - fc.dim_v)


def _phi_orbits(dd: DynkinDiagram) -> list[tuple[tuple[int, ...], ...]]:
    subsets = orthogonal_subsets(dd)
    auts = diagram_automorphisms(dd)
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for phi in subsets:
        if phi in seen:
            continue
        orbit = sorted({apply_permutation(p, phi) for p in auts})
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


@lru_cache(maxsize=None)
def _sorted_phi_orbits(dd: DynkinDiagram) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The Phi orbits of a diagram ordered by (r_Phi, Phi), computed once per diagram."""
    return tuple(sorted(_phi_orbits(dd), key=lambda o: (len(o[0]), o[0])))


def enumerate_foliations(space: SpaceDescriptor, include_trivial: bool = False) -> list[FoliationClass]:
    """All foliation classes of the space, one per (Phi orbit, dim V).

    The degenerate single-leaf class (Phi empty, V the whole Euclidean
    factor, codimension zero) is excluded unless requested.  Classes are
    ordered by (r_Phi, Phi, dim V).
    """
    dd = dynkin_diagram(space.root_system)
    r = space.rank
    by_index = {i: hyperbolic_factor(space, i) for i in range(1, r + 1)}
    classes = []
    for orbit in _sorted_phi_orbits(dd):
        phi = orbit[0]
        factors = tuple(by_index[i] for i in phi)
        hyper_leaf = sum(f.real_dim - 1 for f in factors)
        dim_n_phi = space.dimension - r - hyper_leaf  # the closed form above
        for dim_v in range(0, r - len(phi) + 1):
            leaf_dim = hyper_leaf + dim_v + dim_n_phi
            codim = space.dimension - leaf_dim
            trivial = codim == 0
            if trivial and not include_trivial:
                continue
            classes.append(
                FoliationClass(
                    space=space,
                    phi=phi,
                    orbit=orbit,
                    dim_v=dim_v,
                    leaf_dim=leaf_dim,
                    codim=codim,
                    trivial=trivial,
                    factors=factors,
                    dim_n_phi=dim_n_phi,
                )
            )
    return classes
