"""Enumeration of hyperpolar homogeneous foliation classes.

A foliation F_{Phi,V} is determined by an orthogonal subset Phi of the
simple roots (no two chosen vertices adjacent in the Dynkin diagram) together
with a linear subspace V of the Euclidean factor E^{r - r_Phi}.  Each chosen
root contributes a codimension-one foliation of a totally geodesic hyperbolic
space F_alpha H^{n_alpha}; the V part foliates the Euclidean factor by
parallel affine subspaces; the nilpotent factor N_Phi is taken whole.

A record is keyed by (Phi orbit, dim V): the orbit of Phi under the diagram
automorphism group, and the dimension of V, not V itself.  This follows the
paper's parametrisation of the foliations by Phi together with V, and is
how the records are stored: a ``PhiOrbit`` holds what every record of one
orbit shares (the space, Phi, the orbit, the hyperbolic factors, dim N_Phi
and the hyperbolic part of the leaf dimension) and is built once per orbit,
and a ``FoliationClass`` is only (PhiOrbit, dim V), reading the rest off
its orbit.  The Phi orbits of a diagram are one table, built once per
diagram, that maps each orbit's representative (its least member) to the
orbit, in (r_Phi, Phi) order; the enumeration walks it, and ``from_dict``
looks a record's Phi up in it.  By part (iii) of the main theorem of
Berndt, Diaz-Ramos and Tamaru, F_{Phi,V} and F_{Phi',V'} are congruent
exactly when a diagram automorphism P has P(Phi) = Phi' and P_*V = V'; that
does not make distinct V of one dimension congruent in M, so a record with
0 < dim V < r - r_Phi stands for a continuous family of foliations, not for
one congruence class.  Whether records with different keys are always
non-congruent is not certified here; records are labeled accordingly.

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

from collections import namedtuple
from functools import lru_cache

from .catalog import SpaceDescriptor, catalog_lookup, rebuilt
from .errors import LieFoliateError
from .roots import DynkinDiagram, apply_permutation, diagram_automorphisms, dynkin_diagram

__all__ = [
    "HyperbolicFactor",
    "PhiOrbit",
    "FoliationClass",
    "orthogonal_subsets",
    "hyperbolic_factor",
    "enumerate_foliations",
    "CONGRUENCE_NOTE",
]

CONGRUENCE_NOTE = "orbit representative; pairwise non-congruence of distinct records is not certified"

_ALGEBRA = {1: "R", 2: "C", 4: "H", 8: "O"}  # real dimension -> division algebra


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


class HyperbolicFactor(namedtuple("HyperbolicFactor", "alpha_index algebra n real_dim")):
    """The hyperbolic space F_alpha H^{n_alpha} attached to a simple root.

    The base algebra is R when the doubled root is absent (then
    n = m_alpha + 1) and is otherwise C, H or O according to the doubled
    root's multiplicity 1, 3 or 7.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha_index,
            "algebra": self.algebra,
            "n": self.n,
            "real_dim": self.real_dim,
        }


def hyperbolic_factor(space: SpaceDescriptor, alpha_index: int) -> HyperbolicFactor:
    """Hyperbolic-space data of the rank-one boundary component at alpha.

    The base algebra F is R, C, H or O as d = m_2alpha + 1 is 1, 2, 4 or 8,
    and F H^n has m_alpha = (n - 1) d, so n = m_alpha / d + 1 and the real
    dimension is n d; over O only n = 2 occurs, so m_alpha must be 8.
    """
    m = space.m_alpha(alpha_index)
    d = space.m_2alpha(alpha_index) + 1
    algebra = _ALGEBRA.get(d)
    if algebra is None:
        raise LieFoliateError(f"doubled-root multiplicity {d - 1} is not one of 1, 3, 7")
    if m % d or d == 8 and m != 8:
        raise LieFoliateError(f"{algebra} factor needs root multiplicity {8 if d == 8 else f'divisible by {d}'}")
    n = m // d + 1
    return HyperbolicFactor(alpha_index, algebra, n, n * d)


class PhiOrbit(namedtuple("PhiOrbit", "space phi orbit factors dim_n_phi hyper_leaf_dim")):
    """What every record of one Phi orbit shares, built once per orbit.

    ``phi`` is the orbit's representative, its first member in sorted order;
    ``hyper_leaf_dim`` is the sum of dim F_alpha H^{n_alpha} - 1 over the
    factors, the hyperbolic part of the leaf dimension.
    """

    __slots__ = ()


def _phi_orbit(space: SpaceDescriptor, orbit: tuple[tuple[int, ...], ...],
               factors: tuple[HyperbolicFactor, ...]) -> PhiOrbit:
    hyper_leaf_dim = sum(f.real_dim - 1 for f in factors)
    dim_n_phi = space.dimension - space.rank - hyper_leaf_dim  # the closed form above
    return PhiOrbit(space, orbit[0], orbit, factors, dim_n_phi, hyper_leaf_dim)


class FoliationClass(namedtuple("FoliationClass", "phi_orbit dim_v")):
    """One record (Phi orbit, dim V); everything else is read off the orbit."""

    __slots__ = ()

    @property
    def space(self) -> SpaceDescriptor:
        return self.phi_orbit.space

    @property
    def phi(self) -> tuple[int, ...]:
        return self.phi_orbit.phi

    @property
    def orbit(self) -> tuple[tuple[int, ...], ...]:
        return self.phi_orbit.orbit

    @property
    def factors(self) -> tuple[HyperbolicFactor, ...]:
        return self.phi_orbit.factors

    @property
    def dim_n_phi(self) -> int:
        return self.phi_orbit.dim_n_phi

    @property
    def r_phi(self) -> int:
        return len(self.phi_orbit.phi)

    @property
    def leaf_dim(self) -> int:
        return self.phi_orbit.hyper_leaf_dim + self.dim_v + self.phi_orbit.dim_n_phi

    @property
    def codim(self) -> int:
        return self.phi_orbit.space.rank - self.dim_v

    @property
    def trivial(self) -> bool:
        return self.codim == 0

    def to_dict(self) -> dict:
        po = self.phi_orbit
        return {
            "space": po.space.name,
            "phi": list(po.phi),
            "orbit": [list(p) for p in po.orbit],
            "dim_v": self.dim_v,
            "leaf_dim": self.leaf_dim,
            "codim": self.codim,
            "trivial": self.trivial,
            "factors": [f.to_dict() for f in po.factors],
            "dim_n_phi": po.dim_n_phi,
            "congruence": CONGRUENCE_NOTE,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FoliationClass":
        """Rebuild a record of ``to_dict`` from its space, phi and dim V.

        The Phi orbit data are computed afresh; phi must be an orthogonal
        subset and its orbit's representative, dim V must lie in
        0..r - r_Phi, and every other field, the congruence note included,
        must be what the space gives, else LieFoliateError.
        """
        return rebuilt(data, ("space", "phi", "dim_v"), _record, "foliation record")


def _record(name, phi, dim_v) -> FoliationClass:
    space = catalog_lookup(name)
    orbit = _orbit_of(space, phi)
    if type(dim_v) is not int or not 0 <= dim_v <= space.rank - len(phi):
        raise LieFoliateError(f"dim_v {dim_v!r} is not in 0..{space.rank - len(phi)}")
    return FoliationClass(_phi_orbit(space, orbit, tuple(hyperbolic_factor(space, i) for i in phi)), dim_v)


def _orbit_of(space: SpaceDescriptor, phi) -> tuple[tuple[int, ...], ...]:
    """The Phi orbit of the space whose representative is phi."""
    dd = dynkin_diagram(space.root_system)
    if (not isinstance(phi, (list, tuple)) or any(type(i) is not int or not 1 <= i <= space.rank for i in phi)
            or list(phi) != sorted(set(phi)) or any(j in dd.neighbors(i) for i in phi for j in phi)):
        raise LieFoliateError(f"phi {phi!r} is not an orthogonal subset of the simple roots of {space.name}")
    orbit = _orbit_table(dd).get(tuple(phi))
    if orbit is None:
        raise LieFoliateError(f"phi {list(phi)} is not the representative (least member) of its orbit")
    return orbit


@lru_cache(maxsize=None)
def _orbit_table(dd: DynkinDiagram) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Representative -> its sorted Phi orbit, in (r_Phi, Phi) order, built once per diagram.

    The orthogonal subsets are visited in (r_Phi, Phi) order, so the first
    member of an orbit met is its least one, the representative.
    """
    auts = diagram_automorphisms(dd)
    table: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    seen: set[tuple[int, ...]] = set()
    for phi in sorted(orthogonal_subsets(dd), key=lambda p: (len(p), p)):
        if phi not in seen:
            table[phi] = orbit = tuple(sorted({apply_permutation(p, phi) for p in auts}))
            seen.update(orbit)
    return table


def enumerate_foliations(space: SpaceDescriptor, include_trivial: bool = False) -> list[FoliationClass]:
    """All foliation classes of the space, one per (Phi orbit, dim V).

    The degenerate single-leaf class (Phi empty, V the whole Euclidean
    factor, codimension zero) is excluded unless requested.  Classes are
    ordered by (r_Phi, Phi, dim V); the records of one orbit share one
    ``PhiOrbit``.
    """
    dd = dynkin_diagram(space.root_system)
    r = space.rank
    by_index = {i: hyperbolic_factor(space, i) for i in range(1, r + 1)}
    classes = []
    for phi, orbit in _orbit_table(dd).items():
        phi_orbit = _phi_orbit(space, orbit, tuple(by_index[i] for i in phi))
        # codim = r - dim V, so only Phi empty with dim V = r is trivial
        top = r - len(phi) if phi or include_trivial else r - 1
        classes += [FoliationClass(phi_orbit, dim_v) for dim_v in range(top + 1)]
    return classes
