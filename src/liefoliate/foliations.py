"""Enumeration of hyperpolar homogeneous foliation classes.

A foliation F_{Phi,V} is determined by an orthogonal subset Phi of the
simple roots (no two chosen vertices adjacent in the Dynkin diagram) together
with a linear subspace V of the Euclidean factor E^{r - r_Phi}.  Each chosen
root contributes a codimension-one foliation of a totally geodesic hyperbolic
space F_alpha H^{n_alpha}; the V part foliates the Euclidean factor by
parallel affine subspaces; the nilpotent factor N_Phi is taken whole.

A record is keyed by (Phi orbit, dim V): the orbit of Phi under the diagram
automorphism group, and the dimension of V, not V itself.  This follows the
paper's parametrisation of the foliations by Phi together with V, and is how
the records are stored: a ``PhiOrbit`` holds what every record of one orbit
shares (the space, Phi, the orbit, the hyperbolic factors, dim N_Phi and the
hyperbolic part of the leaf dimension) and is built once per orbit of each
space, and a ``FoliationClass`` is only (PhiOrbit, dim V), reading the rest
off its orbit.  Layer k of a diagram is its orthogonal Phi of k roots in
lexicographic order, each Phi of layer k - 1 extended by a later vertex
adjacent to none of its roots.  An orbit's representative is its least
member: no diagram automorphism maps it to a smaller tuple.  Each space
keeps one ``PhiOrbit`` per representative, the table of each layer walked
(representative -> ``PhiOrbit``, in Phi order) and the records of each
layer, built once per (space, layer) by the first full enumeration and
retained, at about 72 B a record with its slot in the layer's tuple (the
28,070 records of SL18 take about 2.0 MB).  A full enumeration returns a
new list joined from the layers' records; with codimension c it walks layers
0..c and builds only the records of codimension c.  ``from_dict`` decides
from Phi's images under the automorphisms whether Phi is a representative
and builds only its ``PhiOrbit``, by the constructor the tables use, so a
record read back shares the enumerated record's ``PhiOrbit`` and no layer is
built.  Which (Phi, dim V) index foliations is decided in ``parabolic``
(``PhiSubset.check_foliation``), which only ``from_dict`` loads.  By part
(iii) of the main theorem of Berndt, Diaz-Ramos and Tamaru, F_{Phi,V} and
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

from collections import namedtuple
from functools import lru_cache

from .catalog import SpaceDescriptor, rebuilt
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
    Fibonacci number F(r+2).  This is the sorted union of the layers.
    """
    return sorted(phi for k in range(dd.rank + 1) for phi in _layer(dd, k))


@lru_cache(maxsize=None)
def _layer(dd: DynkinDiagram, k: int) -> tuple[tuple[int, ...], ...]:
    """The independent sets of k vertices in lexicographic order, built once per diagram and k:
    those of layer k - 1, each extended by a later vertex adjacent to none of its vertices."""
    if k == 0:
        return ((),)
    neighbors = dd.neighbors
    return tuple(phi + (v,) for phi in _layer(dd, k - 1)
                 for v in range(phi[-1] + 1 if phi else 1, dd.rank + 1) if neighbors(v).isdisjoint(phi))


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
    """What every record of one Phi orbit shares, built once per space and orbit.

    ``phi`` is the orbit's representative, its first member in sorted order;
    ``hyper_leaf_dim`` is the sum of dim F_alpha H^{n_alpha} - 1 over the
    factors, the hyperbolic part of the leaf dimension.
    """

    __slots__ = ()


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

        The space and phi are read by ``parabolic._named`` and checked with
        dim V by ``PhiSubset.check_foliation``: phi must be an orthogonal
        subset, and dim V an int in 0..r - r_Phi.  phi must also be its
        orbit's representative; its ``PhiOrbit`` is the space's own, shared
        with the enumerated records, and no layer is built for it.  Every
        other field, the congruence note included, must be what the space
        gives.  Else LieFoliateError.
        """
        return rebuilt(data, ("space", "phi", "dim_v"), _record, "foliation record")


def _record(name, phi, dim_v) -> FoliationClass:
    from .parabolic import _named

    space, subset = _named(name, phi)
    subset.check_foliation(dim_v)
    orbits = _orbits(space)
    orbit = orbits.orbit(subset.indices)
    if orbit is None:
        raise LieFoliateError(f"phi {phi} is not the representative (least member) of its orbit")
    return FoliationClass(orbits.phi_orbit(subset.indices, orbit), dim_v)


class _SpaceOrbits:
    """One space's PhiOrbit per representative (``by_rep``), layer tables and layer records.

    Each is built once, on first use.  All are one ``_orbits`` entry, so
    ``_orbits.cache_clear()`` drops the records with the PhiOrbits they hold.
    """

    __slots__ = ("space", "dd", "auts", "factors", "by_rep", "tables", "records")

    def __init__(self, space: SpaceDescriptor) -> None:
        self.space = space
        self.dd = dynkin_diagram(space.root_system)
        self.auts = diagram_automorphisms(self.dd)
        self.factors = {i: hyperbolic_factor(space, i) for i in range(1, space.rank + 1)}
        self.by_rep, self.tables, self.records = {}, {}, {}

    def orbit(self, phi: tuple[int, ...]) -> tuple[tuple[int, ...], ...] | None:
        """Phi's orbit in sorted order if no diagram automorphism maps phi to a smaller tuple, else None."""
        images = {apply_permutation(p, phi) for p in self.auts[1:]}  # auts[0] is the identity
        return None if images and min(images) < phi else tuple(sorted({phi, *images}))

    def phi_orbit(self, phi: tuple[int, ...], orbit: tuple[tuple[int, ...], ...]) -> PhiOrbit:
        """The PhiOrbit of the representative phi, whose orbit is ``orbit``."""
        phi_orbit = self.by_rep.get(phi)
        if phi_orbit is None:
            space = self.space
            factors = tuple(map(self.factors.__getitem__, phi))
            hyper_leaf_dim = sum(f.real_dim - 1 for f in factors)
            # dim N_Phi by the closed form above
            phi_orbit = self.by_rep.setdefault(phi, PhiOrbit(  # the first one stored, under threads too
                space, phi, orbit, factors, space.dimension - space.rank - hyper_leaf_dim, hyper_leaf_dim))
        return phi_orbit

    def table(self, k: int) -> dict[tuple[int, ...], PhiOrbit]:
        """Representative -> PhiOrbit for the orbits in layer k, in Phi order."""
        table = self.tables.get(k)
        if table is None:
            table = self.tables.setdefault(
                k, {phi: self.phi_orbit(phi, orbit) for phi in _layer(self.dd, k) if (orbit := self.orbit(phi))})
        return table

    def layer_records(self, k: int) -> tuple[FoliationClass, ...]:
        """The records of layer k, dim V running over 0..r - k for each orbit in Phi order."""
        records = self.records.get(k)
        if records is None:
            new, dims = tuple.__new__, range(self.space.rank - k + 1)  # new: FoliationClass(...) without its frame
            records = self.records.setdefault(
                k, tuple([new(FoliationClass, (phi_orbit, dim_v)) for phi_orbit in self.table(k).values()
                          for dim_v in dims]))
        return records


_orbits = lru_cache(maxsize=None)(_SpaceOrbits)


def enumerate_foliations(space: SpaceDescriptor, include_trivial: bool = False,
                         codim: int | None = None) -> list[FoliationClass]:
    """All foliation classes of the space, one per (Phi orbit, dim V).

    The degenerate single-leaf class (Phi empty, V the whole Euclidean
    factor, codimension zero) is excluded unless requested.  With ``codim``
    only the classes of that codimension are made, on each call: one per
    orbit with r_Phi <= codim (layers 0..codim), with dim V = r - codim.
    Without it the records are built once per (space, layer) and retained,
    at about 72 B each (SL18's 28,070 take about 2.0 MB); each call returns a
    new list of them.  Classes are ordered by (r_Phi, Phi, dim V); the
    records of one orbit share one ``PhiOrbit``.  ``include_trivial`` must be
    a bool and ``codim`` None or an int, else LieFoliateError.
    """
    if type(include_trivial) is not bool:
        raise LieFoliateError(f"include_trivial {include_trivial!r} is not a bool")
    if codim is not None and type(codim) is not int:
        raise LieFoliateError(f"codim {codim!r} is not an int")
    r = space.rank
    orbits = _orbits(space)
    classes: list[FoliationClass] = []
    if codim is None:
        for k in range(r + 1):
            records = orbits.layer_records(k)
            if not records:  # no orthogonal Phi of k roots, so none of more
                break
            # only Phi empty with dim V = r, the last record of layer 0, is trivial
            classes += records if k or include_trivial else records[:-1]
        return classes
    # codim = r - dim V >= r_Phi, and only Phi empty with codim 0 is trivial
    new = tuple.__new__
    for k in range(codim + 1 if 0 < codim <= r or codim == 0 and include_trivial else 0):
        table = orbits.table(k)
        if not table:
            break
        classes += [new(FoliationClass, (phi_orbit, r - codim)) for phi_orbit in table.values()]
    return classes
