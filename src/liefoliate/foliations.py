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
adjacent to none of its roots; each space walks its own layers and keeps
none.  An orbit's representative is its least member: no diagram
automorphism maps it to a smaller tuple.  Each space keeps its
``PhiOrbit``s, one per representative, and the tuple of its records that
the first full enumeration builds, on its descriptor
(``SpaceDescriptor.orbits``); README's list of caches gives their size and
who reads them.  ``iter_foliations`` makes records one at a time from a
walk of the layers and keeps none.  ``from_dict`` makes the one lookup a
walk of the layers makes (``SpaceOrbits.phi_orbit``), so a record read back
shares the enumerated record's ``PhiOrbit`` and no layer is built.  Which (Phi, dim V)
index foliations is decided in ``parabolic`` (``PhiSubset.check_foliation``),
which only ``from_dict`` loads.  By part
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
from itertools import chain, islice, product, repeat

from .catalog import SpaceDescriptor
from .errors import LieFoliateError
from .roots import DynkinDiagram, diagram_automorphisms, expect

__all__ = [
    "HyperbolicFactor",
    "PhiOrbit",
    "FoliationClass",
    "orthogonal_subsets",
    "hyperbolic_factor",
    "enumerate_foliations",
    "iter_foliations",
    "CONGRUENCE_NOTE",
]

CONGRUENCE_NOTE = "orbit representative; pairwise non-congruence of distinct records is not certified"

_ALGEBRA = {1: "R", 2: "C", 4: "H", 8: "O"}  # real dimension -> division algebra


def orthogonal_subsets(dd: DynkinDiagram) -> list[tuple[int, ...]]:
    """All independent sets of the diagram, in lexicographic order.

    The empty set is included.  For a path diagram of rank r the count is the
    Fibonacci number F(r+2).  This is the sorted union of the layers.
    ``dd`` must be a DynkinDiagram, else LieFoliateError.
    """
    expect(dd, DynkinDiagram)
    return sorted(phi for layer in _layers(dd) for phi in layer)


def _layers(dd: DynkinDiagram):
    """The independent sets of 0, 1, 2, ... vertices, one layer at a time in lexicographic order,
    up to the first empty layer, which is not yielded: layer k is those of layer k - 1, each extended
    by a later vertex adjacent to none of its vertices.  A layer is made only when asked for."""
    adjacency, rank, layer = dd._adjacency, dd.rank, ((),)  # unchecked: every v is in 1..rank
    while layer:
        yield layer
        layer = tuple(phi + (v,) for phi in layer
                      for v in range(phi[-1] + 1 if phi else 1, rank + 1) if adjacency[v].isdisjoint(phi))


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
    ``space`` must be a SpaceDescriptor, else LieFoliateError.
    """
    expect(space, SpaceDescriptor)
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

        The space and phi are read by ``readback.named`` and checked with
        dim V by ``PhiSubset.check_foliation``: phi must be an orthogonal
        subset, and dim V an int in 0..r - r_Phi.  phi must also be its
        orbit's representative; its ``PhiOrbit`` is the space's own, shared
        with the enumerated records, and no layer is built for it.  Every
        other field, the congruence note included, must be what the space
        gives.  Else LieFoliateError.
        """
        from .readback import rebuilt

        return rebuilt(data, ("space", "phi", "dim_v"), _record, "foliation record")


def _record(name, phi, dim_v) -> FoliationClass:
    from .readback import named

    space, subset = named(name, phi)
    subset.check_foliation(dim_v)
    phi_orbit = space.orbits.phi_orbit(subset.indices)
    if phi_orbit is None:
        raise LieFoliateError(f"phi {phi} is not the representative (least member) of its orbit")
    return FoliationClass(phi_orbit, dim_v)


class SpaceOrbits:
    """One space's PhiOrbit per representative (``by_rep``), and the tuple of its nontrivial
    records with its trivial record on its own, which the first full ``enumerate_foliations``
    builds and every later one returns as it is; the descriptor keeps the store
    (``SpaceDescriptor.orbits``).  ``iter_foliations`` adds PhiOrbits and keeps no record.
    No layer is kept: ``layers`` walks them anew on each call.  ``auts`` is the one copy of
    the diagram's automorphisms, searched once per space."""

    __slots__ = ("space", "auts", "factors", "by_rep", "records", "trivial")

    def __init__(self, space: SpaceDescriptor) -> None:
        self.space = space
        self.auts = diagram_automorphisms(space.diagram)
        self.factors = {i: hyperbolic_factor(space, i) for i in range(1, space.rank + 1)}
        self.by_rep, self.records, self.trivial = {}, None, None

    def phi_orbit(self, phi: tuple[int, ...]) -> PhiOrbit | None:
        """The PhiOrbit of phi, built on first use, if phi is its orbit's representative;
        None if a diagram automorphism maps phi to a smaller tuple."""
        phi_orbit = self.by_rep.get(phi)
        if phi_orbit is None:
            images = {tuple(sorted(p[i - 1] for i in phi)) for p in self.auts[1:]}  # auts[0] is the identity
            if images and min(images) < phi:
                return None
            space = self.space
            factors = tuple(map(self.factors.__getitem__, phi))
            hyper_leaf_dim = sum(f.real_dim - 1 for f in factors)
            # dim N_Phi by the closed form above
            phi_orbit = self.by_rep.setdefault(phi, PhiOrbit(  # the first one stored, under threads too
                space, phi, tuple(sorted({phi, *images})), factors,
                space.dimension - space.rank - hyper_leaf_dim, hyper_leaf_dim))
        return phi_orbit

    def layers(self):
        """The PhiOrbits of layers 0, 1, ..., one tuple per layer in Phi order, each walked when
        asked for, up to the first empty layer."""
        for layer in _layers(self.space.diagram):
            yield tuple(filter(None, map(self.phi_orbit, layer)))


def iter_foliations(space: SpaceDescriptor, include_trivial: bool = False, codim: int | None = None):
    """The records of ``enumerate_foliations`` with the same arguments, in its order, made one at a
    time as they are read and kept nowhere.  The arguments are checked, and the space's store made,
    when it is called, before any record is made."""
    _check(space, include_trivial, codim)
    return _walk(space, include_trivial, codim)


def _check(space, include_trivial, codim) -> None:
    """LieFoliateError unless the arguments are those ``enumerate_foliations`` takes."""
    expect(space, SpaceDescriptor)
    if type(include_trivial) is not bool:
        raise LieFoliateError(f"include_trivial {include_trivial!r} is not a bool")
    if codim is not None and type(codim) is not int:
        raise LieFoliateError(f"codim {codim!r} is not an int")
    if codim is not None and codim < 0:
        raise LieFoliateError(f"codim {codim} is negative")


def _walk(space, include_trivial, codim):
    """An iterator over the records, pairing each PhiOrbit of a walk of the layers with each of its
    dim V: 0..r - k in layer k, whose last in layer 0 is the trivial record, or r - codim alone."""
    r, layers = space.rank, space.orbits.layers()
    if codim is None:
        runs = (product(phi_orbits, range(r - k + 1 if k else r + include_trivial))
                for k, phi_orbits in enumerate(layers))
    else:  # codim = r - dim V >= r_Phi, and only Phi empty with codim 0 is trivial
        walked = codim + 1 if 0 < codim <= r or codim == 0 and include_trivial else 0
        runs = (product(phi_orbits, (r - codim,)) for phi_orbits in islice(layers, walked))
    # FoliationClass(phi_orbit, dim_v) for each pair, built in C without its frame
    return map(tuple.__new__, repeat(FoliationClass), chain.from_iterable(runs))


def enumerate_foliations(space: SpaceDescriptor, include_trivial: bool = False,
                         codim: int | None = None) -> tuple[FoliationClass, ...]:
    """All foliation classes of the space, one per (Phi orbit, dim V), as a tuple.

    The degenerate single-leaf class (Phi empty, V the whole Euclidean
    factor, codimension zero) is excluded unless requested.  With ``codim``
    only the classes of that codimension are made, on each call: one per
    orbit with r_Phi <= codim, with dim V = r - codim, from a walk of layers
    0..codim that builds only the PhiOrbits no earlier call built.
    Without it the first call builds the space's nontrivial records once, in
    one tuple that the space keeps with its trivial record, and every later
    call returns that same tuple; with ``include_trivial`` a call returns a
    new tuple, the trivial record put back at index r, after layer 0's
    others.  Classes are ordered by (r_Phi, Phi, dim V); the records of one
    orbit share one ``PhiOrbit``.  ``iter_foliations`` makes the same records
    one at a time and keeps none.  ``space`` must be a SpaceDescriptor,
    ``include_trivial`` a bool and ``codim`` None or an int of at least 0,
    else LieFoliateError; a codim above the rank has no class.
    """
    _check(space, include_trivial, codim)
    if codim is not None:
        return tuple(_walk(space, include_trivial, codim))
    orbits = space.orbits
    if orbits.records is None:  # two threads that race here store equal records over the same PhiOrbits
        records = tuple(_walk(space, False, None))
        orbits.trivial = tuple.__new__(FoliationClass, (orbits.by_rep[()], space.rank))
        orbits.records = records
    if include_trivial:
        r = space.rank
        return orbits.records[:r] + (orbits.trivial,) + orbits.records[r:]
    return orbits.records
