"""Parabolic subalgebra and horospherical decomposition data.

For a subset Phi of the simple roots this module computes the root subsystem
Sigma_Phi, the dimensions occurring in the Chevalley decomposition
q_Phi = l_Phi + n_Phi and the Langlands decomposition
q_Phi = m_Phi + a_Phi + n_Phi, and the factors of the horospherical
decomposition M = F_Phi^s x E^{r - r_Phi} x N_Phi.

Dimensions that require the centralizer dimension dim k0 are reported as
None for catalog entries where that value is not available; the a_Phi and
n_Phi dimensions and the whole horospherical side never need it.

The support of a root is connected, so Sigma_Phi^+ is the disjoint union of
the positive roots spanned by each connected component of Phi, and F_Phi^s
is the product of the components' factors.  A component's multiplicity sum
comes from the per-type root counts of its subdiagram
(``SpaceDescriptor.span_counts``), and its roots, when first asked for, from
a root-string walk over that component alone (``roots.span_roots``), so no
call builds the space's full root list.  Each space keeps, per component
asked for, its multiplicity sum, its factor and any root sets walked, until
``liefoliate.clear_caches()``: O(r^2) components on a classical diagram.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .catalog import SpaceDescriptor, catalog_lookup, rebuilt
from .errors import LieFoliateError
from .roots import Root, span_roots

__all__ = [
    "PhiSubset",
    "ParabolicData",
    "BoundaryFactor",
    "HorosphericalData",
    "phi_subset",
    "root_subsystem",
    "parabolic_data",
    "boundary_components",
    "horospherical",
]


class PhiSubset(namedtuple("PhiSubset", "space indices")):
    """A subset of the simple roots, given by sorted 1-based indices."""

    __slots__ = ()

    def __new__(cls, space: SpaceDescriptor, indices: tuple[int, ...]) -> "PhiSubset":
        r = space.rank
        if any(type(i) is not int or not 1 <= i <= r for i in indices):
            raise LieFoliateError(f"Phi indices {indices!r} must be ints in 1..{r}")
        if list(indices) != sorted(set(indices)):
            raise LieFoliateError("Phi indices must be strictly increasing")
        return tuple.__new__(cls, (space, indices))

    @classmethod
    def _make(cls, iterable) -> "PhiSubset":
        """Build through ``__new__``, so that ``_replace`` checks the fields too."""
        return cls(*iterable)

    @property
    def r_phi(self) -> int:
        return len(self.indices)

    @property
    def is_orthogonal(self) -> bool:
        """No two chosen vertices are adjacent in the Dynkin diagram."""
        adjacency = self.space.diagram._adjacency  # the indices are ints in 1..r, checked when built
        chosen = set(self.indices)
        return all(not (adjacency[i] & chosen) for i in chosen)

    def check_foliation(self, dim_v) -> None:
        """Raise unless Phi is orthogonal and dim_v is an int in 0..r - r_Phi, as F_{Phi,V} needs."""
        if not self.is_orthogonal:
            raise LieFoliateError(
                f"phi {list(self.indices)} is not an orthogonal subset of the simple roots of {self.space.name}")
        top = self.space.rank - self.r_phi
        if type(dim_v) is not int or not 0 <= dim_v <= top:
            raise LieFoliateError(f"dim_v {dim_v!r} is not in 0..{top}")


def phi_indices(r: int, indices) -> tuple[int, ...]:
    """The distinct simple-root indices of ``indices``, sorted.

    The rank r must be an int >= 1 (a bool is refused).  A value is taken
    when it is integral (``int(i) == i``, so 3.0, True and numpy integers
    pass) and lies in 1..r; any other raises LieFoliateError.
    """
    if type(r) is not int or r < 1:
        raise LieFoliateError(f"rank {r!r} must be an int >= 1")
    try:
        values = list(indices)
        ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):  # no list of numbers, NaN, infinity
        values, ints = indices, None
    if ints is None or ints != values or ints and not 1 <= min(ints) <= max(ints) <= r:
        raise LieFoliateError(f"Phi indices {values!r} must be ints in 1..{r}")
    return tuple(sorted(set(ints)))


def phi_subset(space: SpaceDescriptor, indices) -> PhiSubset:
    # phi_indices returns sorted, distinct ints in 1..r, so PhiSubset.__new__ need not check them again
    return tuple.__new__(PhiSubset, (space, phi_indices(space.rank, indices)))


def root_subsystem(space: SpaceDescriptor, phi: PhiSubset) -> tuple[frozenset[Root], frozenset[Root]]:
    """(Sigma_Phi, Sigma_Phi^+): the roots lying in the rational span of Phi.

    A root lies in span(Phi) exactly when its expansion over the simple roots
    is supported on Phi, and then on one connected component of Phi.  The
    sets of a one-component Phi are that component's own; otherwise they are
    the union of its components' sets.  A Phi subset of another space raises
    LieFoliateError.
    """
    return _root_sets(space, _components(space).of(phi))


class ParabolicData(namedtuple("ParabolicData", (
        "space phi sigma_phi sigma_phi_pos dim_a_phi dim_n_phi dim_g0 dim_l_phi dim_m_phi dim_q_phi "
        "dim_p_phi dim_p_phi_s dim_k_phi dim_g_phi dim_z_phi"))):
    """Dimension data of the parabolic subalgebra attached to Phi.

    Fields whose value requires dim k0 are None when the catalog does not
    provide it.  dim_g_phi and dim_z_phi are only reported for spaces with
    k0 = 0, where the center z_Phi is forced to vanish.
    """

    __slots__ = ()

    @property
    def r_phi(self) -> int:
        return len(self.phi)

    def to_dict(self) -> dict:
        return {
            "space": self.space.name,
            "phi": list(self.phi),
            "sigma_phi": [list(r.scaled) for r in sorted(self.sigma_phi)],
            "sigma_phi_pos": [list(r.scaled) for r in sorted(self.sigma_phi_pos)],
            "dim_a_phi": self.dim_a_phi,
            "dim_n_phi": self.dim_n_phi,
            "dim_g0": self.dim_g0,
            "dim_l_phi": self.dim_l_phi,
            "dim_m_phi": self.dim_m_phi,
            "dim_q_phi": self.dim_q_phi,
            "dim_p_phi": self.dim_p_phi,
            "dim_p_phi_s": self.dim_p_phi_s,
            "dim_k_phi": self.dim_k_phi,
            "dim_g_phi": self.dim_g_phi,
            "dim_z_phi": self.dim_z_phi,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParabolicData":
        """Rebuild a record of ``to_dict`` from its space and phi, checking every other field."""
        return rebuilt(data, ("space", "phi"), lambda name, phi: parabolic_data(*_named(name, phi)),
                       "parabolic record")


def parabolic_data(space: SpaceDescriptor, phi: PhiSubset) -> ParabolicData:
    """Chevalley and Langlands dimension data for q_Phi."""
    components = _components(space).of(phi)
    sigma_phi, sigma_phi_pos = _root_sets(space, components)
    r, r_phi = space.rank, len(phi.indices)

    sum_phi_pos = sum(c.sum_pos for c in components)
    sum_phi = 2 * sum_phi_pos  # m(-lam) = m(lam)
    total_pos = space.dimension - r  # dim M = r + sum of positive multiplicities

    dim_a_phi = r - r_phi
    dim_n_phi = total_pos - sum_phi_pos

    k0 = space.dim_k0
    dim_g0 = None if k0 is None else k0 + r
    dim_l = None if dim_g0 is None else dim_g0 + sum_phi
    dim_m = None if dim_l is None else dim_l - dim_a_phi
    dim_q = None if dim_l is None else dim_l + dim_n_phi
    dim_k_phi = None if k0 is None else k0 + sum_phi_pos
    dim_g_phi = r_phi + sum_phi if k0 == 0 else None
    dim_z_phi = 0 if k0 == 0 else None

    # positional, in field order: fifteen keywords took about 0.3 µs more per call
    return ParabolicData(space, phi.indices, sigma_phi, sigma_phi_pos, dim_a_phi, dim_n_phi, dim_g0, dim_l, dim_m,
                         dim_q, r + sum_phi_pos, r_phi + sum_phi_pos, dim_k_phi, dim_g_phi, dim_z_phi)


class BoundaryFactor(namedtuple("BoundaryFactor", "component_indices rank name dim")):
    """One factor of F_Phi^s, coming from a connected component of Phi."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "component_indices": list(self.component_indices),
            "rank": self.rank,
            "name": self.name,
            "dim": self.dim,
        }


class _Component:
    """A connected component of some Phi: the multiplicity sum of the positive
    roots it spans, its factor and, once asked for, its root sets."""

    __slots__ = ("indices", "sum_pos", "factor", "sets")

    def __init__(self, space: SpaceDescriptor, component: tuple[int, ...]) -> None:
        count, self.sum_pos = space.span_counts(component)
        rank, self.indices, self.sets = len(component), component, None
        # A_k is the only irreducible rank-k root system with k(k+1)/2 positive roots (D_3 = A_3);
        # with every multiplicity one (a sum equal to the count) the factor is split SL.
        split = count == self.sum_pos == rank * (rank + 1) // 2
        name = f"SL_{rank + 1}(R)/SO_{rank + 1}" if split else f"unnamed rank-{rank} factor"
        self.factor = BoundaryFactor(component, rank, name, rank + self.sum_pos)

    def root_sets(self, space: SpaceDescriptor) -> tuple[frozenset[Root], frozenset[Root]]:
        """(roots, positive roots) of the component's span, walked over the component alone."""
        if self.sets is None:
            pos = frozenset(span_roots(space.family, space.rank, space.diagram, self.indices))
            self.sets = (pos.union([-lam for lam in pos]), pos)
        return self.sets


class _SpaceComponents:
    """One space's ``_Component`` per connected component of a Phi asked for."""

    __slots__ = ("space", "dd", "seen")

    def __init__(self, space: SpaceDescriptor) -> None:
        self.space, self.dd, self.seen = space, space.diagram, {}

    def of(self, phi: PhiSubset) -> list[_Component]:
        """The components of phi in order, each made the first time it is met."""
        try:
            if phi.space != self.space:
                raise LieFoliateError("Phi subset belongs to a different space")
        except AttributeError:  # a list, a tuple, a str or None: no PhiSubset
            raise LieFoliateError(f"Phi must be a PhiSubset, as phi_subset(space, indices) makes it; got {phi!r}") from None
        components, seen = self.dd._components_of(phi.indices), self.seen
        try:
            return [seen[c] for c in components]
        except KeyError:  # setdefault: the first stored, under threads too
            return [seen.get(c) or seen.setdefault(c, _Component(self.space, c)) for c in components]


_components = lru_cache(maxsize=None)(_SpaceComponents)


def _root_sets(space: SpaceDescriptor, components: list[_Component]) -> tuple[frozenset[Root], frozenset[Root]]:
    if len(components) == 1:
        return components[0].root_sets(space)
    sets = [c.root_sets(space) for c in components]  # a frozenset union reuses the stored hashes
    return frozenset().union(*(s for s, _ in sets)), frozenset().union(*(s for _, s in sets))


def boundary_components(space: SpaceDescriptor, phi: PhiSubset) -> list[BoundaryFactor]:
    """Factors of F_Phi^s, one per connected component of Phi in the diagram."""
    return [c.factor for c in _components(space).of(phi)]


class HorosphericalData(namedtuple("HorosphericalData", "space phi factors dim_Fs dim_euclidean dim_N")):
    """The three factors of M = F_Phi^s x E^{r-r_Phi} x N_Phi."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "space": self.space.name,
            "phi": list(self.phi),
            "factors": [f.to_dict() for f in self.factors],
            "dim_Fs": self.dim_Fs,
            "dim_euclidean": self.dim_euclidean,
            "dim_N": self.dim_N,
            "dim_M": self.space.dimension,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HorosphericalData":
        """Rebuild a record of ``to_dict`` from its space and phi, checking every other field."""
        return rebuilt(data, ("space", "phi"), lambda name, phi: horospherical(*_named(name, phi)),
                       "horospherical record")


def _named(name, phi) -> tuple[SpaceDescriptor, PhiSubset]:
    """The space and the Phi subset a record names."""
    if not isinstance(phi, list):
        raise LieFoliateError(f"phi {phi!r} is not a list of simple-root indices")
    space = catalog_lookup(name)
    return space, PhiSubset(space, tuple(phi))


def horospherical(space: SpaceDescriptor, phi: PhiSubset) -> HorosphericalData:
    """Horospherical decomposition data; the dimensions always sum to dim M.

    Only the components' multiplicity sums and factors are read: no root set
    is built.
    """
    components = _components(space).of(phi)
    factors = tuple(c.factor for c in components)
    r, r_phi = space.rank, len(phi.indices)
    sum_phi_pos = sum(c.sum_pos for c in components)
    dim_fs = r_phi + sum_phi_pos  # dim p_Phi^s
    if sum(f.dim for f in factors) != dim_fs:
        raise LieFoliateError("boundary factor dimensions do not sum to dim F_Phi^s")
    # dim N_Phi = dim n_Phi = (dim M - r) - sum_phi_pos, as in parabolic_data
    result = HorosphericalData(space, phi.indices, factors, dim_fs, r - r_phi, space.dimension - r - sum_phi_pos)
    if result.dim_Fs + result.dim_euclidean + result.dim_N != space.dimension:
        raise LieFoliateError("horospherical dimensions do not sum to dim M")
    return result
