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
is the product of the components' factors.  A component's count of positive
roots and their multiplicity sum come from the per-type root counts of its
subdiagram (``SpaceDescriptor.span_counts``), and ``parabolic_data``,
``horospherical`` and ``boundary_components`` read one sum of them over the
components (``_sums``), so they walk no root.  The roots themselves come, on each
``root_subsystem`` call, from the raising reflections of each component alone
(``roots.span_roots``), and are not kept: no call builds the space's full
root list, and nothing reads them twice.  The components of Phi are its runs
of consecutive indices, cut where (i, i + 1) is no edge and joined across the
edges (i, j) with j > i + 1, which only D and E have
(``DynkinDiagram._components_of``).  Each space keeps, in a plain dict on its
descriptor (``SpaceDescriptor.components``), one (count, sum, factors) triple
per connected component of a Phi asked for, O(r^2) of them on a classical
diagram: what ``_sums`` gives for that component alone.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .catalog import SpaceDescriptor
from .errors import LieFoliateError
from .roots import DynkinDiagram, Root, expect, span_roots

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
        expect(space, SpaceDescriptor)
        r = space.rank
        if not _is_canonical(r, indices):
            raise LieFoliateError(f"Phi indices {indices!r} must be ints in 1..{r}, strictly increasing")
        return tuple.__new__(cls, (space, tuple(indices)))

    @classmethod
    def _make(cls, iterable) -> "PhiSubset":
        """Build through ``__new__``, so that ``_replace`` checks the fields too."""
        return cls(*iterable)

    @property
    def r_phi(self) -> int:
        return len(self.indices)

    @property
    def is_orthogonal(self) -> bool:
        """No two chosen vertices are adjacent in the Dynkin diagram: each component is one vertex."""
        return len(self.space.diagram._components_of(self.indices)) == len(self.indices)

    def check_foliation(self, dim_v) -> None:
        """Raise unless Phi is orthogonal and dim_v is an int in 0..r - r_Phi, as F_{Phi,V} needs."""
        if not self.is_orthogonal:
            raise LieFoliateError(
                f"phi {list(self.indices)} is not an orthogonal subset of the simple roots of {self.space.name}")
        top = self.space.rank - self.r_phi
        if type(dim_v) is not int or not 0 <= dim_v <= top:
            raise LieFoliateError(f"dim_v {dim_v!r} is not in 0..{top}")


def _is_canonical(r: int, indices) -> bool:
    """Whether ``indices`` is a tuple or a list of ints (no bool, no numpy
    integer) that strictly increase from at least 1 to at most r: one pass, no
    copy, stopping at the first item that fails."""
    if type(indices) is not tuple and type(indices) is not list:
        return False
    last = 0
    for i in indices:
        if type(i) is not int or i <= last:
            return False
        last = i
    return last <= r


def phi_indices(r: int, indices) -> tuple[int, ...]:
    """The distinct simple-root indices of ``indices``, sorted.

    The rank r must be an int >= 1 (a bool is refused).  A Phi that is
    already canonical, a tuple or a list of ints strictly increasing within
    1..r, is read in one pass and returned as ``tuple(indices)``: a tuple is
    returned as it is.  Any other input is copied and sorted: a value is
    taken when it is integral (``int(i) == i``, so 3.0, True and numpy
    integers pass) and lies in 1..r, and any other raises LieFoliateError;
    there the two ends of the sorted distinct values give the range check.
    """
    if type(r) is not int or r < 1:
        raise LieFoliateError(f"rank {r!r} must be an int >= 1")
    if _is_canonical(r, indices):
        return tuple(indices)
    try:
        values = list(indices)
        ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):  # no list of numbers, NaN, infinity
        values, ints = indices, None
    if ints is None or ints != values or (phi := sorted(set(ints))) and (phi[0] < 1 or phi[-1] > r):
        raise LieFoliateError(f"Phi indices {values!r} must be ints in 1..{r}")
    return tuple(phi)


def phi_subset(space: SpaceDescriptor, indices) -> PhiSubset:
    # phi_indices makes every refusal and gives sorted, distinct ints in 1..r, so
    # PhiSubset.__new__ need not check them again
    expect(space, SpaceDescriptor)
    return tuple.__new__(PhiSubset, (space, phi_indices(space.rank, indices)))


def root_subsystem(space: SpaceDescriptor, phi: PhiSubset) -> tuple[frozenset[Root], frozenset[Root]]:
    """(Sigma_Phi, Sigma_Phi^+): the roots lying in the rational span of Phi.

    A root lies in span(Phi) exactly when its expansion over the simple roots
    is supported on Phi, and then on one connected component of Phi, so each
    component is walked once per call, over itself alone; nothing is kept.  A
    Phi subset of another space raises LieFoliateError.
    """
    _sums(space, phi)  # checks space and phi first, and keeps their components' sums on the space
    family, rank, dd = space.family, space.rank, space.diagram
    components = DynkinDiagram._components_of(dd, phi[1])
    pos = frozenset(chain.from_iterable(span_roots(family, rank, dd, c) for c in components))
    return pos.union([-lam for lam in pos]), pos


class ParabolicData(namedtuple("ParabolicData", (
        "space phi n_sigma_phi n_sigma_phi_pos dim_a_phi dim_n_phi dim_g0 dim_l_phi dim_m_phi dim_q_phi "
        "dim_p_phi dim_p_phi_s dim_k_phi dim_g_phi dim_z_phi"))):
    """Dimension data of the parabolic subalgebra attached to Phi.

    ``n_sigma_phi`` and ``n_sigma_phi_pos`` are |Sigma_Phi| and
    |Sigma_Phi^+|.  The record holds no root: the root sets are
    ``root_subsystem(space, phi_subset(space, phi))``, which ``to_dict``
    calls once to list them.
    Fields whose value requires dim k0 are None when the catalog does not
    provide it.  dim_g_phi and dim_z_phi are only reported for spaces with
    k0 = 0, where the center z_Phi is forced to vanish.
    """

    __slots__ = ()

    @property
    def r_phi(self) -> int:
        return len(self.phi)

    def to_dict(self) -> dict:
        sigma_phi, sigma_phi_pos = root_subsystem(self.space, phi_subset(*self[:2]))
        return {
            "space": self.space.name,
            "phi": list(self.phi),
            "sigma_phi": [list(r.scaled) for r in sorted(sigma_phi)],
            "sigma_phi_pos": [list(r.scaled) for r in sorted(sigma_phi_pos)],
            **dict(zip(self._fields[4:], self[4:])),  # dim_a_phi to dim_z_phi, in field order
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParabolicData":
        """Rebuild a record of ``to_dict`` from its space and phi, checking every other field;
        the lengths of its root lists first, against the record's counts, before any root is walked."""
        from .readback import named, rebuilt

        def build(name, phi):
            return parabolic_data(*named(name, phi))

        def sizes(name, phi):
            record = build(name, phi)
            return {"sigma_phi": record.n_sigma_phi, "sigma_phi_pos": record.n_sigma_phi_pos}

        return rebuilt(data, ("space", "phi"), build, "parabolic record", sizes)


def parabolic_data(space: SpaceDescriptor, phi: PhiSubset) -> ParabolicData:
    """Chevalley and Langlands dimension data for q_Phi, from the components'
    counts alone: no root is walked."""
    count, sum_phi_pos, _ = _sums(space, phi)
    r, r_phi = space.rank, len(phi.indices)
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

    # in field order, without the frame of ParabolicData.__new__
    return tuple.__new__(ParabolicData, (space, phi.indices, 2 * count, count, dim_a_phi, dim_n_phi, dim_g0,
                                         dim_l, dim_m, dim_q, r + sum_phi_pos, r_phi + sum_phi_pos, dim_k_phi,
                                         dim_g_phi, dim_z_phi))


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


def _component_sums(space: SpaceDescriptor, component: tuple[int, ...]) -> tuple[int, int, tuple[BoundaryFactor]]:
    """``_sums`` of a connected component, made the first time its space meets
    it: the number and the multiplicity sum of the positive roots it spans, and
    its one factor.  Its roots are not kept: ``root_subsystem`` walks them on
    each call."""
    count, sum_pos = space.span_counts(component)
    rank = len(component)
    # A_k is the only irreducible rank-k root system with k(k+1)/2 positive roots (D_3 = A_3);
    # with every multiplicity one (a sum equal to the count) the factor is split SL.
    split = count == sum_pos == rank * (rank + 1) // 2
    name = f"SL_{rank + 1}(R)/SO_{rank + 1}" if split else f"unnamed rank-{rank} factor"
    return count, sum_pos, (BoundaryFactor(component, rank, name, rank + sum_pos),)


def _sums(space: SpaceDescriptor, phi: PhiSubset) -> tuple[int, int, tuple[BoundaryFactor, ...]]:
    """(|Sigma_Phi^+|, the multiplicity sum over Sigma_Phi^+, the factors of
    F_Phi^s), summed over the components of phi in order
    (``DynkinDiagram._components_of``).  Each component's own sums are made
    the first time the space meets it and kept in the dict ``space.components``,
    so a connected Phi met before is one lookup.  Every maker of a PhiSubset
    checks its space, so a PhiSubset of this very space needs no check."""
    if not isinstance(phi, PhiSubset) or phi[0] is not space:
        expect(space, SpaceDescriptor)
        if not isinstance(phi, PhiSubset):  # a list, a tuple, a str or None
            raise LieFoliateError(f"Phi must be a PhiSubset, as phi_subset(space, indices) makes it; got {phi!r}")
        if phi[0] != space:
            raise LieFoliateError("Phi subset belongs to a different space")
    seen, indices = space.components, phi[1]
    sums = seen.get(indices)  # a connected Phi met before is its one component
    if sums is not None:
        return sums
    count = sum_pos = 0
    factors = []
    # through the class: binding a method to a tuple subclass costs about 0.1 µs a call
    for c in DynkinDiagram._components_of(space.diagram, indices):
        # setdefault: the first stored, under threads too
        part = seen.get(c) or seen.setdefault(c, _component_sums(space, c))
        count += part[0]
        sum_pos += part[1]
        factors += part[2]
    return count, sum_pos, tuple(factors)


def boundary_components(space: SpaceDescriptor, phi: PhiSubset) -> list[BoundaryFactor]:
    """Factors of F_Phi^s, one per connected component of Phi in the diagram."""
    return list(_sums(space, phi)[2])


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
        from .readback import named, rebuilt

        return rebuilt(data, ("space", "phi"), lambda name, phi: horospherical(*named(name, phi)),
                       "horospherical record")


def horospherical(space: SpaceDescriptor, phi: PhiSubset) -> HorosphericalData:
    """Horospherical decomposition data; the dimensions always sum to dim M.

    Only the components' multiplicity sums and factors are read: no root set
    is built.
    """
    _, sum_phi_pos, factors = _sums(space, phi)
    r, r_phi = space.rank, len(phi.indices)
    # dim F_Phi^s = dim p_Phi^s = r_Phi + sum_phi_pos, the sum of the factors' dims, and
    # dim N_Phi = dim n_Phi = (dim M - r) - sum_phi_pos, as in parabolic_data
    return tuple.__new__(HorosphericalData, (space, phi.indices, factors, r_phi + sum_phi_pos, r - r_phi,
                                             space.dimension - r - sum_phi_pos))
