"""Parabolic subalgebra and horospherical decomposition data.

For a subset Phi of the simple roots this module computes the root subsystem
Sigma_Phi, the dimensions occurring in the Chevalley decomposition
q_Phi = l_Phi + n_Phi and the Langlands decomposition
q_Phi = m_Phi + a_Phi + n_Phi, and the factors of the horospherical
decomposition M = F_Phi^s x E^{r - r_Phi} x N_Phi.

Dimensions that require the centralizer dimension dim k0 are reported as
None for catalog entries where that value is not available; the a_Phi and
n_Phi dimensions and the whole horospherical side never need it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .catalog import SpaceDescriptor, catalog_lookup, rebuilt
from .errors import LieFoliateError
from .roots import Root, dynkin_diagram

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
    """A subset of the simple roots, given by sorted 1-based indices.

    No ``__slots__``: the cached property lives in the instance ``__dict__``.
    """

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

    @cached_property
    def is_orthogonal(self) -> bool:
        """No two chosen vertices are adjacent in the Dynkin diagram."""
        dd = dynkin_diagram(self.space.root_system)
        chosen = set(self.indices)
        return all(not (dd.neighbors(i) & chosen) for i in chosen)

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
    return PhiSubset(space, phi_indices(space.rank, indices))


def root_subsystem(space: SpaceDescriptor, phi: PhiSubset) -> tuple[frozenset[Root], frozenset[Root]]:
    """(Sigma_Phi, Sigma_Phi^+): the roots lying in the rational span of Phi.

    A root lies in span(Phi) exactly when its expansion over the simple roots
    is supported on Phi, so membership reduces to one test of the root's
    support bitmask against the bits of Phi.  One pass over the positive
    rows finds both sets, since -lambda has the support of lambda.  A Phi
    subset of another space raises LieFoliateError.
    """
    if phi.space != space:
        raise LieFoliateError("Phi subset belongs to a different space")
    outside = ~sum(1 << (i - 1) for i in phi.indices)  # bit i-1 stands for alpha_i
    inside = [(lam, neg) for lam, neg, mask in space.root_system.rows if not mask & outside]
    sigma_phi_pos = frozenset(lam for lam, _ in inside)
    return sigma_phi_pos.union(neg for _, neg in inside), sigma_phi_pos


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
    sigma_phi, sigma_phi_pos = root_subsystem(space, phi)
    r, r_phi = space.rank, phi.r_phi

    index, mults = space.root_system.positive_index, space.positive_mults
    sum_phi_pos = sum(mults[index[lam]] for lam in sigma_phi_pos)
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

    return ParabolicData(
        space=space,
        phi=phi.indices,
        sigma_phi=sigma_phi,
        sigma_phi_pos=sigma_phi_pos,
        dim_a_phi=dim_a_phi,
        dim_n_phi=dim_n_phi,
        dim_g0=dim_g0,
        dim_l_phi=dim_l,
        dim_m_phi=dim_m,
        dim_q_phi=dim_q,
        dim_p_phi=r + sum_phi_pos,
        dim_p_phi_s=r_phi + sum_phi_pos,
        dim_k_phi=dim_k_phi,
        dim_g_phi=dim_g_phi,
        dim_z_phi=dim_z_phi,
    )


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


def boundary_components(space: SpaceDescriptor, phi: PhiSubset) -> list[BoundaryFactor]:
    """Factors of F_Phi^s, one per connected component of Phi in the diagram."""
    _, sigma_pos = root_subsystem(space, phi)
    rs = space.root_system
    dd = dynkin_diagram(rs)
    components = dd.connected_components(phi.indices)
    # The support of a root is connected, so each root of Sigma_Phi^+ lies in
    # the span of exactly one component: the one holding its lowest set bit.
    component_of = {i: k for k, component in enumerate(components) for i in component}
    rows, index, mults = rs.rows, rs.positive_index, space.positive_mults
    component_mults: list[list[int]] = [[] for _ in components]
    for lam in sigma_pos:
        k = index[lam]
        mask = rows[k][2]
        component_mults[component_of[(mask & -mask).bit_length()]].append(mults[k])
    factors = []
    for component, comp_mults in zip(components, component_mults):
        rank = len(component)
        # A_k is the only irreducible rank-k root system with k(k+1)/2
        # positive roots (D_3 = A_3); with every multiplicity one the factor
        # is split SL.
        if len(comp_mults) == rank * (rank + 1) // 2 and all(m == 1 for m in comp_mults):
            name = f"SL_{rank + 1}(R)/SO_{rank + 1}"
        else:
            name = f"unnamed rank-{rank} factor"
        factors.append(BoundaryFactor(component, rank, name, rank + sum(comp_mults)))
    return factors


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
    """Horospherical decomposition data; the dimensions always sum to dim M."""
    data = parabolic_data(space, phi)
    factors = tuple(boundary_components(space, phi))
    dim_fs = data.dim_p_phi_s
    if sum(f.dim for f in factors) != dim_fs:
        raise LieFoliateError("boundary factor dimensions do not sum to dim F_Phi^s")
    result = HorosphericalData(
        space=space,
        phi=phi.indices,
        factors=factors,
        dim_Fs=dim_fs,
        dim_euclidean=data.dim_a_phi,
        dim_N=data.dim_n_phi,
    )
    if result.dim_Fs + result.dim_euclidean + result.dim_N != space.dimension:
        raise LieFoliateError("horospherical dimensions do not sum to dim M")
    return result
