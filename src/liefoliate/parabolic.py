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

from dataclasses import dataclass
from functools import cached_property

from .catalog import SpaceDescriptor, catalog_lookup
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


@dataclass(frozen=True)
class PhiSubset:
    """A subset of the simple roots, given by sorted 1-based indices."""

    space: SpaceDescriptor
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        r = self.space.rank
        if list(self.indices) != sorted(set(self.indices)):
            raise LieFoliateError("Phi indices must be strictly increasing")
        if any(not 1 <= i <= r for i in self.indices):
            raise LieFoliateError(f"Phi indices must lie in 1..{r}")

    @property
    def r_phi(self) -> int:
        return len(self.indices)

    @cached_property
    def is_orthogonal(self) -> bool:
        """No two chosen vertices are adjacent in the Dynkin diagram."""
        dd = dynkin_diagram(self.space.root_system)
        chosen = set(self.indices)
        return all(not (dd.neighbors(i) & chosen) for i in chosen)


def phi_subset(space: SpaceDescriptor, indices) -> PhiSubset:
    return PhiSubset(space, tuple(sorted(set(int(i) for i in indices))))


def root_subsystem(space: SpaceDescriptor, phi: PhiSubset) -> tuple[frozenset[Root], frozenset[Root]]:
    """(Sigma_Phi, Sigma_Phi^+): the roots lying in the rational span of Phi.

    A root lies in span(Phi) exactly when its expansion over the simple roots
    is supported on Phi, so membership reduces to one test of the root's
    support bitmask against the bits of Phi.
    """
    rs = space.root_system
    masks = rs.support_masks
    outside = ~sum(1 << (i - 1) for i in phi.indices)
    sigma_phi = frozenset(lam for lam, mask in masks.items() if not mask & outside)
    sigma_phi_pos = frozenset(lam for lam in rs.positive if not masks[lam] & outside)
    return sigma_phi, sigma_phi_pos


@dataclass(frozen=True)
class ParabolicData:
    """Dimension data of the parabolic subalgebra attached to Phi.

    Fields whose value requires dim k0 are None when the catalog does not
    provide it.  dim_g_phi and dim_z_phi are only reported for spaces with
    k0 = 0, where the center z_Phi is forced to vanish.
    """

    space: SpaceDescriptor
    phi: tuple[int, ...]
    sigma_phi: frozenset[Root]
    sigma_phi_pos: frozenset[Root]
    dim_a_phi: int
    dim_n_phi: int
    dim_g0: int | None
    dim_l_phi: int | None
    dim_m_phi: int | None
    dim_q_phi: int | None
    dim_p_phi: int
    dim_p_phi_s: int
    dim_k_phi: int | None
    dim_g_phi: int | None
    dim_z_phi: int | None

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
        space = catalog_lookup(data["space"])
        return cls(
            space=space,
            phi=tuple(data["phi"]),
            sigma_phi=frozenset(Root(tuple(c)) for c in data["sigma_phi"]),
            sigma_phi_pos=frozenset(Root(tuple(c)) for c in data["sigma_phi_pos"]),
            **{k: data[k] for k in (
                "dim_a_phi", "dim_n_phi", "dim_g0", "dim_l_phi", "dim_m_phi",
                "dim_q_phi", "dim_p_phi", "dim_p_phi_s", "dim_k_phi",
                "dim_g_phi", "dim_z_phi",
            )},
        )


def parabolic_data(space: SpaceDescriptor, phi: PhiSubset) -> ParabolicData:
    """Chevalley and Langlands dimension data for q_Phi."""
    if phi.space != space:
        raise LieFoliateError("Phi subset belongs to a different space")
    rs = space.root_system
    mult = space.multiplicities
    sigma_phi, sigma_phi_pos = root_subsystem(space, phi)
    r, r_phi = space.rank, phi.r_phi

    sum_phi = sum(mult(lam) for lam in sigma_phi)
    sum_phi_pos = sum(mult(lam) for lam in sigma_phi_pos)
    total_pos = sum(mult(lam) for lam in rs.positive)

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


@dataclass(frozen=True)
class BoundaryFactor:
    """One factor of F_Phi^s, coming from a connected component of Phi."""

    component_indices: tuple[int, ...]
    rank: int
    name: str
    dim: int

    def to_dict(self) -> dict:
        return {
            "component_indices": list(self.component_indices),
            "rank": self.rank,
            "name": self.name,
            "dim": self.dim,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundaryFactor":
        return cls(tuple(data["component_indices"]), data["rank"], data["name"], data["dim"])


def _is_named_sl_component(space: SpaceDescriptor, dd, component, mult) -> bool:
    # The factor of a component is named only when the component is a
    # simply-laced path whose whole subsystem has multiplicity one; the
    # subalgebra generated is then a split special linear algebra.
    for i in component:
        vertex = dd.vertices[i - 1]
        if vertex.double_circle:
            return False
        if len(dd.neighbors(i) & set(component)) > 2:
            return False
        for j in component:
            if j > i:
                e = dd.edge_between(i, j)
                if e is not None and e.lines != 1:
                    return False
    comp_phi = phi_subset(space, component)
    sigma_c, _ = root_subsystem(space, comp_phi)
    return all(mult(lam) == 1 for lam in sigma_c)


def boundary_components(space: SpaceDescriptor, phi: PhiSubset) -> list[BoundaryFactor]:
    """Factors of F_Phi^s, one per connected component of Phi in the diagram."""
    if phi.space != space:
        raise LieFoliateError("Phi subset belongs to a different space")
    dd = dynkin_diagram(space.root_system)
    mult = space.multiplicities
    factors = []
    for component in dd.connected_components(phi.indices):
        comp_phi = phi_subset(space, component)
        _, sigma_pos = root_subsystem(space, comp_phi)
        rank = len(component)
        dim = rank + sum(mult(lam) for lam in sigma_pos)
        if _is_named_sl_component(space, dd, component, mult):
            name = f"SL_{rank + 1}(R)/SO_{rank + 1}"
        else:
            name = f"unnamed rank-{rank} factor"
        factors.append(BoundaryFactor(component, rank, name, dim))
    return factors


@dataclass(frozen=True)
class HorosphericalData:
    """The three factors of M = F_Phi^s x E^{r-r_Phi} x N_Phi."""

    space: SpaceDescriptor
    phi: tuple[int, ...]
    factors: tuple[BoundaryFactor, ...]
    dim_Fs: int
    dim_euclidean: int
    dim_N: int

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
        return cls(
            space=catalog_lookup(data["space"]),
            phi=tuple(data["phi"]),
            factors=tuple(BoundaryFactor.from_dict(f) for f in data["factors"]),
            dim_Fs=data["dim_Fs"],
            dim_euclidean=data["dim_euclidean"],
            dim_N=data["dim_N"],
        )


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
