"""Restricted root systems, parabolic decompositions, and hyperpolar
foliation enumeration for Riemannian symmetric spaces of noncompact type,
with a concrete matrix model for SL(n,R)/SO(n)."""

from .catalog import (
    MultiplicityFunction,
    SpaceDescriptor,
    catalog_entries,
    catalog_lookup,
    root_multiplicity,
    space_dimension,
)
from .errors import LieFoliateError
from .foliations import (
    FoliationClass,
    HyperbolicFactor,
    enumerate_foliations,
    foliation_codimension,
    hyperbolic_factor,
    orthogonal_subsets,
)
from .parabolic import (
    BoundaryFactor,
    HorosphericalData,
    ParabolicData,
    PhiSubset,
    boundary_components,
    horospherical,
    parabolic_data,
    phi_subset,
    root_subsystem,
)
from .roots import (
    DynkinDiagram,
    DynkinEdge,
    DynkinVertex,
    Family,
    Root,
    RootSystem,
    build_root_system,
    diagram_automorphisms,
    dynkin_diagram,
    inner,
    reflect,
    root_from_coords,
)
# The matrix model needs numpy, which costs more to import than the rest of
# the package; its names are resolved on first use (PEP 562).
_SLMODEL_NAMES = frozenset({
    "IwasawaFactors",
    "MatrixElement",
    "Subspace",
    "bracket",
    "build_s_phi_v",
    "cartan_split",
    "is_lie_triple",
    "iwasawa_group",
    "killing_form",
    "moebius",
    "restricted_root_decompose",
})


def __getattr__(name: str):
    if name in _SLMODEL_NAMES:
        from . import slmodel

        value = getattr(slmodel, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BoundaryFactor",
    "DynkinDiagram",
    "DynkinEdge",
    "DynkinVertex",
    "Family",
    "FoliationClass",
    "HorosphericalData",
    "HyperbolicFactor",
    "IwasawaFactors",
    "LieFoliateError",
    "MatrixElement",
    "MultiplicityFunction",
    "ParabolicData",
    "PhiSubset",
    "Root",
    "RootSystem",
    "SpaceDescriptor",
    "Subspace",
    "boundary_components",
    "bracket",
    "build_root_system",
    "build_s_phi_v",
    "cartan_split",
    "catalog_entries",
    "catalog_lookup",
    "diagram_automorphisms",
    "dynkin_diagram",
    "enumerate_foliations",
    "foliation_codimension",
    "horospherical",
    "hyperbolic_factor",
    "inner",
    "is_lie_triple",
    "iwasawa_group",
    "killing_form",
    "moebius",
    "orthogonal_subsets",
    "parabolic_data",
    "phi_subset",
    "reflect",
    "restricted_root_decompose",
    "root_from_coords",
    "root_multiplicity",
    "root_subsystem",
    "space_dimension",
    "__version__",
]
