"""Restricted root systems, parabolic decompositions, and hyperpolar
foliation enumeration for Riemannian symmetric spaces of noncompact type,
with a concrete matrix model for SL(n,R)/SO(n).

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a caller pays only for
the modules it uses.  No module imports numpy: the matrix model ``slmodel``
computes exactly with ints and Fractions, and its group factorization
g = k a n is the plain-Python ``iwasawa.factor``, which the CLI's ``slmodel
iwasawa`` calls without loading ``slmodel``.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("SpaceDescriptor", "catalog_entries", "catalog_lookup", "space_dimension"),
    "errors": ("LieFoliateError",),
    "foliations": ("FoliationClass", "HyperbolicFactor", "PhiOrbit", "enumerate_foliations",
                   "hyperbolic_factor", "iter_foliations", "orthogonal_subsets"),
    "parabolic": ("BoundaryFactor", "HorosphericalData", "ParabolicData", "PhiSubset",
                  "boundary_components", "horospherical", "parabolic_data", "phi_subset",
                  "root_subsystem"),
    "roots": ("DynkinDiagram", "DynkinEdge", "DynkinVertex", "Family", "Root", "diagram_automorphisms",
              "family_diagram", "subdiagram_type"),
    "rootsystem": ("MultiplicityFunction", "RootSystem", "build_root_system", "dynkin_diagram", "inner",
                   "reflect", "root_from_coords", "root_multiplicity"),
    "slmodel": ("MatrixElement", "Subspace", "bracket", "build_s_phi_v", "cartan_split", "is_lie_triple",
                "iwasawa_group", "killing_form", "moebius", "restricted_root_decompose"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__", "clear_caches"]


def clear_caches() -> None:
    """Call each ``cache_clear`` in the loaded ``liefoliate`` modules, so the next call runs as
    in a fresh process: the interned descriptors go too, with all that is cached on them."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == __name__:
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
