"""Every per-process cache of the package names the traffic that reads it.

Each ``lru_cache`` and ``cached_property`` under ``src/liefoliate`` is listed
here with its reader, as the review of ROADMAP item 15 found it (README's
list of derived data gives the numbers), and so is each slot of a class with
a nonempty ``__slots__``: such a class is a store that a descriptor keeps, and
a slot of it outlives the call that filled it as a cache does.  A cache or a
slot added without an entry, or an entry whose cache or slot is gone, fails
the test: a new store is reviewed first.
"""

import ast
from pathlib import Path

import liefoliate

PACKAGE = Path(liefoliate.__file__).resolve().parent

CACHE_READERS = {
    # lru_cache
    "catalog.catalog_entries": "cli_cold: an exceptional name reads the entries twice in one process "
                               "(_exceptional, then _instantiate), and catalog list",
    "catalog._instantiate": "structure_warm: every spelling of a space shares one descriptor and all cached on it",
    "catalog._lookup": "structure_warm: a repeated spelling skips the grammar",
    "rootsystem._built_root_system": "verify --suite all (criteria 1 and 2 build the same systems again) "
                                     "and root_multiplicity",
    "slmodel._element": "verify --suite all: the subspace builders make the same E_ij, h_i and E_ij + E_ji again",
    "slmodel._killing_terms": "killing_form on one size again, as verify criterion 5 makes it",
    # cached_property
    "catalog.SpaceDescriptor.diagram": "structure_warm: every parabolic, horospherical and foliations call",
    "catalog.SpaceDescriptor.diagram_is_path": "structure_warm: the components of a Phi not met as one component",
    "catalog.SpaceDescriptor.components": "structure_warm: every parabolic_data, horospherical, boundary_components "
                                          "and root_subsystem call",
    "catalog.SpaceDescriptor.orbits": "structure_warm: a full enumeration returns the kept records",
    "catalog.SpaceDescriptor.multiplicities": "root_multiplicity: the table per squared length, O(r) to read",
    "catalog.SpaceDescriptor.dimension": "structure_warm: every parabolic_data and horospherical call, and dimension",
    "rootsystem.RootSystem.positive_index": "simple_coefficients, which verify criterion 2 calls for every root",
    "rootsystem.RootSystem._dynkin_diagram": "dynkin_diagram: the diagram the build made, the same on every call",
    "roots.DynkinDiagram._entries": "cli_cold: each new component's subdiagram_type and span_roots",
    "roots.DynkinDiagram.cartan": "RootSystem.from_dict, which reads it twice, and every root-list build",
    "roots.DynkinDiagram._adjacency": "structure_warm: PhiSubset.is_orthogonal and each walk of the layers",
    "roots.DynkinDiagram._automorphisms": "structure_warm: the spaces on one diagram share one search",
    "roots.DynkinDiagram._neighbor_masks": "structure_warm: the components of a Phi on a D or E diagram",
}

SLOT_READERS = {
    "foliations.SpaceOrbits.space": "SpaceOrbits.phi_orbit and layers: the space a new PhiOrbit is built on",
    "foliations.SpaceOrbits.auts": "SpaceOrbits.phi_orbit: the images of a Phi met for the first time",
    "foliations.SpaceOrbits.factors": "SpaceOrbits.phi_orbit: the hyperbolic factors of each new PhiOrbit",
    "foliations.SpaceOrbits.by_rep": "structure_warm: every enumeration, with or without codim, and read-back",
    "foliations.SpaceOrbits.records": "structure_warm: a full enumeration returns the kept tuple",
    "foliations.SpaceOrbits.trivial": "enumerate_foliations(include_trivial=True), which puts it back at index r",
    "parabolic._Component.indices": "root_subsystem: the span_roots walk of each component, on every call",
    "parabolic._Component.count": "structure_warm: parabolic_data, the number of positive roots of Sigma_Phi",
    "parabolic._Component.sum_pos": "structure_warm: parabolic_data and horospherical, the multiplicity sums",
    "parabolic._Component.factor": "structure_warm: horospherical and boundary_components, the factors of F_Phi^s",
}

CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _decorator_name(node: ast.expr) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _caches() -> tuple[set[str], int]:
    """The qualified names of the decorated caches, and how many times a cache decorator's name occurs at all."""
    found, mentions = set(), 0
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mentions += sum(1 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                        and (node.id if isinstance(node, ast.Name) else node.attr) in CACHE_DECORATORS)
        scopes = [(module, tree.body)] + [(f"{module}.{node.name}", node.body) for node in ast.walk(tree)
                                          if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, ast.FunctionDef) and any(
                        _decorator_name(d) in CACHE_DECORATORS for d in node.decorator_list):
                    found.add(f"{prefix}.{node.name}")
    return found, mentions


def test_every_cache_is_listed_with_its_reader():
    found, mentions = _caches()
    assert found == set(CACHE_READERS)
    assert mentions == len(found)  # no cache is made but by a decorator, such as lru_cache()(f)
    assert all(CACHE_READERS.values())


def _slots() -> set[str]:
    """The qualified names of the slots of every class whose ``__slots__`` names any."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                            for t in node.targets):
                        slots = ast.literal_eval(node.value)
                        found.update(f"{module}.{cls.name}.{slot}"
                                     for slot in ((slots,) if isinstance(slots, str) else slots))
    return found


def test_every_slot_of_a_store_is_listed_with_its_reader():
    assert _slots() == set(SLOT_READERS)
    assert all(SLOT_READERS.values())
