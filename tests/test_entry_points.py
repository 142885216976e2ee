"""A public entry point given a wrong object raises LieFoliateError, not AttributeError.

Each checks the type of a record argument before it reads any attribute of
it, so an object of another kind that shares an attribute (a ``RootSystem``
has the ``rank`` of a ``SpaceDescriptor``) is refused too.  Every public
callable, and each ``DynkinDiagram`` method that takes vertex indices, given
None, a str, a bool, a float, a negative int or a record of the package in
place of one valid argument, returns or raises LieFoliateError."""

import inspect

import pytest

import liefoliate as lf
from liefoliate import catalog, parabolic, rootsystem, slmodel
from liefoliate.errors import LieFoliateError


@pytest.mark.parametrize("call, message", (
    pytest.param(lambda: catalog.space_dimension(None), "SpaceDescriptor, not a NoneType", id="space_dimension"),
    pytest.param(lambda: rootsystem.dynkin_diagram(None), "RootSystem, not a NoneType", id="dynkin_diagram"),
    pytest.param(lambda: rootsystem.root_multiplicity(None, None), "SpaceDescriptor, not a NoneType",
                 id="root_multiplicity"),
    pytest.param(lambda: rootsystem.root_multiplicity(catalog.catalog_lookup("SL5"), [1, 2]), "Root, not a list",
                 id="root_multiplicity-root"),
    pytest.param(lambda: rootsystem.root_multiplicity(rootsystem.build_root_system("A", 4),
                                                      rootsystem.root_from_coords((1, -1, 0, 0, 0))),
                 "SpaceDescriptor, not a RootSystem", id="root_multiplicity-root-system"),
    pytest.param(lambda: rootsystem.root_multiplicity(rootsystem.build_root_system("A", 4),
                                                      rootsystem.root_from_coords((1, 1, 0, 0, 0))),
                 "SpaceDescriptor, not a RootSystem", id="root_multiplicity-root-system-non-root"),
    pytest.param(lambda: catalog.catalog_lookup("SL5").multiplicities((2, -2, 0, 0, 0)), "Root, not a tuple",
                 id="MultiplicityFunction"),
    pytest.param(lambda: rootsystem.inner((2, 0), (0, 2)), "Root, not a tuple", id="inner"),
    pytest.param(lambda: rootsystem.reflect((2, 0), (0, 2)), "Root, not a tuple", id="reflect"),
    pytest.param(lambda: slmodel.is_lie_triple([[1]]), "Subspace, not a list", id="is_lie_triple"),
    pytest.param(lambda: slmodel.bracket_closure_residual([[1]]), "Subspace, not a list",
                 id="bracket_closure_residual"),
    pytest.param(lambda: parabolic.phi_subset("SL5", (1,)), "SpaceDescriptor, not a str", id="phi_subset"),
    pytest.param(lambda: parabolic.phi_subset(rootsystem.build_root_system("A", 4), [1]),
                 "SpaceDescriptor, not a RootSystem", id="phi_subset-root-system"),
    pytest.param(lambda: parabolic.PhiSubset(None, (1,)), "SpaceDescriptor, not a NoneType", id="PhiSubset"),
    pytest.param(lambda: parabolic.PhiSubset(lf.family_diagram("A", 4), (1,)),
                 "SpaceDescriptor, not a DynkinDiagram", id="PhiSubset-diagram"),
    pytest.param(lambda: slmodel.build_s_phi_v(rootsystem.build_root_system("A", 4), [1], 0),
                 "SpaceDescriptor, not a RootSystem", id="build_s_phi_v-root-system"),
    pytest.param(lambda: parabolic.parabolic_data(None, None), "SpaceDescriptor, not a NoneType",
                 id="parabolic_data"),
    pytest.param(lambda: parabolic.root_subsystem(None, None), "SpaceDescriptor, not a NoneType",
                 id="root_subsystem"),
    pytest.param(lambda: parabolic.horospherical("SL5", None), "SpaceDescriptor, not a str", id="horospherical"),
    pytest.param(lambda: parabolic.boundary_components("SL5", None), "SpaceDescriptor, not a str",
                 id="boundary_components"),
))
def test_a_wrong_object_raises_lie_foliate_error(call, message):
    with pytest.raises(LieFoliateError, match=f"^expected a {message}$"):
        call()


def test_a_root_of_the_wrong_kind_on_either_side_is_named():
    root = rootsystem.root_from_coords((1, -1))
    with pytest.raises(LieFoliateError, match="^expected a Root, not a tuple$"):
        rootsystem.inner(root, (2, 0))
    with pytest.raises(LieFoliateError, match="ambient dimension mismatch: 2 != 3"):
        rootsystem.reflect(root, rootsystem.root_from_coords((1, 0, -1)))


def test_a_subspace_of_arrays_raises_lie_foliate_error():
    numpy = pytest.importorskip("numpy")
    with pytest.raises(LieFoliateError, match="is not a tuple of MatrixElements$"):
        slmodel.Subspace((numpy.array([[1, 0], [0, -1]]),))


def _valid_arguments() -> dict[str, tuple]:
    """Valid values for the required positional parameters of each public callable."""
    sl5, sl3 = lf.catalog_lookup("SL5"), lf.catalog_lookup("SL3")
    phi = lf.phi_subset(sl5, (1, 3))
    dd, rs = lf.family_diagram("A", 2), lf.build_root_system("A", 2)
    root = lf.root_from_coords((1, -1, 0))
    x, y = lf.MatrixElement([[1, 0], [0, -1]]), lf.MatrixElement([[0, 1], [0, 0]])
    g = [[2, 0], [0, 0.5]]
    orbit = lf.enumerate_foliations(sl3)[0]
    return {
        "BoundaryFactor": tuple(lf.boundary_components(sl5, phi)[0]),
        "DynkinDiagram": (dd.vertices, dd.edges),
        "DynkinEdge": tuple(dd.edges[0])[:3],
        "DynkinVertex": tuple(dd.vertices[0]),
        "FoliationClass": tuple(orbit),
        "HorosphericalData": tuple(lf.horospherical(sl5, phi)),
        "HyperbolicFactor": tuple(lf.hyperbolic_factor(sl5, 1)),
        "MatrixElement": ([[1, 0], [0, -1]],),
        "MultiplicityFunction": (sl5.multiplicities.table,),
        "ParabolicData": tuple(lf.parabolic_data(sl5, phi)),
        "PhiOrbit": tuple(orbit.phi_orbit),
        "PhiSubset": (sl5, (1, 3)),
        "Root": (root.scaled,),
        "RootSystem": tuple(rs),
        "SpaceDescriptor": tuple(sl5)[:7],
        "Subspace": ((x, y),),
        "boundary_components": (sl5, phi),
        "bracket": (x, y),
        "build_root_system": ("A", 2),
        "build_s_phi_v": (sl5, (1, 3), 0),
        "cartan_split": (x,),
        "catalog_entries": (),
        "catalog_lookup": ("SL5",),
        "diagram_automorphisms": (dd,),
        "dynkin_diagram": (rs,),
        "enumerate_foliations": (sl5,),
        "family_diagram": ("A", 2),
        "horospherical": (sl5, phi),
        "hyperbolic_factor": (sl5, 1),
        "inner": (root, root),
        "is_lie_triple": (lf.Subspace((x,)),),
        "iter_foliations": (sl5,),
        "iwasawa_group": (g,),
        "killing_form": (x, y),
        "moebius": (g, 1j),
        "orthogonal_subsets": (dd,),
        "parabolic_data": (sl5, phi),
        "phi_subset": (sl5, (1, 3)),
        "reflect": (root, root),
        "restricted_root_decompose": (x,),
        "root_from_coords": ((1, -1, 0),),
        "root_multiplicity": (sl5, lf.root_from_coords((1, -1, 0, 0, 0))),
        "root_subsystem": (sl5, phi),
        "space_dimension": (sl5,),
        "subdiagram_type": (dd, (1, 2)),
    }


def _required(f) -> list[str]:
    """The required positional parameters of f; a named tuple's fields without a
    default, where a ``__new__(cls, *args, **kwargs)`` hides them."""
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    names = [p.name for p in inspect.signature(f).parameters.values()
             if p.kind in kinds and p.default is inspect.Parameter.empty]
    if not names and hasattr(f, "_fields"):
        names = [n for n in f._fields if n not in f._field_defaults]
    return names


def _call(f, args) -> None:
    """Call f, and take the first item of what it returns when that is an iterator."""
    out = f(*args)
    if hasattr(out, "__next__"):
        next(out, None)


def test_every_public_callable_given_a_wrong_value_returns_or_raises_lie_foliate_error():
    valid = _valid_arguments()
    names = [name for name in lf.__all__ if callable(getattr(lf, name))
             and name not in ("Family", "LieFoliateError", "clear_caches")]
    assert sorted(valid) == sorted(names)  # a new public callable is given its valid values here
    dd = lf.family_diagram("D", 4)
    callables = [(name, getattr(lf, name), valid[name]) for name in names]
    callables += [("DynkinDiagram.neighbors", dd.neighbors, (2,)),
                  ("DynkinDiagram.connected_components", dd.connected_components, ((1, 2, 4),))]
    records = (lf.build_root_system("A", 2), dd, lf.catalog_lookup("SL3"),
               lf.phi_subset(lf.catalog_lookup("SL5"), (1, 3)), lf.root_from_coords((1, -1, 0)),
               lf.Subspace((lf.MatrixElement([[1, 0], [0, -1]]),)))
    escaped = []
    for name, f, args in callables:
        params = _required(f)
        assert len(params) == len(args), name
        _call(f, args)
        for k, param in enumerate(params):
            for wrong in (None, "x", True, 2.5, -1, *records):
                try:
                    _call(f, args[:k] + (wrong,) + args[k + 1:])
                except LieFoliateError:
                    pass
                except Exception as exc:  # an escape, reported with the others
                    escaped.append(f"{name}({param}={wrong!r}): {type(exc).__name__}: {exc}")
    assert escaped == []
