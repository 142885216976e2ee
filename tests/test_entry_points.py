"""A public entry point given a wrong object raises LieFoliateError, not AttributeError.

Each reads its argument's attributes unchecked and checks the type only once
that has failed, so a call with the right objects pays no check."""

import pytest

from liefoliate import catalog, parabolic, rootsystem, slmodel
from liefoliate.errors import LieFoliateError


@pytest.mark.parametrize("call, message", (
    pytest.param(lambda: catalog.space_dimension(None), "SpaceDescriptor, not a NoneType", id="space_dimension"),
    pytest.param(lambda: rootsystem.dynkin_diagram(None), "RootSystem, not a NoneType", id="dynkin_diagram"),
    pytest.param(lambda: rootsystem.root_multiplicity(None, None), "SpaceDescriptor, not a NoneType",
                 id="root_multiplicity"),
    pytest.param(lambda: rootsystem.inner((2, 0), (0, 2)), "Root, not a tuple", id="inner"),
    pytest.param(lambda: rootsystem.reflect((2, 0), (0, 2)), "Root, not a tuple", id="reflect"),
    pytest.param(lambda: slmodel.is_lie_triple([[1]]), "Subspace, not a list", id="is_lie_triple"),
    pytest.param(lambda: slmodel.bracket_closure_residual([[1]]), "Subspace, not a list",
                 id="bracket_closure_residual"),
    pytest.param(lambda: parabolic.phi_subset("SL5", (1,)), "SpaceDescriptor, not a str", id="phi_subset"),
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
