"""One rule for Phi and dim V, decided in ``parabolic``: a Phi subset belongs
to one space, Phi input is read by one normaliser, and (Phi, dim V) indexes
foliations only when Phi is orthogonal and dim V is an int in 0..r - r_Phi.
Every entry point that takes a Phi, a dim V or a codim raises
LieFoliateError for a value the rule refuses."""

import math

import pytest

from liefoliate.catalog import catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import FoliationClass, enumerate_foliations
from liefoliate.parabolic import (
    PhiSubset,
    boundary_components,
    horospherical,
    parabolic_data,
    phi_subset,
    root_subsystem,
)
from liefoliate.slmodel import (
    a_phi_subspace,
    a_subspace,
    build_s_phi_v,
    n_phi_subspace,
    n_subspace,
    p_phi_s_subspace,
    p_phi_subspace,
    phi_blocks,
    q_phi_block_dimension,
    q_phi_subspace,
)

SL5 = catalog_lookup("SL5")


@pytest.mark.parametrize("other, indices", [("SL6", [5]), ("so(5,2)", [1, 2])], ids=["SL6", "so(5,2)"])
@pytest.mark.parametrize("call", [root_subsystem, parabolic_data, boundary_components, horospherical],
                         ids=lambda f: f.__name__)
def test_a_phi_subset_of_another_space_is_refused(call, other, indices):
    with pytest.raises(LieFoliateError, match="belongs to a different space"):
        call(SL5, phi_subset(catalog_lookup(other), indices))


def _read_back(phi, dim_v=0):
    return FoliationClass.from_dict({"space": "SL5", "phi": phi, "dim_v": dim_v})


# Entry point -> a call with Phi given as a list of simple-root indices of SL5.
PHI_ENTRY_POINTS = {
    "phi_subset": lambda phi: phi_subset(SL5, phi),
    "PhiSubset": lambda phi: PhiSubset(SL5, tuple(phi)),
    "FoliationClass.from_dict": _read_back,
    "build_s_phi_v": lambda phi: build_s_phi_v(SL5, phi, 0),
    **{f.__name__: (lambda f: lambda phi: f(4, phi))(f)
       for f in (phi_blocks, q_phi_block_dimension, a_phi_subspace, n_phi_subspace,
                 p_phi_subspace, p_phi_s_subspace, q_phi_subspace)},
}


@pytest.mark.parametrize("index", [2.7, 1.9, "3", None, math.nan, math.inf, 0, 5],
                         ids=["2.7", "1.9", "str", "None", "nan", "inf", "0", "5"])
@pytest.mark.parametrize("call", PHI_ENTRY_POINTS.values(), ids=PHI_ENTRY_POINTS.keys())
def test_a_phi_index_that_is_no_int_in_range_is_refused(call, index):
    with pytest.raises(LieFoliateError, match=r"must be ints in 1\.\.4"):
        call([index])


@pytest.mark.parametrize("call", [PHI_ENTRY_POINTS[k] for k in ("phi_subset", "build_s_phi_v", "phi_blocks")])
def test_phi_that_is_no_list_is_refused(call):
    for phi in (None, 3):
        with pytest.raises(LieFoliateError, match=r"must be ints in 1\.\.4"):
            call(phi)


@pytest.mark.parametrize("call, r", [
    (q_phi_block_dimension, -1),  # gave -1
    (phi_blocks, 0),  # gave [(1,)]
    (phi_blocks, True),  # acted as rank 1
    (phi_blocks, 2.5),  # raised a bare TypeError
    *((f, r) for f in (a_phi_subspace, n_phi_subspace, p_phi_subspace, p_phi_s_subspace,
                       q_phi_subspace) for r in (0, 2.5, "3")),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_a_rank_that_is_no_int_from_one_is_refused(call, r):
    with pytest.raises(LieFoliateError, match=r"rank .* must be an int >= 1"):
        call(r, [])


@pytest.mark.parametrize("r", [0, -2, True, 2.0, None])
@pytest.mark.parametrize("call", [a_subspace, n_subspace], ids=lambda f: f.__name__)
def test_a_and_n_read_the_rank_through_the_phi_rule(call, r):
    with pytest.raises(LieFoliateError, match=r"rank .* must be an int >= 1"):
        call(r)
    assert call(2).dim == {"a_subspace": 2, "n_subspace": 3}[call.__name__]


@pytest.mark.parametrize("dim_v", [True, False, 1.0, 1.5, None, "1", -1, 4])
@pytest.mark.parametrize("call", [lambda d: build_s_phi_v(SL5, [1], d), lambda d: _read_back([1], d)],
                         ids=["build_s_phi_v", "FoliationClass.from_dict"])
def test_a_dim_v_that_is_no_int_in_range_is_refused(call, dim_v):
    with pytest.raises(LieFoliateError, match=r"dim_v .* is not in 0\.\.3"):
        call(dim_v)


def test_build_s_phi_v_refuses_a_bool_dim_v_after_repeated_indices():
    with pytest.raises(LieFoliateError, match=r"dim_v True is not in 0\.\.2"):
        build_s_phi_v(SL5, [1, 3, 3], True)
    assert build_s_phi_v(SL5, [1, 3, 3], 1).dim == SL5.dimension - 3


@pytest.mark.parametrize("codim", [2.0, 1.5, True, False, "1"])
def test_enumeration_refuses_a_codim_that_is_no_int(codim):
    with pytest.raises(LieFoliateError, match="codim"):
        enumerate_foliations(SL5, codim=codim)


@pytest.mark.parametrize("include_trivial", ["no", 1, 0, None])
def test_enumeration_refuses_an_include_trivial_that_is_no_bool(include_trivial):
    with pytest.raises(LieFoliateError, match="include_trivial"):
        enumerate_foliations(SL5, include_trivial=include_trivial)
