"""One rule for Phi and dim V, decided in ``parabolic``: a Phi subset belongs
to one space, Phi input is read by one normaliser, and (Phi, dim V) indexes
foliations only when Phi is orthogonal and dim V is an int in 0..r - r_Phi.
Every entry point that takes a Phi, a dim V or a codim raises
LieFoliateError for a value the rule refuses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import numpy
except ImportError:  # the numpy mutants are then left out
    numpy = None

from liefoliate.catalog import SpaceDescriptor, catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import FoliationClass, enumerate_foliations
from liefoliate.parabolic import (
    PhiSubset,
    boundary_components,
    horospherical,
    parabolic_data,
    phi_indices,
    phi_subset,
    root_subsystem,
)
from liefoliate.roots import Family
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


def reference_phi_indices(r, indices):
    """``phi_indices`` with its range check made by separate ``min`` and
    ``max`` passes before the sort: the reference that the reading by one
    ``sorted(set(...))`` must agree with."""
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


def _outcome(read, r, indices):
    """The tuple read, or the message of the LieFoliateError raised."""
    try:
        return read(r, indices)
    except LieFoliateError as exc:
        return str(exc)


# In range, out of range, integral and not, and no number at all.
_INDEX = st.one_of(
    st.integers(-2, 11), st.integers(-2, 11), st.integers(-2**70, 2**70),
    st.sampled_from([2.7, 3.0, 1.0, 0.0, 9.5, -1.0, math.nan, math.inf, -math.inf, True, False,
                     "3", "", "1,3", None, b"3", 1 + 0j]),
    st.floats(), st.lists(st.integers(0, 5), max_size=2), st.lists(st.lists(st.integers(1, 3), max_size=2), max_size=2))
# Lists and tuples of indices, in any order and with repeats, and Phi that is no list.
_PHI = st.one_of(st.lists(_INDEX, max_size=7), st.lists(_INDEX, max_size=7).map(tuple),
                 st.lists(st.integers(1, 9), max_size=7), st.lists(st.integers(1, 9), max_size=7).map(tuple),
                 _INDEX, st.text(alphabet="0123456789, ", max_size=5))
_RANK = st.one_of(st.integers(1, 10), st.integers(1, 10), st.sampled_from([0, -1, True, 2.0, None, "4"]))


@settings(max_examples=800, deadline=None)
@given(_RANK, _PHI)
def test_phi_indices_agrees_with_the_reference(r, indices):
    assert _outcome(phi_indices, r, indices) == _outcome(reference_phi_indices, r, indices)


# Ranks a descriptor made by hand may carry: SpaceDescriptor checks only that
# it equals the number of multiplicities.
_HAND_RANK = st.one_of(st.integers(0, 10), st.sampled_from([0, True, False, 2.0]))


@settings(max_examples=800, deadline=None)
@given(_HAND_RANK, _PHI)
def test_phi_subset_refuses_what_phi_indices_refuses(r, indices):
    space = SpaceDescriptor("hand", "hand", Family.A, r, (1,) * int(r), 0, "hand")
    assert _outcome(lambda _, phi: phi_subset(space, phi).indices, r, indices) == _outcome(phi_indices, r, indices)


def test_phi_subset_refuses_every_phi_of_a_rank_0_descriptor():
    space = SpaceDescriptor("hand", "hand", Family.A, 0, (), 0, "hand")
    for indices in [(), [], (1,), [0]]:
        with pytest.raises(LieFoliateError, match="rank 0 must be an int >= 1"):
            phi_subset(space, indices)


def test_phi_indices_reads_numpy_values_as_the_reference_does():
    np = pytest.importorskip("numpy")
    values = [np.int64(3), np.int32(1), np.int8(0), np.uint16(9), np.int64(4), np.float64(2.0), np.float64(2.5),
              np.float64("nan"), np.float64("inf"), np.bool_(True)]
    cases = [[v] for v in values] + [values[:2], [values[4], values[1], values[4]], values[:5], values]
    for r in (4, 9):
        for indices in cases + [tuple(c) for c in cases] + [np.array(values[:2]), np.array([3.0, 1.0])]:
            assert _outcome(phi_indices, r, indices) == _outcome(reference_phi_indices, r, indices), indices


# Canonical Phi for r in 1..10: ints strictly increasing within 1..r, each
# index chosen with even odds, as a tuple or as a list.
_CANONICAL = st.integers(1, 10).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.booleans(), min_size=r, max_size=r).flatmap(
        lambda chosen: st.sampled_from([tuple, list]).map(
            lambda kind: kind(i for i, c in enumerate(chosen, 1) if c)))))


class _Indices(tuple):
    pass


def _mutants(r, phi):
    """The one-edit mutants of a canonical Phi, none of them canonical: 0 at the
    front or r + 1 at the end, an item repeated next to itself, an item as a
    float or as a numpy integer, True in place of a 1, and a tuple subclass."""
    items = list(phi)
    edits = [[0, *items], [*items, r + 1]]
    edits += [items[:k] + [i] + items[k:] for k, i in enumerate(items)]
    edits += [items[:k] + [float(i)] + items[k + 1:] for k, i in enumerate(items)]
    if numpy is not None:
        edits += [items[:k] + [numpy.int64(i)] + items[k + 1:] for k, i in enumerate(items)]
    if items[:1] == [1]:
        edits.append([True, *items[1:]])
    return [type(phi)(edit) for edit in edits] + [_Indices(items)]


@settings(max_examples=300, deadline=None)
@given(_CANONICAL)
def test_a_canonical_phi_and_its_one_edit_mutants_are_read_as_the_reference_reads_them(case):
    r, phi = case
    space = catalog_lookup(f"SL{r + 1}")
    mutants = _mutants(r, phi)
    for indices in [phi, *mutants]:
        assert _outcome(phi_indices, r, indices) == _outcome(reference_phi_indices, r, indices), indices
    if type(phi) is tuple:
        assert phi_subset(space, phi).indices is phi  # a canonical tuple is kept, not copied
    assert PhiSubset(space, phi).indices == tuple(phi)
    for mutant in mutants:
        with pytest.raises(LieFoliateError, match=rf"must be ints in 1\.\.{r}, strictly increasing"):
            PhiSubset(space, mutant)
