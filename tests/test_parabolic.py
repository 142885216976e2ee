"""Root subsystems, parabolic dimension data, horospherical decompositions."""

import gc
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefoliate import clear_caches, parabolic
from liefoliate.catalog import SpaceDescriptor, catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.parabolic import (
    HorosphericalData,
    ParabolicData,
    PhiSubset,
    boundary_components,
    horospherical,
    parabolic_data,
    phi_subset,
    root_subsystem,
)
from liefoliate.roots import MAX_RANK, Family, build_root_system, diagram_automorphisms, dynkin_diagram, span_roots


def in_rational_span(vectors, target):
    """Oracle: exact Gaussian elimination deciding span membership."""
    if not vectors:
        return all(c == 0 for c in target.scaled)
    rows = [[Fraction(c) for c in v.scaled] for v in vectors]
    t = [Fraction(c) for c in target.scaled]
    basis = []
    for v in rows:
        w = list(v)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if w[lead] != 0:
                f = w[lead] / b[lead]
                w = [a - f * c for a, c in zip(w, b)]
        if any(w):
            basis.append(w)
    w = list(t)
    for b in basis:
        lead = next(i for i, x in enumerate(b) if x != 0)
        if w[lead] != 0:
            f = w[lead] / b[lead]
            w = [a - f * c for a, c in zip(w, b)]
    return not any(w)


def all_phi(space):
    r = space.rank
    return [
        phi_subset(space, c)
        for k in range(r + 1)
        for c in itertools.combinations(range(1, r + 1), k)
    ]


def test_phi_subset_validation():
    sl5 = catalog_lookup("SL5")
    with pytest.raises(LieFoliateError):
        phi_subset(sl5, [0])
    with pytest.raises(LieFoliateError):
        phi_subset(sl5, [5])
    assert phi_subset(sl5, [3, 1, 3]).indices == (1, 3)
    for indices in [(1.5,), (1.0,), (True,), (1, "3")]:
        with pytest.raises(LieFoliateError, match="must be ints in 1..4"):
            PhiSubset(sl5, indices)
    assert phi_subset(sl5, [3.0, True]).indices == (1, 3)


def test_phi_subset_reads_numpy_integers():
    np = pytest.importorskip("numpy")
    sl5 = catalog_lookup("SL5")
    assert phi_subset(sl5, (i for i in [np.int64(3), 1.0])).indices == (1, 3)


def test_phi_subset_orthogonality_flag():
    sl5 = catalog_lookup("SL5")
    assert phi_subset(sl5, [1, 3]).is_orthogonal
    assert phi_subset(sl5, []).is_orthogonal
    assert not phi_subset(sl5, [1, 2]).is_orthogonal
    so44 = catalog_lookup("so(4,4)")
    assert phi_subset(so44, [1, 3, 4]).is_orthogonal  # the three leaves of D_4
    assert not phi_subset(so44, [2, 3]).is_orthogonal


def test_phi_subset_keeps_no_instance_dict():
    assert not hasattr(phi_subset(catalog_lookup("SL5"), [1, 3]), "__dict__")


def test_root_subsystem_empty_phi():
    sl5 = catalog_lookup("SL5")
    sigma, sigma_pos = root_subsystem(sl5, phi_subset(sl5, []))
    assert sigma == frozenset() and sigma_pos == frozenset()


def test_root_subsystem_sl5_examples():
    sl5 = catalog_lookup("SL5")
    rs = sl5.root_system
    sigma, sigma_pos = root_subsystem(sl5, phi_subset(sl5, [1, 3]))
    a1, a3 = rs.simple[0], rs.simple[2]
    assert sigma == {a1, -a1, a3, -a3}
    assert len(sigma_pos) == 2
    sigma, _ = root_subsystem(sl5, phi_subset(sl5, [1, 2]))
    assert len(sigma) == 6  # an A_2 subsystem


@pytest.mark.parametrize("name", ["sl(5,R)", "so(5,2)", "su(4,2)", "f4(4)", "g2(2)", "so(4,4)"])
def test_root_subsystem_matches_span_oracle(name):
    space = catalog_lookup(name)
    rs = space.root_system
    for phi in all_phi(space):
        span_basis = [rs.simple[i - 1] for i in phi.indices]
        sigma, sigma_pos = root_subsystem(space, phi)
        expected = frozenset(lam for lam in rs.roots if in_rational_span(span_basis, lam))
        assert sigma == expected
        assert sigma_pos == sigma & frozenset(rs.positive)


def test_parabolic_sl5_spec_values():
    sl5 = catalog_lookup("SL5")
    d = parabolic_data(sl5, phi_subset(sl5, []))
    assert (d.dim_a_phi, d.dim_n_phi, d.dim_q_phi) == (4, 10, 14)
    d = parabolic_data(sl5, phi_subset(sl5, [1, 3]))
    assert (d.dim_n_phi, d.dim_l_phi, d.dim_m_phi, d.dim_q_phi) == (8, 8, 6, 16)
    assert d.r_phi == 2
    d = parabolic_data(sl5, phi_subset(sl5, [1, 2, 3, 4]))
    assert d.dim_q_phi == 24  # all of sl_5
    assert d.dim_a_phi == 0 and d.dim_n_phi == 0


def test_parabolic_empty_phi_gives_full_a():
    for name in ["so(5,2)", "e6(-14)", "sp(3,R)"]:
        space = catalog_lookup(name)
        d = parabolic_data(space, phi_subset(space, []))
        assert d.dim_a_phi == space.rank
        assert d.sigma_phi == frozenset()


def test_parabolic_k0_unavailable_marks_dims_none():
    su = catalog_lookup("su(4,2)")
    d = parabolic_data(su, phi_subset(su, [1]))
    assert d.dim_l_phi is None and d.dim_m_phi is None and d.dim_q_phi is None
    assert d.dim_g0 is None and d.dim_k_phi is None
    assert d.dim_g_phi is None and d.dim_z_phi is None
    # a and n dims are still exact
    assert d.dim_a_phi == 1
    assert d.dim_n_phi == 12


def test_parabolic_split_space_has_all_dims():
    f44 = catalog_lookup("f4(4)")
    for phi in all_phi(f44):
        d = parabolic_data(f44, phi)
        assert None not in (d.dim_g0, d.dim_l_phi, d.dim_m_phi, d.dim_q_phi,
                            d.dim_k_phi, d.dim_g_phi, d.dim_z_phi)
        assert d.dim_z_phi == 0
        assert d.dim_q_phi == d.dim_l_phi + d.dim_n_phi
        assert d.dim_m_phi == d.dim_l_phi - d.dim_a_phi


@pytest.mark.parametrize("name", ["sl(4,R)", "so(5,2)", "su(3,1)", "sp(2,2)", "e6(2)"])
def test_monotonicity_in_phi(name):
    space = catalog_lookup(name)
    r = space.rank
    for phi in all_phi(space):
        d1 = parabolic_data(space, phi)
        for j in range(1, r + 1):
            if j in phi.indices:
                continue
            d2 = parabolic_data(space, phi_subset(space, phi.indices + (j,)))
            assert d1.dim_n_phi >= d2.dim_n_phi
            assert d1.dim_a_phi >= d2.dim_a_phi


def test_phi_subset_count_and_orbit_count():
    # 2^r subsets; orbits under the diagram automorphisms counted by brute force
    for name, expected_orbits in [("sl(3,R)", 3), ("sl(5,R)", 10), ("so(5,2)", 4)]:
        space = catalog_lookup(name)
        r = space.rank
        subsets = [phi.indices for phi in all_phi(space)]
        assert len(subsets) == 2 ** r
        dd = dynkin_diagram(space.root_system)
        auts = diagram_automorphisms(dd)
        orbits = set()
        for s in subsets:
            orbit = frozenset(tuple(sorted(p[i - 1] for i in s)) for p in auts)
            orbits.add(orbit)
        assert len(orbits) == expected_orbits


def test_horospherical_sl5_spec_values():
    sl5 = catalog_lookup("SL5")
    h = horospherical(sl5, phi_subset(sl5, []))
    assert (h.dim_Fs, h.dim_euclidean, h.dim_N) == (0, 4, 10)
    assert h.factors == ()
    h = horospherical(sl5, phi_subset(sl5, [1, 3]))
    assert (h.dim_Fs, h.dim_euclidean, h.dim_N) == (4, 2, 8)
    assert [f.name for f in h.factors] == ["SL_2(R)/SO_2", "SL_2(R)/SO_2"]
    h = horospherical(sl5, phi_subset(sl5, [1, 2]))
    assert (h.dim_Fs, h.dim_euclidean, h.dim_N) == (5, 2, 7)
    assert [f.name for f in h.factors] == ["SL_3(R)/SO_3"]


@pytest.mark.parametrize(
    "name",
    ["sl(5,R)", "so(5,2)", "su(4,2)", "sp(2,1)", "e6(-14)", "f4(-20)", "g2(2)",
     "so(4,4)", "f4(4)", "e6(2)", "so(5,H)", "sp(2,2)", "e7(7)", "so(7,C)"],
)
def test_horospherical_conservation(name):
    space = catalog_lookup(name)
    for phi in all_phi(space):
        h = horospherical(space, phi)
        assert h.dim_Fs + h.dim_euclidean + h.dim_N == space.dimension
        assert sum(f.dim for f in h.factors) == h.dim_Fs


@pytest.fixture
def walks(monkeypatch):
    """The components whose roots ``parabolic`` walks during the test, in order."""
    walked = []

    def counted(family, rank, dd, component):
        walked.append(component)
        return span_roots(family, rank, dd, component)

    monkeypatch.setattr(parabolic, "span_roots", counted)
    return walked


SO24 = catalog_lookup("so(24,C)")  # D_12: 10 is joined to 9, 11 and 12


@pytest.mark.parametrize("call", [horospherical, parabolic_data, boundary_components, root_subsystem],
                         ids=lambda f: f.__name__)
def test_a_warm_call_on_seen_components_reads_no_row(call, walks):
    # On components met before, the counts and factors are read off the store and
    # no root is walked; root_subsystem and to_dict walk each component once, as
    # on every call, since no root set is kept.
    phi = (1, 3) + tuple(range(7, 13))
    components = [(1,), (3,), tuple(range(7, 13))]
    expected = call(SO24, phi_subset(SO24, phi))
    expected_roots = expected.to_dict() if call is parabolic_data else None  # walked before the count starts
    clear_caches()
    walks.clear()  # what the expected call walked
    so24 = catalog_lookup("so(24,C)")  # with nothing kept on it, as in a fresh process
    parabolic_data(so24, phi_subset(so24, phi))  # the components' counts alone
    assert walks == [] and sorted(so24.components.seen) == sorted(components)
    for calls in (1, 2):
        got = call(so24, phi_subset(so24, phi))
        assert got == expected
        assert walks == (components * calls if call is root_subsystem else [])
    if expected_roots is not None:
        assert got.to_dict() == expected_roots
        assert walks == components


def test_a_cold_call_walks_each_missing_component_once(walks):
    clear_caches()
    fresh = SO24._replace()  # a descriptor with nothing cached, as in a fresh process
    seen = fresh.components.seen
    phi = phi_subset(fresh, (1, 3, 7, 8))
    h = horospherical(fresh, phi)
    assert walks == [] and sorted(seen) == [(1,), (3,), (7, 8)]
    wide = phi_subset(fresh, (1, 3, 5, 10, 11, 12))
    d = parabolic_data(fresh, wide)  # counts alone: no component is walked
    assert walks == [] and sorted(seen) == [(1,), (3,), (5,), (7, 8), (10, 11, 12)]
    data = d.to_dict()  # walks the four components, the two seen and the two not, once each
    assert walks == [(1,), (3,), (5,), (10, 11, 12)]
    sigma, sigma_pos = root_subsystem(fresh, wide)  # walks them once each again: no root set is kept
    assert walks[4:] == [(1,), (3,), (5,), (10, 11, 12)]
    assert (len(sigma), len(sigma_pos)) == (d.n_sigma_phi, d.n_sigma_phi_pos) == \
        (len(data["sigma_phi"]), len(data["sigma_phi_pos"]))
    assert h.factors == tuple(boundary_components(fresh, phi))
    d = parabolic_data(fresh, phi)
    assert (h.dim_Fs, h.dim_euclidean, h.dim_N) == (d.dim_p_phi_s, d.dim_a_phi, d.dim_n_phi)
    assert walks[8:] == []
    assert len(d.sigma_phi_pos) == d.n_sigma_phi_pos  # reading the roots walks each component once
    assert walks[8:] == [(1,), (3,), (7, 8)]
    assert d == parabolic_data(SO24, phi_subset(SO24, (1, 3, 7, 8)))
    assert build_root_system.cache_info().misses == 0  # no whole root system was built


def test_a_dropped_record_of_a_large_phi_leaves_no_root_set_allocated():
    # Phi = 1..100 but 50 of SL101 spans A_49 + A_50, 2,500 positive roots of 101
    # coordinates: kept on the space, their frozensets hold 4.8 MiB.
    sl101 = catalog_lookup("SL101")
    phi = phi_subset(sl101, [i for i in range(1, 101) if i != 50])
    tracemalloc.start()
    try:
        data = parabolic_data(sl101, phi).to_dict()
        assert len(data["sigma_phi_pos"]) == 49 * 50 // 2 + 50 * 51 // 2
        del data
        gc.collect()  # which empties the interpreter's free lists of tuples and dicts too
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_boundary_components_sl5():
    sl5 = catalog_lookup("SL5")
    factors = boundary_components(sl5, phi_subset(sl5, [1, 4]))
    assert [(f.component_indices, f.name, f.dim) for f in factors] == [
        ((1,), "SL_2(R)/SO_2", 2),
        ((4,), "SL_2(R)/SO_2", 2),
    ]
    factors = boundary_components(sl5, phi_subset(sl5, [2, 3]))
    assert [(f.name, f.dim, f.rank) for f in factors] == [("SL_3(R)/SO_3", 5, 2)]
    assert boundary_components(sl5, phi_subset(sl5, [])) == []
    # the full Phi recovers the whole space
    factors = boundary_components(sl5, phi_subset(sl5, [1, 2, 3, 4]))
    assert [(f.name, f.dim) for f in factors] == [("SL_5(R)/SO_5", 14)]


def test_boundary_component_naming_rules():
    # short-root components and multiple-edge components are not SL-named
    so52 = catalog_lookup("so(5,2)")
    f = boundary_components(so52, phi_subset(so52, [2]))[0]
    assert f.name == "unnamed rank-1 factor" and f.dim == 4  # RH^4 worth of data
    f = boundary_components(so52, phi_subset(so52, [1, 2]))[0]
    assert f.name == "unnamed rank-2 factor"
    # a long mult-1 A_2 inside a mixed F4 space is named
    e8m = catalog_lookup("e8(-24)")
    f = boundary_components(e8m, phi_subset(e8m, [1, 2]))[0]
    assert f.name == "SL_3(R)/SO_3"
    # its short-root partner carries multiplicity 8 and is not
    f = boundary_components(e8m, phi_subset(e8m, [3, 4]))[0]
    assert f.name == "unnamed rank-2 factor"
    # BC last vertex is never SL-named
    su31 = catalog_lookup("su(3,1)")
    f = boundary_components(su31, phi_subset(su31, [1]))[0]
    assert f.name == "unnamed rank-1 factor" and f.dim == 6  # CH^3


def test_d_family_star_component_not_named():
    so44 = catalog_lookup("so(4,4)")
    f = boundary_components(so44, phi_subset(so44, [1, 2, 3, 4]))[0]
    assert f.name == "unnamed rank-4 factor"
    # but a path component inside D_4 is a genuine split SL factor
    f = boundary_components(so44, phi_subset(so44, [2, 3]))[0]
    assert f.name == "SL_3(R)/SO_3"


def test_parabolic_json_round_trip():
    sl5 = catalog_lookup("SL5")
    d = parabolic_data(sl5, phi_subset(sl5, [1, 3]))
    assert ParabolicData.from_dict(d.to_dict()) == d
    h = horospherical(sl5, phi_subset(sl5, [1, 2]))
    assert HorosphericalData.from_dict(h.to_dict()) == h
    su = catalog_lookup("su(4,2)")
    d = parabolic_data(su, phi_subset(su, [2]))
    assert ParabolicData.from_dict(d.to_dict()) == d


@pytest.mark.parametrize("record_type, build", [
    (ParabolicData, parabolic_data), (HorosphericalData, horospherical),
])
def test_from_dict_rejects_a_record_the_space_does_not_give(record_type, build):
    sl5 = catalog_lookup("SL5")
    data = build(sl5, phi_subset(sl5, [1, 3])).to_dict()
    for key, value in [("dim_n_phi", 999), ("dim_N", 999), ("dim_euclidean", 0),
                       ("sigma_phi_pos", []), ("factors", [])]:
        if key in data:
            with pytest.raises(LieFoliateError, match=f"disagrees with sl\\(5,R\\) in {key}"):
                record_type.from_dict({**data, key: value})
    for key in data:
        edited = {k: v for k, v in data.items() if k != key}
        with pytest.raises(LieFoliateError, match=f"lacks {key}"):
            record_type.from_dict(edited)
    for phi in ([3, 1], [0], "13", None):
        with pytest.raises(LieFoliateError):
            record_type.from_dict({**data, "phi": phi})


# A record of the same space has a ``space`` attribute too, and raised AttributeError on ``indices``.
_RECORD = parabolic_data(catalog_lookup("SL5"), phi_subset(catalog_lookup("SL5"), [1, 3]))


@pytest.mark.parametrize("phi", [[1, 3], (1, 3), "1,3", None, _RECORD], ids=["list", "tuple", "str", "None", "record"])
@pytest.mark.parametrize("call", [parabolic_data, horospherical, boundary_components, root_subsystem])
def test_a_phi_that_is_no_phi_subset_is_a_domain_error(call, phi):
    # each raised AttributeError: '<type>' object has no attribute 'space'
    with pytest.raises(LieFoliateError, match="phi_subset"):
        call(catalog_lookup("SL5"), phi)


# The families whose diagram is a path, edges (i, i + 1) alone, those of one
# rank, and the least rank of each family.
PATHS = {Family.A, Family.B, Family.C, Family.BC, Family.F4, Family.G2}
FIXED = {Family.E6, Family.E7, Family.E8, Family.F4, Family.G2}
LEAST_RANK = {Family.A: 1, Family.B: 2, Family.C: 2, Family.D: 3, Family.BC: 1,
              Family.E6: 6, Family.E7: 7, Family.E8: 8, Family.F4: 4, Family.G2: 2}


def hand_built(family: Family, rank: int) -> SpaceDescriptor:
    """A descriptor of the family's diagram made without the catalog, every multiplicity 1."""
    mults = (1,) * (rank - 1) + (((1, 1),) if family is Family.BC else (1,))
    return SpaceDescriptor(f"{family.value}{rank}", f"{family.value}{rank}", family, rank, mults, 0, "hand")


@pytest.mark.parametrize("family, rank", [(f, r) for f, least in LEAST_RANK.items()
                                          for r in range(least, (least if f in FIXED else 10) + 1)],
                         ids=lambda x: str(getattr(x, "value", x)))
def test_the_split_of_every_phi_is_its_connected_components(family, rank):
    space = hand_built(family, rank)
    split, dd = space.components.split, space.diagram
    assert (split is parabolic._runs) == (family in PATHS)
    for mask in range(1 << rank):
        phi = tuple(i for i in range(1, rank + 1) if mask >> (i - 1) & 1)
        assert split(phi) == dd.connected_components(phi), phi


@st.composite
def large_phi(draw):
    family = draw(st.sampled_from([Family.A, Family.B, Family.C, Family.BC, Family.D, Family.E6, Family.E7,
                                   Family.E8]))
    least = LEAST_RANK[family]
    rank = draw(st.integers(least, least if family in FIXED else MAX_RANK))
    # runs of chosen and skipped vertices, so that long components come up
    phi, i = [], 1
    while i <= rank:
        length = draw(st.integers(1, max(1, rank // 4)))
        if draw(st.booleans()):
            phi += range(i, min(i + length, rank + 1))
        i += length
    return hand_built(family, rank), tuple(phi)


@settings(max_examples=60, deadline=None)
@given(large_phi())
def test_the_components_of_a_phi_up_to_rank_1000_are_its_connected_components(case):
    space, phi = case
    components = parabolic._components(space, phi_subset(space, phi))
    assert [c.indices for c in components] == space.diagram.connected_components(phi)
    assert parabolic._components(space, phi_subset(space, phi)) == components  # warm: the same components
