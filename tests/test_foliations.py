"""Orthogonal subsets, hyperbolic factors, and foliation class enumeration."""

import itertools
import tracemalloc

import pytest

from liefoliate.catalog import catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import (
    FoliationClass,
    enumerate_foliations,
    hyperbolic_factor,
    orthogonal_subsets,
)
from liefoliate.parabolic import boundary_components, phi_subset
from liefoliate.roots import build_root_system, diagram_automorphisms, dynkin_diagram


def fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def brute_force_independent_sets(dd):
    verts = [v.index for v in dd.vertices]
    out = []
    for k in range(len(verts) + 1):
        for c in itertools.combinations(verts, k):
            if all(b not in dd.neighbors(a) for a, b in itertools.combinations(c, 2)):
                out.append(c)
    return sorted(out)


def test_orthogonal_subsets_a1():
    dd = dynkin_diagram(build_root_system("A", 1))
    assert orthogonal_subsets(dd) == [(), (1,)]


def test_orthogonal_subsets_a4_explicit():
    dd = dynkin_diagram(build_root_system("A", 4))
    subs = orthogonal_subsets(dd)
    assert subs == [(), (1,), (1, 3), (1, 4), (2,), (2, 4), (3,), (4,)]
    assert len(subs) == 8 == fib(6)


@pytest.mark.parametrize("rank", range(1, 13))
def test_orthogonal_subset_count_is_fibonacci(rank):
    dd = dynkin_diagram(build_root_system("A", rank))
    assert len(orthogonal_subsets(dd)) == fib(rank + 2)


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("D", 4), ("E6", 6), ("BC", 3)])
def test_orthogonal_subsets_match_brute_force(family, rank):
    dd = dynkin_diagram(build_root_system(family, rank))
    assert sorted(orthogonal_subsets(dd)) == brute_force_independent_sets(dd)


def test_hyperbolic_factor_real_case():
    sl5 = catalog_lookup("SL5")
    for i in range(1, 5):
        f = hyperbolic_factor(sl5, i)
        assert (f.algebra, f.n, f.real_dim) == ("R", 2, 2)
    # mult n gives RH^{n+1}
    so61 = catalog_lookup("so(6,1)")
    f = hyperbolic_factor(so61, 1)
    assert (f.algebra, f.n, f.real_dim) == ("R", 6, 6)
    # complexified sl_2 gives RH^3
    f = hyperbolic_factor(catalog_lookup("sl(2,C)"), 1)
    assert (f.algebra, f.n) == ("R", 3)


def test_hyperbolic_factor_division_algebras():
    f = hyperbolic_factor(catalog_lookup("f4(-20)"), 1)
    assert (f.algebra, f.n, f.real_dim) == ("O", 2, 16)
    f = hyperbolic_factor(catalog_lookup("su(4,2)"), 2)  # m=4, m2=1
    assert (f.algebra, f.n, f.real_dim) == ("C", 3, 6)
    f = hyperbolic_factor(catalog_lookup("sp(3,2)"), 2)  # m=4, m2=3
    assert (f.algebra, f.n, f.real_dim) == ("H", 2, 8)
    f = hyperbolic_factor(catalog_lookup("e6(-14)"), 2)  # m=8, m2=1
    assert (f.algebra, f.n, f.real_dim) == ("C", 5, 10)


def test_hyperbolic_factor_octonionic_needs_multiplicity_eight():
    f4 = catalog_lookup("f4(-20)")  # (m_alpha, m_2alpha) = (8, 7)
    bad = f4._replace(simple_mults=((6, 7),))
    with pytest.raises(LieFoliateError, match="multiplicity 8"):
        hyperbolic_factor(bad, 1)


def _per_algebra_factor(m, m2):
    """(algebra, n, real_dim) by the rule for each division algebra, or None if rejected."""
    if m2 == 0:
        return "R", m + 1, m + 1
    if m2 == 1:
        return ("C", m // 2 + 1, 2 * (m // 2 + 1)) if m % 2 == 0 else None
    if m2 == 3:
        return ("H", m // 4 + 1, 4 * (m // 4 + 1)) if m % 4 == 0 else None
    if m2 == 7:
        return ("O", 2, 16) if m == 8 else None
    return None


@pytest.mark.parametrize("m2", [0, 1, 2, 3, 7])
def test_hyperbolic_factor_closed_form_matches_the_per_algebra_rules(m2):
    f4 = catalog_lookup("f4(-20)")
    for m in range(1, 17):
        space = f4._replace(simple_mults=((m, m2),))
        expected = _per_algebra_factor(m, m2)
        if expected is None:
            with pytest.raises(LieFoliateError):
                hyperbolic_factor(space, 1)
        else:
            f = hyperbolic_factor(space, 1)
            assert (f.algebra, f.n, f.real_dim) == expected, (m, m2)


def test_hyperbolic_factor_index_validation():
    with pytest.raises(LieFoliateError):
        hyperbolic_factor(catalog_lookup("SL5"), 5)


@pytest.mark.parametrize(
    "name",
    ["sl(6,R)", "so(6,2)", "su(5,2)", "sp(3,2)", "e6(-14)", "f4(-20)", "e8(-24)", "g2(2)"],
)
def test_factor_real_dim_matches_rank_one_boundary_component(name):
    space = catalog_lookup(name)
    for i in range(1, space.rank + 1):
        f = hyperbolic_factor(space, i)
        bf = boundary_components(space, phi_subset(space, [i]))[0]
        assert f.real_dim == bf.dim


@pytest.mark.parametrize("name", ["so(4,1)", "so(7,1)", "su(3,1)", "sp(3,1)", "f4(-20)",
                                  "sl(2,R)", "sl(2,C)", "sl(2,H)"])
def test_rank_one_spaces_have_two_nontrivial_classes(name):
    space = catalog_lookup(name)
    classes = enumerate_foliations(space)
    assert len(classes) == 2
    assert sorted((c.phi, c.dim_v) for c in classes) == [((), 0), ((1,), 0)]
    assert all(c.codim == 1 for c in classes)
    # the horosphere class has leaf dimension dim M - 1
    horo = next(c for c in classes if c.phi == ())
    assert horo.leaf_dim == space.dimension - 1


def test_sl5_enumeration_counts():
    sl5 = catalog_lookup("SL5")
    classes = enumerate_foliations(sl5, include_trivial=True)
    assert len(classes) == 19
    nontrivial = enumerate_foliations(sl5)
    assert len(nontrivial) == 18
    assert {c.phi for c in classes} == {(), (1,), (2,), (1, 3), (1, 4)}
    trivial = [c for c in classes if c.trivial]
    assert len(trivial) == 1
    assert trivial[0].phi == () and trivial[0].dim_v == 4 and trivial[0].codim == 0


def test_sl5_enumeration_against_brute_force_orbits():
    """Oracle: quotient all orthogonal subsets by all diagram symmetries."""
    sl5 = catalog_lookup("SL5")
    dd = dynkin_diagram(sl5.root_system)
    auts = diagram_automorphisms(dd)
    subsets = orthogonal_subsets(dd)
    orbits = set()
    for s in subsets:
        orbits.add(frozenset(tuple(sorted(p[i - 1] for i in s)) for p in auts))
    assert len(orbits) == 5
    expected_classes = sum(sl5.rank - len(min(o)) + 1 for o in orbits)
    assert expected_classes == 19
    # orbit sizes partition the subset count
    assert sum(len(o) for o in orbits) == len(subsets)


def test_sl5_codimension_one_classes():
    sl5 = catalog_lookup("SL5")
    classes = [c for c in enumerate_foliations(sl5) if c.codim == 1]
    assert sorted((c.phi, c.dim_v) for c in classes) == [((), 3), ((1,), 3), ((2,), 3)]


def test_codimension_formula_and_leaf_dims():
    for name in ["sl(5,R)", "su(4,2)", "e6(-14)", "so(5,2)", "f4(4)"]:
        space = catalog_lookup(name)
        for c in enumerate_foliations(space, include_trivial=True):
            assert c.codim == c.r_phi + (space.rank - c.r_phi - c.dim_v)
            assert c.codim + c.leaf_dim == space.dimension
            assert c.trivial == (c.codim == 0)
            # leaf dim assembled from the pieces
            hyper = sum(f.real_dim - 1 for f in c.factors)
            assert c.leaf_dim == hyper + c.dim_v + c.dim_n_phi


def test_spec_codim_examples():
    sl5 = catalog_lookup("SL5")
    classes = {(c.phi, c.dim_v): c for c in enumerate_foliations(sl5, include_trivial=True)}
    assert classes[((), 4)].codim == 0
    assert classes[((), 0)].codim == 4
    c = classes[((1, 3), 1)]
    assert c.codim == 3
    assert c.leaf_dim == (1 + 1) + 1 + 8 == 11


def test_orbits_cover_all_orthogonal_subsets_once():
    for name in ["sl(6,R)", "so(4,4)", "e6(6)", "e6(-14)"]:
        space = catalog_lookup(name)
        dd = dynkin_diagram(space.root_system)
        subsets = set(orthogonal_subsets(dd))
        seen = set()
        for c in enumerate_foliations(space, include_trivial=True):
            if c.dim_v == 0:
                for member in c.orbit:
                    assert member not in seen
                    seen.add(member)
        assert seen == subsets


def test_d4_triality_orbits():
    # hand count: 9 independent sets of the D_4 star; under the 6-element
    # automorphism group the leaves {1},{3},{4} merge, as do the pairs
    so44 = catalog_lookup("so(4,4)")
    classes = enumerate_foliations(so44, include_trivial=True)
    by_phi = {c.phi: c.orbit for c in classes if c.dim_v == 0}
    assert by_phi[(1,)] == ((1,), (3,), (4,))
    assert by_phi[(1, 3)] == ((1, 3), (1, 4), (3, 4))
    assert by_phi[(1, 3, 4)] == ((1, 3, 4),)
    assert len(by_phi) == 5
    assert len(classes) == 18  # 5 + 4 + 4 + 3 + 2 over dim_v ranges


def test_class_ordering_is_deterministic():
    space = catalog_lookup("e6(6)")
    once = [(c.phi, c.dim_v) for c in enumerate_foliations(space)]
    again = [(c.phi, c.dim_v) for c in enumerate_foliations(space)]
    assert once == again
    assert once == sorted(once, key=lambda t: (len(t[0]), t[0], t[1]))


@pytest.mark.parametrize("name", ["SL5", "so(4,4)", "e6(-14)", "sp(3,2)"])
def test_foliation_class_json_round_trip(name):
    for c in enumerate_foliations(catalog_lookup(name), include_trivial=True):
        d = c.to_dict()
        assert d["congruence"].startswith("orbit representative")
        assert FoliationClass.from_dict(d) == c
        assert FoliationClass.from_dict(d).to_dict() == d


def _set(key, value):
    def edit(d):
        d[key] = value
    return edit


def _shift(key):
    def edit(d):
        d[key] += 1
    return edit


def _factor_n(d):
    d["factors"][0]["n"] = 3


def _drop(key):
    def edit(d):
        del d[key]
    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set("orbit", [[1]]), r"disagrees with sl\(5,R\) in orbit$"),
        (_factor_n, r"disagrees with sl\(5,R\) in factors$"),
        (_shift("dim_n_phi"), r"disagrees with sl\(5,R\) in dim_n_phi$"),
        (_set("leaf_dim", 999), r"disagrees with sl\(5,R\) in leaf_dim$"),
        (_shift("codim"), r"disagrees with sl\(5,R\) in codim$"),
        (_set("trivial", True), r"disagrees with sl\(5,R\) in trivial$"),
        (_set("phi", [1, 2]), "not an orthogonal subset"),
        (_set("phi", [4]), "not the representative"),
        (_set("dim_v", 4), "not in 0..3"),
        (_drop("factors"), "lacks factors"),
        (_drop("congruence"), "lacks congruence$"),
        (_set("congruence", "congruent"), r"disagrees with sl\(5,R\) in congruence$"),
    ],
    ids=["orbit", "factors", "dim_n_phi", "leaf_dim", "codim", "trivial",
         "phi-not-orthogonal", "phi-not-representative", "dim_v-out-of-range", "key-missing",
         "congruence-missing", "congruence-edited"],
)
def test_from_dict_rejects_an_edited_record(edit, message):
    (record,) = [c for c in enumerate_foliations(catalog_lookup("SL5")) if (c.phi, c.dim_v) == ((1,), 2)]
    d = record.to_dict()
    edit(d)
    with pytest.raises(LieFoliateError, match=message):
        FoliationClass.from_dict(d)


def test_sl14_enumeration_peak_memory():
    # 3,300 slotted (PhiOrbit, dim V) records peaked at 247 KiB when this
    # bound was set, which leaves 30% headroom (Python 3.11, x86_64); the
    # same records with a per-instance __dict__ peaked at 376 KiB, and the
    # earlier nine-field records at 543 KiB.
    space = catalog_lookup("SL14")
    enumerate_foliations(space)  # fills the cached Phi orbits
    tracemalloc.start()
    try:
        records = enumerate_foliations(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 3300
    assert peak < 320 * 1024
