"""Orthogonal subsets, hyperbolic factors, and foliation class enumeration."""

import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from liefoliate import clear_caches, foliations
from liefoliate.catalog import catalog_lookup
from liefoliate.commands.foliations import write_json
from liefoliate.errors import LieFoliateError
from liefoliate.foliations import (
    FoliationClass,
    PhiOrbit,
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


@pytest.mark.parametrize("index", [5, 0, True, 1.0, "1", None])
def test_hyperbolic_factor_index_validation(index):
    # a bool is no index: True was read as alpha_1, 1.0 and "1" raised TypeError
    space = catalog_lookup("SL5")
    for call in (space.m_alpha, space.m_2alpha, lambda i: hyperbolic_factor(space, i)):
        with pytest.raises(LieFoliateError, match="simple root index"):
            call(index)


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


@pytest.mark.parametrize("name", ["SL5", "so(4,4)", "e6(-14)", "sp(3,2)"])
def test_phi_orbits_are_built_once_per_space(name, monkeypatch):
    space = catalog_lookup(name)
    first = enumerate_foliations(space, include_trivial=True)

    def refuse(*args):
        raise AssertionError("Phi orbits rebuilt")

    for fn in ("diagram_automorphisms", "_layers", "hyperbolic_factor"):
        monkeypatch.setattr(foliations, fn, refuse)
    again = enumerate_foliations(space, include_trivial=True)
    assert again == first
    for a, b in zip(first, again):
        assert a.phi_orbit is b.phi_orbit
        assert FoliationClass.from_dict(a.to_dict()).phi_orbit is a.phi_orbit


def test_sl14_enumeration_builds_each_hyperbolic_factor_once(monkeypatch):
    calls = []

    def counted(space, alpha_index):
        calls.append(alpha_index)
        return hyperbolic_factor(space, alpha_index)

    monkeypatch.setattr(foliations, "hyperbolic_factor", counted)
    clear_caches()
    enumerate_foliations(catalog_lookup("SL14"), include_trivial=True)
    assert calls == list(range(1, 14))  # once per simple root, not once per layer and root


@pytest.mark.parametrize("name", ["SL14", "sp(12,R)", "so(4,4)", "su(5,2)"])
def test_full_enumerations_return_the_kept_tuple(name):
    space = catalog_lookup(name)
    first = enumerate_foliations(space)
    again = enumerate_foliations(space)
    assert type(first) is tuple and again is first and first is space.orbits.records
    with_trivial = enumerate_foliations(space, include_trivial=True)
    assert type(with_trivial) is tuple and len(with_trivial) == len(first) + 1
    assert with_trivial == first[:space.rank] + (space.orbits.trivial,) + first[space.rank:]
    assert space.orbits.trivial.trivial and with_trivial[space.rank] is space.orbits.trivial
    assert enumerate_foliations(space, include_trivial=True) == with_trivial
    assert enumerate_foliations(space) is first


def test_a_second_full_enumeration_builds_no_record(monkeypatch):
    class Counted(FoliationClass):
        __slots__ = ()

    clear_caches()
    space = catalog_lookup("SL14")
    records = enumerate_foliations(space)
    # the records are built as tuple.__new__(FoliationClass, ...), the class read on each call
    monkeypatch.setattr(foliations, "FoliationClass", Counted)
    assert enumerate_foliations(space) is records
    for include_trivial in (False, True):
        assert not [c for c in enumerate_foliations(space, include_trivial) if type(c) is Counted]
    built = enumerate_foliations(space, codim=2)  # a walk does build with the patched class
    assert built and all(type(c) is Counted for c in built)


@pytest.mark.parametrize("read_back_first", [False, True])
def test_cleared_orbit_tables_leave_enumeration_and_read_back_sharing_one_phi_orbit(read_back_first):
    space = catalog_lookup("so(4,4)")
    held = enumerate_foliations(space, include_trivial=True)
    data = [c.to_dict() for c in held]
    clear_caches()  # drops the interned descriptor, with the PhiOrbits, tables and records on it
    fresh = catalog_lookup("so(4,4)")
    if read_back_first:
        read = [FoliationClass.from_dict(d) for d in data]
        records = enumerate_foliations(fresh, include_trivial=True)
    else:
        records = enumerate_foliations(fresh, include_trivial=True)
        read = [FoliationClass.from_dict(d) for d in data]
    assert [c.to_dict() for c in records] == data
    assert all(a.phi_orbit is b.phi_orbit for a, b in zip(read, records))
    # the descriptor held across the clear keeps its own PhiOrbits: equal, not the fresh ones
    kept = enumerate_foliations(space, include_trivial=True)
    assert kept == records and all(a is b for a, b in zip(kept, held))
    assert all(a.phi_orbit == b.phi_orbit and a.phi_orbit is not b.phi_orbit for a, b in zip(kept, records))


def test_a_held_descriptor_keeps_its_orbits():
    space = catalog_lookup("SL8")
    records = enumerate_foliations(space)
    orbits = space.orbits
    clear_caches()
    assert space.orbits is orbits and orbits.space is space
    again = enumerate_foliations(space)
    assert again == records and all(a is b for a, b in zip(again, records))
    assert catalog_lookup("SL8").orbits is not orbits


def test_spaces_on_one_diagram_build_separate_stores_of_equal_records():
    clear_caches()
    spaces = [catalog_lookup(name) for name in ("SL14", "sl(14,C)", "sl(14,H)")]
    assert spaces[0].diagram == spaces[1].diagram == spaces[2].diagram  # one A13 diagram
    keys = [[(c.phi, c.orbit, c.dim_v) for c in enumerate_foliations(space, include_trivial=True)]
            for space in spaces]
    assert keys[0] == keys[1] == keys[2] and len(keys[0]) == 3301
    stores = [space.orbits for space in spaces]
    assert len(set(map(id, stores))) == 3 and all(s.space is space for s, space in zip(stores, spaces))
    for a, b in itertools.combinations(stores, 2):
        assert not set(map(id, a.by_rep.values())) & set(map(id, b.by_rep.values()))


def test_enumeration_by_codim_builds_no_layer_records():
    clear_caches()
    space = catalog_lookup("sl(60,R)")
    assert len(enumerate_foliations(space, codim=1)) == 31
    assert space.orbits.records is None  # the records of its codimension only, made on the fly


@pytest.mark.parametrize("rank", [20, 40])
def test_enumeration_by_codim_builds_only_the_layers_up_to_codim(rank, monkeypatch):
    # On a path of r vertices the independent sets of k vertices number C(r - k + 1, k).
    walked, layers = [], foliations._layers

    def counted(dd):
        for layer in layers(dd):
            walked.append(len(layer))
            yield layer

    monkeypatch.setattr(foliations, "_layers", counted)
    for codim in range(4):
        clear_caches()
        space = catalog_lookup(f"sl({rank + 1},R)")
        walked.clear()
        records = enumerate_foliations(space, include_trivial=True, codim=codim)
        assert records and {c.codim for c in records} == {codim}
        assert walked == [math.comb(rank - k + 1, k) for k in range(codim + 1)]
        built = list(space.orbits.by_rep.values())
        # the orbits of a layer partition its subsets, and no PhiOrbit is built above layer codim
        assert [sum(len(po.orbit) for po in built if len(po.phi) == k) for k in range(codim + 1)] == walked
        assert len(built) == sum(1 for po in built if len(po.phi) <= codim)
        walked.clear()
        again = enumerate_foliations(space, include_trivial=True, codim=codim)
        assert again == records and all(a.phi_orbit is b.phi_orbit for a, b in zip(again, records))
        assert walked == [math.comb(rank - k + 1, k) for k in range(codim + 1)]  # walked anew, no layer kept
        assert list(space.orbits.by_rep.values()) == built
    clear_caches()
    space = catalog_lookup(f"sl({rank + 1},R)")
    walked.clear()
    assert enumerate_foliations(space, codim=rank + 1) == ()  # codim = r - dim V <= r
    assert walked == [] and space.orbits.by_rep == {}


def test_a_second_codim_enumeration_builds_no_phi_orbit(monkeypatch):
    built = []

    def counted(*fields):
        built.append(fields[1])
        return PhiOrbit(*fields)

    monkeypatch.setattr(foliations, "PhiOrbit", counted)
    clear_caches()
    space = catalog_lookup("SL18")
    first = enumerate_foliations(space, codim=3)
    assert len(built) == len(space.orbits.by_rep) and max(map(len, built)) == 3
    built.clear()
    again = enumerate_foliations(space, codim=3)
    assert built == [] and again == first
    assert all(a.phi_orbit is b.phi_orbit for a, b in zip(again, first))


def test_phi_orbit_of_a_non_representative_is_none_and_stores_nothing():
    # A_4's flip maps (4,) to (1,) and (2, 4) to (1, 3)
    clear_caches()
    orbits = catalog_lookup("SL5").orbits
    assert orbits.phi_orbit((4,)) is None and orbits.by_rep == {}
    enumerate_foliations(orbits.space)
    stored = dict(orbits.by_rep)
    assert orbits.phi_orbit((2, 4)) is None and orbits.phi_orbit((4,)) is None
    assert orbits.by_rep == stored and all(a is b for a, b in zip(orbits.by_rep.values(), stored.values()))
    assert orbits.phi_orbit((1, 3)) is stored[(1, 3)] and orbits.phi_orbit((1, 3)).orbit == ((1, 3), (2, 4))


def test_the_store_keeps_its_phi_orbits_and_records_and_no_layer():
    assert foliations.SpaceOrbits.__slots__ == ("space", "auts", "factors", "by_rep", "records", "trivial")


@pytest.mark.parametrize("call", [
    lambda: enumerate_foliations(None),
    lambda: enumerate_foliations("SL5"),
    lambda: enumerate_foliations(catalog_lookup("SL5").diagram),
    lambda: hyperbolic_factor("SL5", 1),
    lambda: hyperbolic_factor(None, 1),
    lambda: orthogonal_subsets(catalog_lookup("SL5")),  # a descriptor in place of its diagram
    lambda: orthogonal_subsets(None),
    lambda: diagram_automorphisms(None),
    lambda: diagram_automorphisms(catalog_lookup("SL5")),
    lambda: foliations.diagram_automorphisms("A4"),
], ids=["enumerate-None", "enumerate-str", "enumerate-diagram", "factor-str", "factor-None",
        "subsets-descriptor", "subsets-None", "automorphisms-None", "automorphisms-descriptor", "automorphisms-str"])
def test_entry_points_refuse_a_wrong_object(call):
    with pytest.raises(LieFoliateError, match=r"^expected a (SpaceDescriptor|DynkinDiagram), not a \w+$"):
        call()


@pytest.mark.parametrize("codim", [-1, -2, -10**30])
def test_a_negative_codim_is_refused(codim):
    # codim = r - dim V is never negative; an empty list would read as "no class"
    with pytest.raises(LieFoliateError, match="negative"):
        enumerate_foliations(catalog_lookup("SL5"), codim=codim)


def refuse_layers(dd):
    raise AssertionError("a layer of subsets was walked")


def test_reading_back_a_record_builds_no_layer_above_its_phi(monkeypatch):
    space = catalog_lookup("sl(40,R)")
    clear_caches()
    data = next(c for c in enumerate_foliations(space, codim=2) if c.r_phi == 2).to_dict()
    clear_caches()
    monkeypatch.setattr(foliations, "_layers", refuse_layers)  # no layer at all, not even its own
    record = FoliationClass.from_dict(data)
    assert record.r_phi == 2 and record.to_dict() == data
    orbits = catalog_lookup("sl(40,R)").orbits
    assert orbits.space is record.space
    assert list(orbits.by_rep) == [record.phi] and orbits.records is None


def test_reading_back_a_record_of_twenty_roots_builds_no_layer(monkeypatch):
    # A_40's flip maps (1, 3, ..., 39) to (2, 4, ..., 40); the layers up to
    # 20 roots would hold about F(42) = 2.7e8 subsets.
    odd, even = tuple(range(1, 40, 2)), tuple(range(2, 41, 2))
    monkeypatch.setattr(foliations, "_layers", refuse_layers)
    clear_caches()
    orbits = catalog_lookup("sl(41,R)").orbits
    data = FoliationClass(orbits.phi_orbit(odd), 0).to_dict()
    assert data["orbit"] == [list(odd), list(even)] and data["leaf_dim"] == 20 + 800
    clear_caches()
    record = FoliationClass.from_dict(data)
    assert record.to_dict() == data
    with pytest.raises(LieFoliateError, match="not the representative"):
        FoliationClass.from_dict(dict(data, phi=list(even), orbit=[list(odd), list(even)]))
    assert list(record.space.orbits.by_rep) == [odd] and record.space.orbits.records is None


@pytest.mark.parametrize("space, codim, count", [("sl(60,R)", 1, 31), ("so(40,40)", 2, 744), ("sl(60,R)", 60, 0)])
def test_enumeration_by_codim_at_high_rank_is_fast(space, codim, count):
    # 1 + 30 orbits of A_59 under its flip; 1 + 39 + 704 orbits of D_40 under the
    # swap of vertices 39 and 40; no class has a codimension past the rank.  The
    # full walk of A_59 would visit F(61) subsets.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(foliations.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "liefoliate.cli", "foliations", "enumerate", "--space", space,
                           "--codim", str(codim), "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    assert len(records) == count
    assert all(r["codim"] == codim for r in records)


def test_enumerated_records_are_what_the_constructor_builds():
    # The enumeration builds records with tuple.__new__, which skips any
    # FoliationClass.__new__: a check added there must fail this test.
    assert "__new__" not in FoliationClass.__dict__
    for name in ["SL5", "so(4,4)", "e6(-14)", "sp(3,2)"]:
        for x in enumerate_foliations(catalog_lookup(name), include_trivial=True):
            built = FoliationClass(x.phi_orbit, x.dim_v)
            assert type(x) is FoliationClass
            assert x == built and hash(x) == hash(built)


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
    # The first full enumeration keeps its 3,300 nontrivial slotted (PhiOrbit,
    # dim V) records in one tuple, and the trivial one apart: 232 KiB, 72 B a
    # record (Python 3.11, x86_64).  A later call returns that tuple and
    # allocates nothing.
    clear_caches()
    space = catalog_lookup("SL14")
    for _ in space.orbits.layers():  # the PhiOrbits, outside the measurement
        pass
    tracemalloc.start()
    try:
        enumerate_foliations(space)
        kept, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        records = enumerate_foliations(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 3300
    assert kept < 3301 * 80
    assert peak - kept < 1024


def test_a_streamed_sl16_json_enumeration_keeps_no_record():
    # SL16's 9,663 records are 8.4 MB of JSON.  The writer holds one orbit's
    # encoding and the layer being walked, never the records or their text:
    # its traced peak was 174 KiB (Python 3.11, x86_64), mostly the JSON
    # encoder's reference cycles awaiting the collector.
    class Sink:
        writes = chars = 0

        def write(self, text):
            self.writes += 1
            self.chars += len(text)

    clear_caches()
    space = catalog_lookup("SL16")
    for _ in space.orbits.layers():  # the PhiOrbits, outside the measurement
        pass
    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            write_json(foliations.iter_foliations(space))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.writes == 9663 + 1 and sink.chars == 8446502
    assert peak < 512 * 1024
    assert space.orbits.records is None
