"""Dynkin diagram structure, automorphism groups, and exports."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefoliate.errors import LieFoliateError
from liefoliate.roots import (
    RANK_RANGES,
    DynkinDiagram,
    DynkinEdge,
    DynkinVertex,
    apply_permutation,
    build_root_system,
    diagram_automorphisms,
    dynkin_diagram,
)


def diagram(family, rank):
    return dynkin_diagram(build_root_system(family, rank))


def test_a_family_is_a_plain_path():
    for r in range(1, 9):
        dd = diagram("A", r)
        assert all(not v.double_circle for v in dd.vertices)
        assert dd.edges == tuple(DynkinEdge(i, i + 1, 1) for i in range(1, r))


def test_b_and_c_arrows_point_at_the_short_root():
    for r in range(2, 7):
        b = diagram("B", r)
        assert b.edges[-1] == DynkinEdge(r - 1, r, 2, (r - 1, r))
        c = diagram("C", r)
        assert c.edges[-1] == DynkinEdge(r - 1, r, 2, (r, r - 1))


def test_f4_edge_pattern():
    dd = diagram("F4", 4)
    assert [e.lines for e in dd.edges] == [1, 2, 1]
    assert [e.arrow for e in dd.edges] == [None, (2, 3), None]


def test_g2_triple_edge_toward_alpha1():
    dd = diagram("G2", 2)
    assert dd.edges == (DynkinEdge(1, 2, 3, (2, 1)),)


def test_d_family_branch():
    for r in range(3, 7):
        dd = diagram("D", r)
        # the branch vertex r-2 carries three neighbors once r >= 4
        degree = {v.index: len(dd.neighbors(v.index)) for v in dd.vertices}
        if r >= 4:
            assert degree[r - 2] == 3
        assert all(e.lines == 1 and e.arrow is None for e in dd.edges)


def test_e_series_shapes():
    for fam, rank in (("E6", 6), ("E7", 7), ("E8", 8)):
        dd = diagram(fam, rank)
        assert len(dd.edges) == rank - 1
        assert dd.neighbors(2) == {4}
        assert all(e.lines == 1 for e in dd.edges)


def test_bc_double_circle_and_arrow():
    for r in (1, 2, 4):
        dd = diagram("BC", r)
        assert [v.index for v in dd.vertices if v.double_circle] == [r]
        if r >= 2:
            assert dd.edges[-1] == DynkinEdge(r - 1, r, 2, (r - 1, r))
        assert dd.notes  # rendering convention for the compound vertex is recorded


def test_double_circle_iff_doubled_root():
    for fam, rank in [("A", 4), ("B", 3), ("C", 3), ("BC", 3), ("F4", 4)]:
        rs = build_root_system(fam, rank)
        dd = dynkin_diagram(rs)
        for v, alpha in zip(dd.vertices, rs.simple):
            assert v.double_circle == (alpha.double() in rs.roots)


def brute_force_automorphisms(dd):
    """Oracle: filter all rank! permutations, reading the edge list directly."""
    n = dd.rank
    flags = {v.index: v.double_circle for v in dd.vertices}
    edges = {frozenset((e.i, e.j)): e for e in dd.edges}
    found = []
    for perm in itertools.permutations(range(1, n + 1)):
        image = {i + 1: perm[i] for i in range(n)}
        ok = all(flags[v] == flags[image[v]] for v in image)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                e = edges.get(frozenset((i, j)))
                f = edges.get(frozenset((image[i], image[j])))
                if (e is None) != (f is None):
                    ok = False
                elif e is not None:
                    if e.lines != f.lines or (e.arrow is None) != (f.arrow is None):
                        ok = False
                    elif e.arrow is not None and (image[e.arrow[0]], image[e.arrow[1]]) != f.arrow:
                        ok = False
            if not ok:
                break
        if ok:
            found.append(perm)
    return sorted(found)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 3), ("D", 4), ("D", 5),
     ("D", 6), ("E6", 6), ("E7", 7), ("F4", 4), ("G2", 2), ("BC", 1), ("BC", 3)],
)
def test_automorphisms_match_brute_force(family, rank):
    dd = diagram(family, rank)
    assert diagram_automorphisms(dd) == brute_force_automorphisms(dd)


def test_automorphism_group_sizes():
    assert len(diagram_automorphisms(diagram("A", 1))) == 1
    for r in range(2, 8):
        assert len(diagram_automorphisms(diagram("A", r))) == 2
    for fam, r in [("B", 4), ("C", 4), ("F4", 4), ("G2", 2), ("BC", 4)]:
        assert len(diagram_automorphisms(diagram(fam, r))) == 1
    assert len(diagram_automorphisms(diagram("D", 4))) == 6  # triality
    assert len(diagram_automorphisms(diagram("D", 5))) == 2
    assert len(diagram_automorphisms(diagram("E6", 6))) == 2
    assert len(diagram_automorphisms(diagram("E7", 7))) == 1
    assert len(diagram_automorphisms(diagram("E8", 8))) == 1


def test_automorphisms_form_a_group():
    for fam, rank in [("A", 5), ("D", 4), ("E6", 6)]:
        dd = diagram(fam, rank)
        auts = diagram_automorphisms(dd)
        identity = tuple(range(1, rank + 1))
        assert identity in auts
        for p in auts:
            inverse = tuple(p.index(i) + 1 for i in range(1, rank + 1))
            assert inverse in auts
            for q in auts:
                composed = tuple(p[q[i - 1] - 1] for i in range(1, rank + 1))
                assert composed in auts


def test_apply_permutation():
    reversal = (4, 3, 2, 1)
    assert apply_permutation(reversal, (1, 3)) == (2, 4)
    assert apply_permutation(reversal, ()) == ()


def test_diagram_json_round_trip():
    for fam, rank in [("A", 3), ("BC", 2), ("F4", 4), ("D", 4)]:
        dd = diagram(fam, rank)
        assert DynkinDiagram.from_dict(dd.to_dict()) == dd


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["vertices"].pop(0), "indexed 1..2 in order"),
        (lambda d: d["vertices"].reverse(), "indexed 1..3 in order"),
        (lambda d: d["vertices"][0].update(index=True), "indexed 1..3 in order"),
        (lambda d: d["edges"][0].update(j=4), "join two of the vertices 1..3"),
        (lambda d: d["edges"][0].update(i=0), "join two of the vertices 1..3"),
        (lambda d: d["edges"][0].update(j=1), "loop"),
        (lambda d: d["edges"].append(dict(d["edges"][0])), "joins a pair twice"),
        (lambda d: d["edges"][0].update(lines=0), "0 lines"),
        (lambda d: d["edges"][0].update(lines=4), "4 lines"),
        (lambda d: d["edges"][1].update(arrow=[2, 1]), "cannot carry the arrow"),
        (lambda d: d["edges"][1].update(arrow=[1, 3]), "cannot carry the arrow"),
        (lambda d: d["edges"][1].update(arrow=None), "cannot carry the arrow"),
        (lambda d: d["edges"][0].update(arrow=[1, 2]), "cannot carry the arrow"),
        (lambda d: d.pop("edges"), "lacks 'edges'"),
        (lambda d: d["vertices"][0].pop("double_circle"), "lacks 'double_circle'"),
        (lambda d: d["edges"][0].pop("lines"), "lacks 'lines'"),
        (lambda d: d["edges"][1].update(arrow=3), "malformed"),
    ],
    ids=["vertex-missing", "vertices-out-of-order", "bool-index", "edge-to-missing-vertex",
         "edge-from-vertex-0", "loop", "repeated-edge", "no-lines", "four-lines",
         "arrow-off-its-edge", "arrow-naming-another-vertex", "multiple-edge-without-arrow",
         "arrow-on-single-edge", "edges-key-missing", "double-circle-key-missing",
         "lines-key-missing", "arrow-not-a-pair"],
)
def test_from_dict_rejects_a_diagram_that_is_not_one(edit, message):
    data = diagram("B", 3).to_dict()
    edit(data)
    with pytest.raises(LieFoliateError, match=message):
        diagram_automorphisms(DynkinDiagram.from_dict(data))


SYSTEMS_TO_16 = [
    (family.value, r)
    for family, (lo, hi) in RANK_RANGES.items()
    for r in range(lo, (hi or 16) + 1)
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SYSTEMS_TO_16))
def test_diagram_cartan_matrix_is_the_root_systems(case):
    rs = build_root_system(*case)
    dd = dynkin_diagram(rs)
    assert dd.cartan == rs.cartan
    assert DynkinDiagram.from_dict(dd.to_dict()).cartan == rs.cartan


def test_neighbors_are_the_nonzero_off_diagonal_entries():
    for fam, rank in [("A", 1), ("B", 3), ("D", 4), ("E7", 7), ("F4", 4), ("G2", 2), ("BC", 2)]:
        dd = diagram(fam, rank)
        for v in dd.vertices:
            joined = {e.i for e in dd.edges if e.j == v.index} | {e.j for e in dd.edges if e.i == v.index}
            assert dd.neighbors(v.index) == joined


def test_dot_export():
    dd = diagram("BC", 2)
    dot = dd.to_dot("bc2")
    assert dot.startswith("digraph bc2 {")
    assert "peripheries=2" in dot
    assert 'a1 -> a2 [label="2", dir=forward];' in dot
    dd = diagram("A", 2)
    dot = dd.to_dot()
    assert "peripheries" not in dot
    assert 'dir=none' in dot


def test_connected_components():
    dd = diagram("A", 5)
    assert dd.connected_components((1, 2, 4)) == [(1, 2), (4,)]
    assert dd.connected_components(()) == []
    dd4 = diagram("D", 4)
    assert dd4.connected_components((1, 3, 4)) == [(1,), (3,), (4,)]
    assert dd4.connected_components((1, 2, 3, 4)) == [(1, 2, 3, 4)]
