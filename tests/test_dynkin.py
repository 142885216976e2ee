"""Dynkin diagram structure, automorphism groups, and exports."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefoliate.catalog import catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.roots import (
    RANK_RANGES,
    DynkinDiagram,
    DynkinEdge,
    DynkinVertex,
    Family,
    build_root_system,
    diagram_automorphisms,
    dynkin_diagram,
    family_diagram,
    subdiagram_type,
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


def test_a_phi_orbit_holds_the_images_of_phi_under_the_automorphisms():
    orbits = catalog_lookup("SL5").orbits  # A4: the identity and the reversal (4, 3, 2, 1)
    assert orbits.phi_orbit((1, 3)).orbit == ((1, 3), (2, 4))
    assert orbits.phi_orbit((2, 4)) is None  # the reversal maps it to the smaller (1, 3)
    assert orbits.phi_orbit(()).orbit == ((),)


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
    assert dd.cartan == rs.cartan == _cartan_of(rs.simple)
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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1])),
    st.lists(st.integers(1, n)))))
def test_connected_components_of_any_graph_on_the_vertices(case):
    # A diagram made by hand or read back from a dict may have cycles, several
    # components and any number of edges off the path 1 - 2 - ... - n; Phi may
    # repeat a vertex and be unsorted.  The reference grows each component from
    # its least vertex one neighbour at a time.
    n, edges, phi = case
    dd = DynkinDiagram(tuple(DynkinVertex(i, False) for i in range(1, n + 1)),
                       tuple(DynkinEdge(i, j, 1) for i, j in sorted(edges)))
    pending, expected = set(phi), []
    while pending:
        component, frontier = set(), [min(pending)]
        while frontier:
            v = frontier.pop()
            if v in pending:
                pending.discard(v)
                component.add(v)
                frontier.extend(dd.neighbors(v))
        expected.append(tuple(sorted(component)))
    assert dd.connected_components(phi) == expected


def _cartan_of(simple):
    """A_ij = 2<alpha_i, alpha_j>/<alpha_j, alpha_j>, from the coordinates of the simple roots."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a.scaled, b.scaled))

    return tuple(tuple(Fraction(2 * dot(a, b), dot(b, b)) for b in simple) for a in simple)


def _diagram_from_roots(rs):
    """Oracle: the diagram read off the Cartan matrix of the simple roots and the full root list."""
    a = _cartan_of(rs.simple)
    vertices = tuple(DynkinVertex(i + 1, rs.simple[i].double() in rs.roots) for i in range(rs.rank))
    edges = []
    for i, j in itertools.combinations(range(rs.rank), 2):
        if a[i][j]:
            longer, shorter = (i + 1, j + 1) if a[i][j] < a[j][i] else (j + 1, i + 1)
            edges.append(DynkinEdge(i + 1, j + 1, a[i][j] * a[j][i], None if a[i][j] == a[j][i] else (longer, shorter)))
    return vertices, tuple(edges)


SYSTEMS_TO_20 = [(family, r) for family, (lo, hi) in RANK_RANGES.items() for r in range(lo, (hi or 20) + 1)]


@pytest.mark.parametrize("family, rank", SYSTEMS_TO_20, ids=lambda x: getattr(x, "value", x))
def test_family_diagram_is_the_one_read_off_the_root_system(family, rank):
    rs = build_root_system(family, rank)
    dd = family_diagram(family, rank)
    assert (dd.vertices, dd.edges) == _diagram_from_roots(rs)
    assert dd == dynkin_diagram(rs) and dd.cartan == rs.cartan
    assert bool(dd.notes) == (family is Family.BC)


@pytest.mark.parametrize("family, rank", [("A", 0), ("D", 3.0), ("D", True), ("X", 3), ("A", 1001)])
def test_family_diagram_checks_its_arguments(family, rank):
    with pytest.raises(LieFoliateError, match="too large" if rank == 1001 else "invalid rank|unknown"):
        family_diagram(family, rank)


def _recursive_automorphisms(dd):
    """Oracle: the depth-first search over Cartan rows that the package used before."""
    a = dd.cartan
    n = len(a)
    marks = [(v.double_circle, sorted(row)) for v, row in zip(dd.vertices, a)]
    images = [[w for w in range(n) if marks[w] == marks[v]] for v in range(n)]
    results, perm = [], []

    def extend(v):
        if v == n:
            results.append(tuple(w + 1 for w in perm))
            return
        for w in images[v]:
            if w not in perm and all(a[w][perm[u]] == a[v][u] and a[perm[u]][w] == a[u][v] for u in range(v)):
                perm.append(w)
                extend(v + 1)
                perm.pop()

    extend(0)
    return sorted(results)


def _from_edges(n, edges, circled=()):
    return DynkinDiagram.from_dict({
        "vertices": [{"index": i, "double_circle": i in circled} for i in range(1, n + 1)],
        "edges": [{"i": i, "j": j, "lines": lines, "arrow": arrow} for i, j, lines, arrow in edges]})


NOT_DYNKIN = [
    _from_edges(5, [(1, 2, 1, None), (3, 4, 1, None)]),  # two A2 and an A1: 8 automorphisms
    _from_edges(6, [(1, 2, 2, [1, 2]), (4, 5, 2, [4, 5]), (5, 6, 1, None)]),
    _from_edges(4, [(1, 2, 1, None), (2, 3, 1, None), (3, 1, 1, None)]),  # a cycle with a lone vertex
    # a search that compares the Cartan entries from the new vertex only, not
    # those towards it, keeps a permutation that is no automorphism here
    _from_edges(5, [(1, 2, 2, [1, 2]), (1, 3, 3, [1, 3]), (1, 4, 3, [1, 4]), (1, 5, 1, None), (3, 4, 1, None),
                    (3, 5, 3, [3, 5])]),
]


@pytest.mark.parametrize("dd", [family_diagram(f, r) for f, r in SYSTEMS_TO_20 if r <= 12] + NOT_DYNKIN,
                         ids=lambda dd: f"rank{dd.rank}-edges{len(dd.edges)}")
def test_automorphisms_equal_the_recursive_search(dd):
    assert diagram_automorphisms(dd) == _recursive_automorphisms(dd)


@st.composite
def small_diagrams(draw):
    """Any graph on up to six vertices that ``from_dict`` accepts: cycles, several parts, double circles."""
    n = draw(st.integers(1, 6))
    edges = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        lines = draw(st.sampled_from((0, 0, 1, 1, 2, 3)))
        if lines:
            edges.append((i, j, lines, draw(st.sampled_from(([i, j], [j, i]))) if lines > 1 else None))
    return _from_edges(n, edges, circled=draw(st.sets(st.integers(1, n))))


@settings(max_examples=300, deadline=None)
@given(small_diagrams())
def test_automorphisms_of_any_small_diagram_match_brute_force(dd):
    assert diagram_automorphisms(dd) == brute_force_automorphisms(dd)


def test_d4_triality_is_every_permutation_of_the_legs():
    auts = diagram_automorphisms(family_diagram("D", 4))
    assert auts == _recursive_automorphisms(family_diagram("D", 4))
    assert {(p[0], p[2], p[3]) for p in auts} == set(itertools.permutations((1, 3, 4)))
    assert all(p[1] == 2 for p in auts)


def _long_path(n, last):
    """A path on n vertices whose last vertex is a plain end (A_n), a D_n leg or a BC_n end."""
    edges = [(i, i + 1, 1, None) for i in range(1, n - 1)]
    if last == "D":
        return _from_edges(n, edges + [(n - 2, n, 1, None)])
    if last == "BC":
        return _from_edges(n, edges + [(n - 1, n, 2, [n - 1, n])], circled=(n,))
    return _from_edges(n, edges + [(n - 1, n, 1, None)])


@pytest.mark.parametrize("last", ["A", "D", "BC"])
def test_automorphisms_of_1500_vertex_diagrams_need_no_recursion(last):
    n = 1500
    identity = tuple(range(1, n + 1))
    expected = {
        "A": [identity, identity[::-1]],  # the flip
        "D": [identity, identity[:-2] + (n, n - 1)],  # the swap of the two short legs
        "BC": [identity],
    }[last]
    assert diagram_automorphisms(_long_path(n, last)) == expected


@pytest.mark.parametrize("indices", [(0,), (-1,), (5,), (True, 2), (1.0,), ("1",), (None,), 3, None,
                                     iter([1, 5])], ids=lambda x: "iterator" if hasattr(x, "__next__") else repr(x))
def test_connected_components_refuses_what_is_not_a_vertex(indices):
    with pytest.raises(LieFoliateError, match=r"vertex indices .* must be ints in 1\.\.4"):
        diagram("A", 4).connected_components(indices)


@pytest.mark.parametrize("index", [0, 5, -1, True, 1.0, "1", None])
def test_neighbors_refuses_what_is_not_a_vertex(index):
    with pytest.raises(LieFoliateError, match=r"vertex index .* must be an int in 1\.\.4"):
        diagram("A", 4).neighbors(index)


def test_connected_components_reads_an_iterator_once():
    assert diagram("A", 4).connected_components(iter([4, 1, 2])) == [(1, 2), (4,)]


def test_subdiagram_type_reads_each_family_back():
    renamed = {("D", 3): Family.A, ("C", 2): Family.B}  # D3 = A3, and B2 = C2 is read as B2
    for family, rank in SYSTEMS_TO_20:
        kind = subdiagram_type(family_diagram(family, rank), tuple(range(1, rank + 1)))
        assert (kind.family, kind.rank) == (renamed.get((family.value, rank), family), rank)


def test_subdiagram_type_of_components_and_its_long_and_short_roots():
    f4, bc, c = family_diagram("F4", 4), family_diagram("BC", 5), family_diagram("C", 5)
    assert subdiagram_type(f4, (2, 3)) == (Family.B, 2, 2, 3)
    assert subdiagram_type(f4, (1, 2, 3)) == (Family.B, 3, 2, 3)
    assert subdiagram_type(f4, (2, 3, 4)) == (Family.C, 3, 2, 3)
    assert subdiagram_type(bc, (5,)) == (Family.BC, 1, 5, 5)
    assert subdiagram_type(bc, (3, 4, 5)) == (Family.BC, 3, 4, 5)
    assert subdiagram_type(bc, (2, 3)) == (Family.A, 2, 2, 2)
    assert subdiagram_type(c, (3, 4, 5)) == (Family.C, 3, 5, 4)
    assert subdiagram_type(family_diagram("E8", 8), (2, 3, 4, 5)) == (Family.D, 4, 2, 2)
    assert subdiagram_type(family_diagram("E8", 8), (1, 2, 3, 4, 5, 6)) == (Family.E6, 6, 1, 1)
    assert subdiagram_type(f4, [1, 2]) == (Family.A, 2, 1, 1)


@pytest.mark.parametrize("dd, component", [
    (_from_edges(3, [(1, 2, 1, None), (2, 3, 1, None), (3, 1, 1, None)]), (1, 2, 3)),  # a cycle
    (_from_edges(8, [(i, i + 1, 1, None) for i in range(1, 7)] + [(4, 8, 1, None)]),
     tuple(range(1, 9))),  # arms of 1, 3 and 3 vertices: affine E7
    (_from_edges(6, [(1, 2, 1, None), (2, 3, 1, None), (3, 4, 1, None), (2, 5, 1, None),
                     (3, 6, 1, None)]), tuple(range(1, 7))),  # two branch vertices
    (_from_edges(5, [(1, 2, 1, None), (2, 3, 2, [2, 3]), (3, 4, 1, None), (4, 5, 1, None)]),
     tuple(range(1, 6))),  # a double edge inside five vertices
    (_from_edges(3, [(1, 2, 3, [2, 1]), (2, 3, 1, None)]), (1, 2, 3)),  # three lines on three vertices
    (_from_edges(3, [(1, 2, 2, [1, 2]), (2, 3, 2, [3, 2])]), (1, 2, 3)),  # two double edges
    (_from_edges(2, [(1, 2, 1, None)], circled=(2,)), (1, 2)),  # a double circle on a single edge
    (_from_edges(3, [(1, 2, 2, [1, 2]), (2, 3, 1, None)], circled=(2,)), (1, 2, 3)),  # off the end
    (family_diagram("A", 4), (1, 3)),  # not connected
    (family_diagram("A", 4), (2, 1)),  # not sorted
    (family_diagram("A", 4), ()),
])
def test_subdiagram_type_refuses_what_is_not_of_finite_type(dd, component):
    with pytest.raises(LieFoliateError, match="not a Dynkin diagram of finite type|not a sorted connected"):
        subdiagram_type(dd, component)
