"""Exact restricted roots, the simple roots of each family and their Dynkin
diagrams, and what the diagrams give in closed form.

Implements the ten families of irreducible restricted root systems occurring
for Riemannian symmetric spaces of noncompact type: A_r, B_r, C_r, D_r, E6,
E7, E8, F4, G2 and the non-reduced family BC_r.  Every root stores doubled
integer coordinates, so the half-integer entries of the E-series and F4 stay
exact and every inner product is a rational number.

Each family is given only by a table of its simple roots, each held as its
nonzero coordinates.  ``family_diagram`` reads the Dynkin diagram off that
table in time linear in the rank.  ``subdiagram_type`` reads the type of a
connected subdiagram off its Cartan submatrix, and ``POSITIVE_ROOT_COUNTS``
gives that type's positive roots per length (Bourbaki, Plates I-IX), so a
dimension that sums multiplicities over roots needs no root.  ``span_roots``
lists the positive roots spanned by one connected component only: the
closure of its simple roots under the simple reflections that raise height.
The full root list, ``RootSystem`` and ``build_root_system``, lives in
``rootsystem`` with the arithmetic on roots that only its users call
(``inner``, ``reflect``, ``root_from_coords``, ``format_root``); it is
loaded on first use of those names here, by the commands that print or
check every root.  In the same way ``diagrams`` holds what only some
callers do with a diagram: its dict and Graphviz forms (``to_dict``,
``from_dict``, ``to_dot``) and the search for its automorphisms, with
``apply_permutation``.

The records are immutable named tuples, and ``fractions`` is imported only
by the functions that build a Fraction, so the structure commands load
neither ``dataclasses`` nor ``fractions``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property
from itertools import combinations

from .errors import LieFoliateError

# Names served from the module that holds them, loaded on first use: the full
# root list and the arithmetic on roots, and what acts on a diagram's
# automorphisms.
_LOADED_ON_USE = {
    **dict.fromkeys(("RootSystem", "build_root_system", "dynkin_diagram", "format_root", "inner", "reflect",
                     "root_from_coords"), "rootsystem"),
    "apply_permutation": "diagrams",
}


def __getattr__(name: str):
    """A name of ``rootsystem`` or ``diagrams``, loaded on first use (PEP 562)."""
    module = _LOADED_ON_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    globals()[name] = value = getattr(import_module(f".{module}", __package__), name)
    return value


# All coordinates are stored multiplied by this factor.
SCALE = 2


class Family(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"
    F4 = "F4"
    G2 = "G2"
    BC = "BC"


MAX_RANK = 1000  # no family, diagram or catalog space of a larger rank

# (min_rank, max_rank); None means unbounded above.
RANK_RANGES = {
    Family.A: (1, None),
    Family.B: (2, None),
    Family.C: (2, None),
    Family.D: (3, None),
    Family.E6: (6, 6),
    Family.E7: (7, 7),
    Family.E8: (8, 8),
    Family.F4: (4, 4),
    Family.G2: (2, 2),
    Family.BC: (1, None),
}


class Root(namedtuple("Root", "scaled")):
    """A nonzero vector with rational coordinates, stored doubled as integers.

    ``scaled`` must be a non-empty tuple of ints (not bools), not all zero;
    ``Root(...)`` checks it.  Roots the package makes itself (the walk of
    ``build_root_system`` and ``span_roots``, negation) are built by
    ``tuple.__new__`` without the check.
    Roots order by ``scaled``.
    """

    __slots__ = ()

    def __new__(cls, scaled: tuple[int, ...]) -> "Root":
        if type(scaled) is not tuple:
            raise LieFoliateError(f"scaled root coordinates must be a tuple, not a {type(scaled).__name__}")
        if not scaled:
            raise LieFoliateError("a root needs at least one coordinate")
        if not all(type(c) is int for c in scaled):
            raise LieFoliateError("scaled root coordinates must be integers")
        if not any(scaled):
            raise LieFoliateError("a root is never the zero vector")
        return tuple.__new__(cls, (scaled,))

    @classmethod
    def _make(cls, iterable) -> "Root":
        """Build through ``__new__``, so that ``_replace`` checks the fields too."""
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return len(self.scaled)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        return tuple(Fraction(c, SCALE) for c in self.scaled)

    def __neg__(self) -> "Root":
        return tuple.__new__(Root, (tuple(-c for c in self.scaled),))

    def double(self) -> "Root":
        return Root(tuple(2 * c for c in self.scaled))

    def __str__(self) -> str:
        from .rootsystem import format_root

        return format_root(self)


def _vector(dim: int, entries: dict[int, int]) -> tuple[int, ...]:
    return tuple(entries.get(k, 0) for k in range(dim))


def _chain(dim: int) -> tuple[dict[int, int], ...]:
    """e_1 - e_2, ..., e_{dim-1} - e_dim in doubled coordinates."""
    return tuple({i: SCALE, i + 1: -SCALE} for i in range(dim - 1))


def _sparse(rows) -> tuple[dict[int, int], ...]:
    return tuple({k: c for k, c in enumerate(row) if c} for row in rows)


# alpha_1, ..., alpha_8 of E8; E6 and E7 use the first six and seven.
_E8_SIMPLE = _sparse((
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
))

# The ambient dimension and the simple roots alpha_1, ..., alpha_r of each
# family at rank r, each as its nonzero doubled coordinates {index: entry}
# (Bourbaki, Lie IV-VI, Plates I-IX).  BC_r shares those of B_r.
_SIMPLE_ROOTS = {
    Family.A: lambda r: (r + 1, _chain(r + 1)),
    Family.B: lambda r: (r, _chain(r) + ({r - 1: SCALE},)),
    Family.C: lambda r: (r, _chain(r) + ({r - 1: 2 * SCALE},)),
    Family.D: lambda r: (r, _chain(r) + ({r - 2: SCALE, r - 1: SCALE},)),
    Family.E6: lambda r: (8, _E8_SIMPLE[:6]),
    Family.E7: lambda r: (8, _E8_SIMPLE[:7]),
    Family.E8: lambda r: (8, _E8_SIMPLE),
    Family.F4: lambda r: (4, _sparse(((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)))),
    Family.G2: lambda r: (3, _sparse(((2, -2, 0), (-4, 2, 2)))),
    Family.BC: lambda r: _SIMPLE_ROOTS[Family.B](r),
}


def _less(vector: tuple[int, ...], k: int, entries) -> tuple[int, ...]:
    """vector - k w, for w given by its nonzero entries as pairs (index, value)."""
    out = list(vector)
    for j, a in entries:
        out[j] -= k * a
    return tuple(out)


def _positive_roots(simple, cartan, doubled: bool) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(simple-root coefficients, doubled coordinates) of each positive root, in canonical order.

    Every positive root is reached from a simple root by simple reflections
    that raise its height (Humphreys, Intro. to Lie Algebras, 10.2 and
    10.3): a root beta other than alpha_i with k = <beta, alpha_i^vee> < 0
    has s_i beta = beta - k alpha_i, whose pairings <., alpha_j^vee> are
    those of beta less k times row i of the Cartan matrix.  So the positive
    roots are the closure of the simple roots under these raising
    reflections.  When ``doubled`` (BC_r, or a part of it holding the
    double-circled root) it adds 2 beta for each short root beta.  The order
    is by height, then by coefficients in descending lexicographic order, so
    the first r roots are the simple roots in order.
    """
    r = len(simple)
    found = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    pairings, coords = dict(zip(found, cartan)), dict(zip(found, simple))
    # the nonzero entries of each row of the Cartan matrix and of each simple root
    rows, alphas = ([[(j, a) for j, a in enumerate(row) if a] for row in m] for m in (cartan, simple))
    for c in found:  # grows as it is walked; a root's pairings are dropped once read
        n = pairings.pop(c)
        for i, k in enumerate(n):
            if k < 0:
                up = c[:i] + (c[i] - k,) + c[i + 1:]
                if up not in coords:
                    pairings[up], coords[up] = _less(n, k, rows[i]), _less(coords[c], k, alphas[i])
                    found.append(up)
    if doubled:
        short = min(sum(a * a for a in alpha) for alpha in simple)
        for c, v in list(coords.items()):
            if sum(a * a for a in v) == short:
                coords[tuple(2 * x for x in c)] = tuple(2 * a for a in v)
    order = sorted(coords, key=lambda c: (-sum(c), c), reverse=True)  # height up, then coefficients down
    return [(c, coords[c]) for c in order]


def expect(value, kind: type) -> None:
    """LieFoliateError unless ``value`` is a ``kind``; a warm entry point calls it only once reading fails."""
    if not isinstance(value, kind):
        raise LieFoliateError(f"expected a {kind.__name__}, not a {type(value).__name__}") from None


def _checked_family(family, rank) -> Family:
    """The family, after checking that it is one and that the rank is valid for it and at most MAX_RANK."""
    try:
        family = Family(family)
    except ValueError:
        raise LieFoliateError(f"unknown root system family {family!r}") from None
    lo, hi = RANK_RANGES[family]
    if type(rank) is not int or rank < lo or (hi is not None and rank > hi):
        span = f"rank = {lo}" if hi == lo else f"rank >= {lo}"
        raise LieFoliateError(f"invalid rank {rank} for family {family.value}: valid range is {span}")
    if rank > MAX_RANK:
        raise LieFoliateError(f"rank {rank} is too large: at most {MAX_RANK}")
    return family


class DynkinVertex(namedtuple("DynkinVertex", "index double_circle")):
    __slots__ = ()


class DynkinEdge(namedtuple("DynkinEdge", "i j lines arrow", defaults=(None,))):
    """``arrow`` is (tail, head) on a multiple edge, head the shorter root, else None."""

    __slots__ = ()


class DynkinDiagram(namedtuple("DynkinDiagram", "vertices edges notes", defaults=((),))):
    """Decorated graph on the simple roots: line counts, arrows, double circles.

    Vertices and edges are stored and exported; adjacency, automorphisms and
    the Cartan matrix read the Cartan entries derived from the edges once,
    cached in the instance ``__dict__``.
    """

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def _entries(self) -> dict[tuple[int, int], int]:
        """Nonzero off-diagonal Cartan entries by 1-based (i, j): A_ij = A_ji = -lines
        on an edge without an arrow, A_ij = -lines and A_ji = -1 on one whose
        arrow runs from i to j (from the longer root to the shorter)."""
        a = {}
        for e in self.edges:
            tail, head = e.arrow or (e.i, e.j)
            a[tail, head] = -e.lines
            a[head, tail] = -1 if e.arrow else -e.lines
        return a

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix, A_ii = 2 and the entries of ``_entries`` off the diagonal."""
        a, n = self._entries, self.rank
        return tuple(tuple(2 if i == j else a.get((i, j), 0) for j in range(1, n + 1)) for i in range(1, n + 1))

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        joined = {i: set() for i in range(1, self.rank + 1)}
        for i, j in self._entries:
            joined[i].add(j)
        return {i: frozenset(js) for i, js in joined.items()}

    @cached_property
    def _automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """What ``diagram_automorphisms`` returns, searched once (``diagrams.automorphisms``)."""
        from .diagrams import automorphisms

        return automorphisms(self)

    def neighbors(self, index: int) -> frozenset[int]:
        """The vertices joined to vertex ``index``, an int (not a bool) in 1..rank, else LieFoliateError."""
        if type(index) is not int or not 1 <= index <= self.rank:
            raise LieFoliateError(f"vertex index {index!r} must be an int in 1..{self.rank}")
        return self._adjacency[index]

    @cached_property
    def _neighbor_masks(self) -> tuple[int, ...]:
        """Bit j-1 of entry i-1 is set when vertex j is joined to vertex i."""
        return tuple(sum(1 << (j - 1) for j in self._adjacency[i]) for i in range(1, self.rank + 1))

    def connected_components(self, indices) -> list[tuple[int, ...]]:
        """Connected components of the subdiagram induced on the given vertices, in
        sorted order; each must be an int (not a bool) in 1..rank, else LieFoliateError."""
        try:
            checked = tuple(indices)
        except TypeError:  # not an iterable
            checked = (None,)
        if not all(type(i) is int and 1 <= i <= self.rank for i in checked):
            raise LieFoliateError(f"vertex indices {indices!r} must be ints in 1..{self.rank}")
        return self._components_of(checked)

    def _components_of(self, indices) -> list[tuple[int, ...]]:
        """``connected_components`` of indices already checked.

        Each grows from the lowest pending vertex, taking a vertex's pending
        neighbours in one bitmask operation."""
        masks = self._neighbor_masks
        pending = 0
        for i in indices:
            pending |= 1 << (i - 1)
        comps = []
        while pending:
            frontier = pending & -pending
            pending ^= frontier
            comp = []
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                v = low.bit_length()
                comp.append(v)
                joined = masks[v - 1] & pending  # bit j-1 stands for vertex j
                pending ^= joined
                frontier |= joined
            comp.sort()
            comps.append(tuple(comp))
        return comps

    def to_dict(self) -> dict:
        from .diagrams import to_dict

        return to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DynkinDiagram":
        """Rebuild a diagram of ``to_dict``, checking that it is one (``diagrams.from_dict``)."""
        from .diagrams import from_dict

        return from_dict(cls, data)

    def to_dot(self, name: str = "dynkin") -> str:
        """Graphviz rendering; double circles become peripheries=2."""
        from .diagrams import to_dot

        return to_dot(self, name)


def family_diagram(family: Family | str, rank: int) -> DynkinDiagram:
    """The Dynkin diagram of ``build_root_system(family, rank)``, read off the simple roots alone.

    Vertices are the simple roots, double-circled when the doubled root is a
    root (the last of BC_r).  i and j are joined by A_ij A_ji lines, with an
    arrow from i to j when |A_ij| > |A_ji|, from the longer root to the
    shorter.  Only roots sharing a nonzero coordinate are paired, so this is
    linear in the rank.  Raises as ``build_root_system`` does.
    """
    family = _checked_family(family, rank)
    _, simple = _SIMPLE_ROOTS[family](rank)
    norms = [sum(c * c for c in alpha.values()) for alpha in simple]
    sharing: dict[int, list[int]] = {}
    for i, alpha in enumerate(simple):
        for k in alpha:
            sharing.setdefault(k, []).append(i)
    edges = []
    for i, j in sorted({pair for roots in sharing.values() for pair in combinations(roots, 2)}):
        dot = 2 * sum(c * simple[j].get(k, 0) for k, c in simple[i].items())
        if dot:
            a_ij, a_ji = dot // norms[j], dot // norms[i]
            arrow = None if a_ij == a_ji else ((i + 1, j + 1) if a_ij < a_ji else (j + 1, i + 1))
            edges.append(DynkinEdge(i + 1, j + 1, a_ij * a_ji, arrow))
    notes = ()
    if family is Family.BC:
        notes = (f"vertex {rank} stands for the pair (root, doubled root) and is drawn double-circled",)
        if rank >= 2:
            notes += (
                "the final two-line edge is often drawn with a double-headed arrow; "
                "here the arrow points at the short root and the double circle marks the non-reduced vertex",
            )
    vertices = tuple(DynkinVertex(i, family is Family.BC and i == rank) for i in range(1, rank + 1))
    return DynkinDiagram(vertices, tuple(edges), notes)


def diagram_automorphisms(dd: DynkinDiagram) -> list[tuple[int, ...]]:
    """All vertex permutations that preserve the Cartan matrix and the double circles.

    A permutation p is kept when A[p(i)][p(j)] = A[i][j] for all i, j; this
    preserves line counts and arrows (Humphreys 11.4, 12.2).  A backtracking
    search maps each vertex only to vertices with the same double circle and
    the same Cartan entries up to order (see ``diagrams.automorphisms``).
    Permutations are returned as tuples p with p[k] the image of vertex k+1,
    sorted with the identity first.  The result is closed under composition
    and inverses.  The search runs once per diagram; each call returns a new
    list.  ``dd`` must be a DynkinDiagram, else LieFoliateError.
    """
    expect(dd, DynkinDiagram)
    return list(dd._automorphisms)


# Positive roots of each irreducible type of rank k by length: (long, short,
# twice short), long and short those of its longest and shortest simple roots
# (Bourbaki, Plates I-IX).  B2 and C2 give the same counts.
POSITIVE_ROOT_COUNTS = {
    Family.A: lambda k: (k * (k + 1) // 2, 0, 0),
    Family.B: lambda k: (k * (k - 1), k, 0),
    Family.C: lambda k: (k, k * (k - 1), 0),
    Family.D: lambda k: (k * (k - 1), 0, 0),
    Family.E6: lambda k: (36, 0, 0),
    Family.E7: lambda k: (63, 0, 0),
    Family.E8: lambda k: (120, 0, 0),
    Family.F4: lambda k: (12, 12, 0),
    Family.G2: lambda k: (3, 3, 0),
    Family.BC: lambda k: (k * (k - 1), k, k),
}

_E_ARMS = {(1, 2, 2): Family.E6, (1, 2, 3): Family.E7, (1, 2, 4): Family.E8}


class SubdiagramType(namedtuple("SubdiagramType", "family rank long short")):
    """A connected subdiagram's type, one of its longest and one of its shortest simple roots."""

    __slots__ = ()


def subdiagram_type(dd: DynkinDiagram, component) -> SubdiagramType:
    """The type of the connected subdiagram on ``component``, read off its Cartan submatrix.

    A connected Dynkin diagram is a tree.  With no multiple edge it is A_k (a
    path), D_k or E6-E8 (a branch vertex with arms of 1, 1, k - 3 or 1, 2,
    k - 4 vertices), or BC_1 (one double-circled vertex).  With one it is a
    path: G2 (three lines), B_k or BC_k (the arrow points at an end, which BC
    double-circles), C_k (it leaves one) or F4 (in the middle of four).
    ``component`` must be sorted; else, or for any other subdiagram,
    LieFoliateError.
    """
    try:
        components = dd.connected_components(component)
    except AttributeError:
        expect(dd, DynkinDiagram)
        raise
    if components != [tuple(component)]:
        raise LieFoliateError(f"vertices {component!r} are not a sorted connected subdiagram")
    component = tuple(component)
    a, adj, inside, k = dd._entries, dd._adjacency, set(component), len(component)
    degree = {v: len(adj[v] & inside) for v in component}
    multiple = [(v, w) for v in component for w in adj[v] & inside if a[v, w] < -1]  # (longer, shorter)
    circled = [v for v in component if dd.vertices[v - 1].double_circle]
    branches = [v for v in component if degree[v] > 2]
    long, short = multiple[0] if multiple else (component[0], component[0])
    family = None
    if sum(degree.values()) != 2 * k - 2 or len(multiple) + len(branches) > 1 or circled not in ([], [short]):
        pass  # not a tree, or two multiple edges or branch vertices, or a double circle off its place
    elif multiple:
        if a[long, short] == -3:
            family = Family.G2 if k == 2 and not circled else None
        elif degree[short] == 1:
            family = Family.BC if circled else Family.B
        elif degree[long] == 1 and not circled:
            family = Family.C
        elif k == 4 and not circled:
            family = Family.F4
    elif circled:
        family = Family.BC if k == 1 else None
    elif branches:
        arms = sorted(map(len, dd._components_of(inside - {branches[0]})))
        family = Family.D if arms[:2] == [1, 1] else _E_ARMS.get(tuple(arms))
    else:
        family = Family.A
    if family is None:
        raise LieFoliateError(f"the subdiagram on {list(component)} is not a Dynkin diagram of finite type")
    return SubdiagramType(family, k, long, short)


def span_roots(family: Family, rank: int, dd: DynkinDiagram, component: tuple[int, ...]) -> list[Root]:
    """The positive roots of ``build_root_system(family, rank)`` spanned by the
    connected simple roots ``component`` of its diagram ``dd``: the walk of
    ``_positive_roots`` on them alone, costing the size of its output."""
    dim, simple = _SIMPLE_ROOTS[family](rank)
    a = dd._entries
    cartan = [[2 if i == j else a.get((i, j), 0) for j in component] for i in component]
    doubled = any(dd.vertices[i - 1].double_circle for i in component)
    walk = _positive_roots([_vector(dim, simple[i - 1]) for i in component], cartan, doubled)
    return [tuple.__new__(Root, (v,)) for _, v in walk]

