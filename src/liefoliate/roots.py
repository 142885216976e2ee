"""Exact restricted root systems and their Dynkin diagrams.

Implements the ten families of irreducible restricted root systems occurring
for Riemannian symmetric spaces of noncompact type: A_r, B_r, C_r, D_r, E6,
E7, E8, F4, G2 and the non-reduced family BC_r.  Every root stores doubled
integer coordinates, so the half-integer entries of the E-series and F4 stay
exact and every inner product is a rational number.

Each family is given only by a table of its simple roots.  One generator
walks root strings up from them in simple-root coefficients, using the
integer Cartan matrix, and maps the roots it finds to ambient coordinates
once, at the end; BC_r adds 2 beta for each short root beta of B_r.  The
same walk gives every root's simple-root coefficients and support mask.
Positive roots are ordered by height, then by their coefficients in
descending lexicographic order, so ``positive`` begins with the simple roots
in order.  The Dynkin diagram is read off the Cartan matrix and derives it
back from its edges; its adjacency and automorphisms read that one table.
``DynkinDiagram.from_dict`` accepts only edges that give such a table:
vertices 1..n, edges of 1 to 3 lines between two of them, and an arrow on
each multiple edge and on no other.

The records are immutable named tuples, and ``fractions`` is imported only
by the functions that build a Fraction, so building a root system and its
diagram loads neither ``dataclasses`` nor ``fractions``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from operator import add

from .errors import LieFoliateError

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

    ``scaled`` must be a non-empty tuple of ints (not bools), not all zero.
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
        return Root(tuple(-c for c in self.scaled))

    def double(self) -> "Root":
        return Root(tuple(2 * c for c in self.scaled))

    def __str__(self) -> str:
        return format_root(self)


def root_from_coords(coords) -> Root:
    """Build a Root from finite real coordinates, halves allowed; strings and bools are refused."""
    from fractions import Fraction
    from numbers import Rational

    try:
        coords = iter(coords)
    except TypeError:
        raise LieFoliateError(f"coordinates {coords!r} are not an iterable of numbers") from None
    scaled = []
    for c in coords:
        try:
            if isinstance(c, (str, bool)):
                raise TypeError
            s = Fraction(c if isinstance(c, Rational) else float(c)) * SCALE
        except (TypeError, ValueError, OverflowError):  # not a number, NaN, infinity
            raise LieFoliateError(f"coordinate {c!r} is not a finite number") from None
        if s.denominator != 1:
            raise LieFoliateError(f"coordinate {c} is not an integer or half-integer")
        scaled.append(int(s))
    return Root(tuple(scaled))


def format_root(root: Root) -> str:
    """Render a root as a combination of the ambient basis vectors e1, e2, ..."""
    halved = any(c % 2 for c in root.scaled)
    parts = []
    for i, s in enumerate(root.scaled, start=1):
        c = s if halved else s // 2
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}e{i}")
    body = "".join(parts)
    return f"({body})/2" if halved else body


def inner(lam: Root, mu: Root) -> Fraction:
    """Exact Euclidean pairing of two roots."""
    if lam.dim != mu.dim:
        raise LieFoliateError(f"ambient dimension mismatch: {lam.dim} != {mu.dim}")
    from fractions import Fraction

    return Fraction(sum(a * b for a, b in zip(lam.scaled, mu.scaled)), SCALE * SCALE)


def reflect(lam: Root, x: Root) -> Root:
    """Reflect x in the hyperplane orthogonal to lam.

    Computes x - 2 <x,lam>/<lam,lam> lam exactly.  The result must again have
    doubled-integer coordinates, which holds whenever both vectors belong to a
    common crystallographic root system.
    """
    if lam.dim != x.dim:
        raise LieFoliateError(f"ambient dimension mismatch: {lam.dim} != {x.dim}")
    num = 2 * sum(a * b for a, b in zip(x.scaled, lam.scaled))
    den = sum(a * a for a in lam.scaled)
    if num % den == 0:
        c = num // den
        return Root(tuple(xs - c * ls for xs, ls in zip(x.scaled, lam.scaled)))
    from fractions import Fraction

    c = Fraction(num, den)
    scaled = []
    for xs, ls in zip(x.scaled, lam.scaled):
        v = xs - c * ls
        if v.denominator != 1:
            raise LieFoliateError("reflection image has non-(half-)integer coordinates")
        scaled.append(int(v))
    return Root(tuple(scaled))


def _vector(dim: int, entries: dict[int, int]) -> tuple[int, ...]:
    return tuple(entries.get(k, 0) for k in range(dim))


def _chain(dim: int) -> tuple[tuple[int, ...], ...]:
    """e_1 - e_2, ..., e_{dim-1} - e_dim in doubled coordinates."""
    return tuple(_vector(dim, {i: SCALE, i + 1: -SCALE}) for i in range(dim - 1))


# alpha_1, ..., alpha_8 of E8; E6 and E7 use the first six and seven.
_E8_SIMPLE = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)

# Simple roots alpha_1, ..., alpha_r of each family at rank r, in doubled
# coordinates (Bourbaki, Lie IV-VI, Plates I-IX).  BC_r shares those of B_r.
_SIMPLE_ROOTS = {
    Family.A: lambda r: _chain(r + 1),
    Family.B: lambda r: _chain(r) + (_vector(r, {r - 1: SCALE}),),
    Family.C: lambda r: _chain(r) + (_vector(r, {r - 1: 2 * SCALE}),),
    Family.D: lambda r: _chain(r) + (_vector(r, {r - 2: SCALE, r - 1: SCALE}),),
    Family.E6: lambda r: _E8_SIMPLE[:6],
    Family.E7: lambda r: _E8_SIMPLE[:7],
    Family.E8: lambda r: _E8_SIMPLE,
    Family.F4: lambda r: ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)),
    Family.G2: lambda r: ((2, -2, 0), (-4, 2, 2)),
    Family.BC: lambda r: _SIMPLE_ROOTS[Family.B](r),
}


def _independent(vectors) -> bool:
    """Whether integer vectors are linearly independent (fraction-free elimination)."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p[col] * a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank == len(rows)


def _cartan_matrix(simple) -> tuple[tuple[int, ...], ...]:
    """A_ij = 2<alpha_i, alpha_j>/<alpha_j, alpha_j> of the given simple roots.

    Raises unless the simple roots are independent, every entry is an integer
    and A_ij <= 0 for i != j, as for the simple roots of a crystallographic
    root system.
    """
    if not _independent(simple):
        raise LieFoliateError("simple roots are linearly dependent")
    norms = [sum(a * a for a in alpha) for alpha in simple]
    cartan = []
    for i, a in enumerate(simple):
        row = []
        for j, b in enumerate(simple):
            num = 2 * sum(x * y for x, y in zip(a, b))
            if num % norms[j]:
                from fractions import Fraction

                raise LieFoliateError(
                    f"Cartan entry A_{i + 1},{j + 1} = {Fraction(num, norms[j])} is not an integer"
                )
            if i != j and num > 0:
                raise LieFoliateError(
                    f"Cartan entry A_{i + 1},{j + 1} is positive: simple roots must not make an acute angle"
                )
            row.append(num // norms[j])
        cartan.append(tuple(row))
    return tuple(cartan)


def _positive_roots(family: Family, simple, cartan) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(simple-root coefficients, doubled coordinates) of each positive root, in canonical order.

    Walks root strings up from the simple roots, one height at a time
    (Humphreys, Intro. to Lie Algebras, 9.4 and 10.2).  If the alpha_i-string
    through a positive root beta starts at beta - p alpha_i, it ends at
    beta + q alpha_i with q = p - <beta, alpha_i^vee>, so beta + alpha_i is a
    root iff p - <beta, alpha_i^vee> > 0.  Every root below beta is found
    before beta's level is walked, so p is read off the roots found.  Each
    root keeps its pairings <beta, alpha_i^vee> = sum_j c_j A_ji, and
    beta + alpha_i adds row i of the Cartan matrix to them.  BC_r adds
    2 beta for each short root beta.  The order is by height, then by
    coefficients in descending lexicographic order, so the first r roots
    are the simple roots in order.
    """
    r = len(simple)
    units = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    pairings = dict(zip(units, cartan))
    parents: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    level = units
    while level:
        above: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        for c in level:
            n = pairings[c]
            for i in range(r):
                p, down = 0, c
                while down[i]:
                    down = down[:i] + (down[i] - 1,) + down[i + 1:]
                    if down not in pairings:
                        break
                    p += 1
                if p - n[i] > 0:
                    above.setdefault(c[:i] + (c[i] + 1,) + c[i + 1:], (c, i))
        for up, (c, i) in above.items():
            pairings[up] = tuple(map(add, pairings[c], cartan[i]))
        parents.update(above)
        level = list(above)
    # Parents are listed before their children, so each root's coordinates
    # are one vector sum away from its parent's.
    coords = dict(zip(units, simple))
    for up, (c, i) in parents.items():
        coords[up] = tuple(map(add, coords[c], simple[i]))
    if family is Family.BC:
        short = min(sum(a * a for a in alpha) for alpha in simple)
        for c, v in list(coords.items()):
            if sum(a * a for a in v) == short:
                coords[tuple(2 * x for x in c)] = tuple(2 * a for a in v)
    order = sorted(coords, key=lambda c: (sum(c), [-x for x in c]))
    return [(c, coords[c]) for c in order]


def _generate(family: Family, rank: int, simple) -> "RootSystem":
    """The root system spanned by the given simple roots (doubled-integer tuples)."""
    cartan = _cartan_matrix(simple)
    walk = _positive_roots(family, simple, cartan)
    positive = tuple(Root(v) for _, v in walk)
    roots = frozenset(positive) | frozenset(-lam for lam in positive)
    coefficients = tuple(c for c, _ in walk)
    return RootSystem(family, rank, len(simple[0]), roots, positive, positive[:rank],
                      cartan, coefficients)


class RootSystem(namedtuple("RootSystem", "family rank ambient_dim roots positive simple cartan coefficients")):
    """A full root system: all roots, a choice of positives, and simple roots.

    ``positive`` is in canonical order (see ``_positive_roots``) and begins
    with ``simple``; ``cartan`` is the Cartan matrix of ``simple`` and
    ``coefficients`` the simple-root coefficients of each positive root.
    Both are functions of ``simple`` and ``positive``, so comparing them too
    decides no equality differently.  No ``__slots__``: the cached
    properties live in the instance ``__dict__``.
    """

    def __contains__(self, root: Root) -> bool:
        return root in self.roots

    def simple_coefficients(self, root: Root) -> tuple[int, ...]:
        """Integer coefficients of a root of the system over the simple roots."""
        k = self.positive_index.get(root)
        if k is not None:
            return self.coefficients[k]
        k = self.positive_index.get(-root)
        if k is None:
            raise LieFoliateError(f"{root} is not a root of {self.family.value}_{self.rank}")
        return tuple(-x for x in self.coefficients[k])

    @cached_property
    def rows(self) -> tuple[tuple[Root, Root, int], ...]:
        """(lambda, -lambda, support mask) for each lambda of ``positive``, in order.

        Bit i-1 of the mask is set when alpha_i occurs in lambda.

        Both roots of a row are the system's own Root objects, so a scan over
        the rows builds no Root.
        """
        own = {lam.scaled: lam for lam in self.roots}
        return tuple(
            (lam, own[tuple(-x for x in lam.scaled)], sum(1 << i for i, x in enumerate(c) if x))
            for lam, c in zip(self.positive, self.coefficients)
        )

    @cached_property
    def positive_index(self) -> dict[Root, int]:
        """Positive root -> its position in ``positive`` (and in ``rows``)."""
        return {lam: k for k, lam in enumerate(self.positive)}

    @cached_property
    def _dynkin_diagram(self) -> "DynkinDiagram":
        return _build_dynkin_diagram(self)

    @cached_property
    def length_classes(self) -> dict[Fraction, tuple[Root, ...]]:
        classes = {}
        for root in sorted(self.roots):
            classes.setdefault(inner(root, root), []).append(root)
        return {k: tuple(v) for k, v in sorted(classes.items())}

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "coordinate_scale": SCALE,
            "simple": [list(r.scaled) for r in self.simple],
            "positive": [list(r.scaled) for r in self.positive],
            "roots": [list(r.scaled) for r in sorted(self.roots)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RootSystem":
        """Generate the system from the listed simple roots and check the rest against it.

        The simple roots must have the Cartan matrix of ``build_root_system``
        for the family and rank, and the listed positive roots must be the
        generated ones, in any order; the result lists them in canonical order.
        """
        if not isinstance(data, dict):
            raise LieFoliateError(f"root system data is a {type(data).__name__}, not a dict")
        missing = [key for key in ("family", "rank", "ambient_dim", "simple", "positive", "roots")
                   if key not in data]
        if missing:
            raise LieFoliateError(f"root system data lacks {', '.join(missing)}")
        try:
            family, rank = Family(data["family"]), data["rank"]
        except ValueError:
            raise LieFoliateError(f"unknown root system family {data['family']!r}") from None
        simple = tuple(alpha.scaled for alpha in _listed_roots(data, "simple"))
        if len(simple) != rank or rank < 1:
            raise LieFoliateError("number of simple roots must equal the rank, which is at least 1")
        if any(len(alpha) != data["ambient_dim"] for alpha in simple):
            raise LieFoliateError("simple roots must have ambient_dim coordinates")
        rs = _generate(family, rank, simple)
        if rs.cartan != build_root_system(family, rank).cartan:
            raise LieFoliateError(f"simple roots do not have the Cartan matrix of {family.value}_{rank}")
        positive = _listed_roots(data, "positive")
        if len(positive) != len(rs.positive) or set(positive) != set(rs.positive):
            raise LieFoliateError("positive roots are not those the simple roots generate")
        if frozenset(_listed_roots(data, "roots")) != rs.roots:
            raise LieFoliateError("root set is not the positive roots and their negatives")
        return rs


def _listed_roots(data: dict, key: str) -> list[Root]:
    """The roots that ``data[key]`` lists as lists of doubled coordinates."""
    listed = data[key]
    if not isinstance(listed, list) or not all(isinstance(c, list) for c in listed):
        raise LieFoliateError(f"{key} must be a list of lists of doubled coordinates")
    return [Root(tuple(c)) for c in listed]


def build_root_system(family: Family | str, rank: int) -> RootSystem:
    """Construct the root system of the given family and rank.

    Raises LieFoliateError when the rank is outside the family's validity
    range (A: r>=1; B, C: r>=2; D: r>=3; BC: r>=1; exceptional families have
    a fixed rank), and for an unknown family, before the cache is consulted,
    so unhashable arguments raise LieFoliateError too.  Each system is built
    once; ``cache_info`` and ``cache_clear`` are those of that cache.
    """
    try:
        family = Family(family)
    except ValueError:
        raise LieFoliateError(f"unknown root system family {family!r}") from None
    lo, hi = RANK_RANGES[family]
    if type(rank) is not int or rank < lo or (hi is not None and rank > hi):
        span = f"rank = {lo}" if hi == lo else f"rank >= {lo}"
        raise LieFoliateError(f"invalid rank {rank} for family {family.value}: valid range is {span}")
    return _built_root_system(family, rank)


@lru_cache(maxsize=None)
def _built_root_system(family: Family, rank: int) -> RootSystem:
    return _generate(family, rank, _SIMPLE_ROOTS[family](rank))


build_root_system.cache_info = _built_root_system.cache_info
build_root_system.cache_clear = _built_root_system.cache_clear


class DynkinVertex(namedtuple("DynkinVertex", "index double_circle")):
    __slots__ = ()


class DynkinEdge(namedtuple("DynkinEdge", "i j lines arrow", defaults=(None,))):
    """``arrow`` is (tail, head) on a multiple edge, head the shorter root, else None."""

    __slots__ = ()


class DynkinDiagram(namedtuple("DynkinDiagram", "vertices edges notes", defaults=((),))):
    """Decorated graph on the simple roots: line counts, arrows, double circles.

    Vertices and edges are stored and exported; adjacency and automorphisms
    read the Cartan matrix ``cartan`` derived from them once, cached in the
    instance ``__dict__``.
    """

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix read off the edges: A_ij = A_ji = -lines on an edge
        without an arrow, A_ij = -lines and A_ji = -1 on one whose arrow runs
        from i to j (from the longer root to the shorter)."""
        a = [[2 * (i == j) for j in range(self.rank)] for i in range(self.rank)]
        for e in self.edges:
            tail, head = e.arrow or (e.i, e.j)
            a[tail - 1][head - 1] = -e.lines
            a[head - 1][tail - 1] = -1 if e.arrow else -e.lines
        return tuple(map(tuple, a))

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        return {i: frozenset(j for j, x in enumerate(row, start=1) if x and j != i)
                for i, row in enumerate(self.cartan, start=1)}

    @cached_property
    def _automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """What ``diagram_automorphisms`` returns, searched once."""
        a = self.cartan
        n = len(a)
        marks = [(v.double_circle, sorted(row)) for v, row in zip(self.vertices, a)]
        images = [[w for w in range(n) if marks[w] == marks[v]] for v in range(n)]
        results: list[tuple[int, ...]] = []
        perm: list[int] = []

        def extend(v: int) -> None:
            if v == n:
                results.append(tuple(w + 1 for w in perm))
                return
            for w in images[v]:
                # the latest vertices first: on a path, a wrong image fails at once
                if w not in perm and all(a[w][perm[u]] == a[v][u] and a[perm[u]][w] == a[u][v]
                                         for u in reversed(range(v))):
                    perm.append(w)
                    extend(v + 1)
                    perm.pop()

        extend(0)
        return tuple(sorted(results))

    def neighbors(self, index: int) -> frozenset[int]:
        return self._adjacency[index]

    @cached_property
    def _neighbor_masks(self) -> tuple[int, ...]:
        """Bit j-1 of entry i-1 is set when vertex j is joined to vertex i."""
        return tuple(sum(1 << (j - 1) for j in self._adjacency[i]) for i in range(1, self.rank + 1))

    def connected_components(self, indices) -> list[tuple[int, ...]]:
        """Connected components of the subdiagram induced on the given vertices, in sorted order.

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
        return {
            "vertices": [
                {"index": v.index, "double_circle": v.double_circle} for v in self.vertices
            ],
            "edges": [
                {
                    "i": e.i,
                    "j": e.j,
                    "lines": e.lines,
                    "arrow": list(e.arrow) if e.arrow else None,
                }
                for e in self.edges
            ],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DynkinDiagram":
        """Rebuild a diagram of ``to_dict``, checking that it is one.

        Raises LieFoliateError for a missing key, vertices not indexed 1..n in
        order, an edge that is a loop, repeats a pair or leaves the vertices,
        a line count outside 1..3, and an arrow that is not (i, j) or (j, i)
        of its own multiple edge; a single edge carries no arrow.
        """
        try:
            vertices = tuple(DynkinVertex(v["index"], v["double_circle"]) for v in data["vertices"])
            edges = tuple(DynkinEdge(e["i"], e["j"], e["lines"],
                                     tuple(e["arrow"]) if e.get("arrow") else None) for e in data["edges"])
        except KeyError as exc:
            raise LieFoliateError(f"Dynkin diagram data lacks {exc}") from None
        except TypeError as exc:
            raise LieFoliateError(f"malformed Dynkin diagram data: {exc}") from None
        n = len(vertices)
        if [(type(v.index), v.index) for v in vertices] != [(int, i) for i in range(1, n + 1)]:
            raise LieFoliateError(f"diagram vertices must be indexed 1..{n} in order")
        pairs = set()
        for e in edges:
            ends = frozenset((e.i, e.j))
            if any(type(x) is not int for x in (e.i, e.j, e.lines)) or not ends <= set(range(1, n + 1)):
                raise LieFoliateError(f"edge {e.i}-{e.j} must join two of the vertices 1..{n}")
            if len(ends) == 1 or ends in pairs:
                raise LieFoliateError(f"edge {e.i}-{e.j} is a loop or joins a pair twice")
            pairs.add(ends)
            if not 1 <= e.lines <= 3:
                raise LieFoliateError(f"edge {e.i}-{e.j} has {e.lines} lines, not 1, 2 or 3")
            if e.arrow not in (((e.i, e.j), (e.j, e.i)) if e.lines > 1 else (None,)):
                raise LieFoliateError(f"edge {e.i}-{e.j} of {e.lines} lines cannot carry the arrow {e.arrow}")
        return cls(vertices, edges, tuple(data.get("notes", ())))

    def to_dot(self, name: str = "dynkin") -> str:
        """Graphviz rendering; double circles become peripheries=2."""
        lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle, fixedsize=true, width=0.3];']
        for note in self.notes:
            lines.append(f"  // {note}")
        for v in self.vertices:
            extra = ", peripheries=2" if v.double_circle else ""
            lines.append(f'  a{v.index} [label="{v.index}"{extra}];')
        for e in self.edges:
            if e.arrow is None:
                lines.append(f'  a{e.i} -> a{e.j} [label="{e.lines}", dir=none];')
            else:
                tail, head = e.arrow
                lines.append(f'  a{tail} -> a{head} [label="{e.lines}", dir=forward];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def dynkin_diagram(rs: RootSystem) -> DynkinDiagram:
    """Dynkin diagram of a root system.

    Vertices are the simple roots, double-circled when the doubled root is
    again a root.  Vertices i and j are joined by A_ij A_ji lines, read off
    the Cartan matrix; on a multiple edge the arrow runs from i to j when
    |A_ij| > |A_ji|, that is from the longer root to the shorter one.  The
    diagram is built once per root system and the same immutable object is
    returned on every call.
    """
    return rs._dynkin_diagram


def _build_dynkin_diagram(rs: RootSystem) -> DynkinDiagram:
    a = rs.cartan
    vertices = tuple(
        DynkinVertex(i + 1, rs.simple[i].double() in rs.roots) for i in range(rs.rank)
    )
    edges = []
    for i, j in combinations(range(rs.rank), 2):
        if a[i][j]:
            longer, shorter = (i + 1, j + 1) if a[i][j] < a[j][i] else (j + 1, i + 1)
            arrow = None if a[i][j] == a[j][i] else (longer, shorter)
            edges.append(DynkinEdge(i + 1, j + 1, a[i][j] * a[j][i], arrow))
    notes = ()
    if rs.family is Family.BC:
        notes = (
            f"vertex {rs.rank} stands for the pair (root, doubled root) and is drawn double-circled",
        )
        if rs.rank >= 2:
            notes += (
                "the final two-line edge is often drawn with a double-headed arrow; "
                "here the arrow points at the short root and the double circle marks the non-reduced vertex",
            )
    return DynkinDiagram(vertices, tuple(edges), notes)


def diagram_automorphisms(dd: DynkinDiagram) -> list[tuple[int, ...]]:
    """All vertex permutations that preserve the Cartan matrix and the double circles.

    A permutation p is kept when A[p(i)][p(j)] = A[i][j] for all i, j; this
    preserves line counts and arrows (Humphreys 11.4, 12.2).  A backtracking
    search maps each vertex only to vertices with the same double circle and
    the same Cartan row up to order.  Permutations are returned as tuples p
    with p[k] the image of vertex k+1, sorted with the identity first.  The
    result is closed under composition and inverses.  The search runs once per
    diagram; each call returns a new list.
    """
    return list(dd._automorphisms)


def apply_permutation(perm: tuple[int, ...], subset) -> tuple[int, ...]:
    """Image of a set of 1-based vertex indices under a permutation tuple."""
    return tuple(sorted(perm[i - 1] for i in subset))
