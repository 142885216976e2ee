"""Exact restricted root systems and their Dynkin diagrams.

Implements the ten families of irreducible restricted root systems occurring
for Riemannian symmetric spaces of noncompact type: A_r, B_r, C_r, D_r, E6,
E7, E8, F4, G2 and the non-reduced family BC_r.  Every root stores doubled
integer coordinates, so the half-integer entries of the E-series and F4 stay
exact and every inner product is a rational number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

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


@dataclass(frozen=True, order=True)
class Root:
    """A nonzero vector with rational coordinates, stored doubled as integers."""

    scaled: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.scaled:
            raise LieFoliateError("a root needs at least one coordinate")
        if not all(isinstance(c, int) for c in self.scaled):
            raise LieFoliateError("scaled root coordinates must be integers")
        if all(c == 0 for c in self.scaled):
            raise LieFoliateError("a root is never the zero vector")

    @property
    def dim(self) -> int:
        return len(self.scaled)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, SCALE) for c in self.scaled)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.scaled))

    def double(self) -> "Root":
        return Root(tuple(2 * c for c in self.scaled))

    def __str__(self) -> str:
        return format_root(self)


def root_from_coords(coords) -> Root:
    """Build a Root from plain rational coordinates (halves allowed)."""
    scaled = []
    for c in coords:
        s = Fraction(c) * SCALE
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
    c = Fraction(num, den)
    scaled = []
    for xs, ls in zip(x.scaled, lam.scaled):
        v = xs - c * ls
        if v.denominator != 1:
            raise LieFoliateError("reflection image has non-(half-)integer coordinates")
        scaled.append(int(v))
    return Root(tuple(scaled))


def _unit(dim: int, i: int, value: int = SCALE) -> tuple[int, ...]:
    v = [0] * dim
    v[i] = value
    return tuple(v)


def _e(dim: int, i: int) -> Root:
    """e_{i+1} as a Root (0-based index)."""
    return Root(_unit(dim, i))


def _pair_sum(dim: int, i: int, j: int, si: int, sj: int) -> Root:
    v = [0] * dim
    v[i] = si * SCALE
    v[j] = sj * SCALE
    return Root(tuple(v))


def _build_a(r: int):
    dim = r + 1
    positive = [_pair_sum(dim, i, j, 1, -1) for i in range(dim) for j in range(i + 1, dim)]
    simple = [_pair_sum(dim, i, i + 1, 1, -1) for i in range(r)]
    return dim, positive, simple


def _build_b(r: int):
    dim = r
    positive = []
    for i in range(r):
        for j in range(i + 1, r):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    positive.extend(_e(dim, i) for i in range(r))
    simple = [_pair_sum(dim, i, i + 1, 1, -1) for i in range(r - 1)]
    simple.append(_e(dim, r - 1))
    return dim, positive, simple


def _build_c(r: int):
    dim = r
    positive = []
    for i in range(r):
        for j in range(i + 1, r):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    positive.extend(Root(_unit(dim, i, 2 * SCALE)) for i in range(r))
    simple = [_pair_sum(dim, i, i + 1, 1, -1) for i in range(r - 1)]
    simple.append(Root(_unit(dim, r - 1, 2 * SCALE)))
    return dim, positive, simple


def _build_d(r: int):
    dim = r
    positive = []
    for i in range(r):
        for j in range(i + 1, r):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    simple = [_pair_sum(dim, i, i + 1, 1, -1) for i in range(r - 1)]
    simple.append(_pair_sum(dim, r - 2, r - 1, 1, 1))
    return dim, positive, simple


def _build_bc(r: int):
    dim = r
    positive = []
    for i in range(r):
        for j in range(i + 1, r):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    positive.extend(_e(dim, i) for i in range(r))
    positive.extend(Root(_unit(dim, i, 2 * SCALE)) for i in range(r))
    simple = [_pair_sum(dim, i, i + 1, 1, -1) for i in range(r - 1)]
    simple.append(_e(dim, r - 1))
    return dim, positive, simple


def _half_root(signs) -> Root:
    # signs is a full tuple of +-1; coordinates are signs/2, stored as odd ints.
    return Root(tuple(int(s) for s in signs))


def _e_simple_roots(count: int) -> list[Root]:
    # Shared by E6/E7/E8: alpha_1 is a half root, alpha_2 = e1+e2, then
    # alpha_i = e_{i-1} - e_{i-2}.
    dim = 8
    alpha1 = _half_root((1, -1, -1, -1, -1, -1, -1, 1))
    alpha2 = _pair_sum(dim, 0, 1, 1, 1)
    rest = [_pair_sum(dim, i - 2, i - 3, 1, -1) for i in range(3, count + 1)]
    return [alpha1, alpha2] + rest


def _build_e8(r: int):
    dim = 8
    positive = []
    for i in range(dim):
        for j in range(i):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    # Half roots with coefficient +1/2 on e8 and an even number of minus
    # signs among the first seven coordinates.
    for signs in itertools.product((1, -1), repeat=7):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            positive.append(_half_root(signs + (1,)))
    return dim, positive, _e_simple_roots(8)


def _build_e7(r: int):
    dim = 8
    positive = []
    for i in range(6):
        for j in range(i):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    positive.append(_pair_sum(dim, 7, 6, 1, -1))
    # Half roots orthogonal to e7+e8: sign pattern (-1 on e7, +1 on e8) with an
    # odd number of minus signs among the first six coordinates.
    for signs in itertools.product((1, -1), repeat=6):
        if sum(1 for s in signs if s < 0) % 2 == 1:
            positive.append(_half_root(signs + (-1, 1)))
    return dim, positive, _e_simple_roots(7)


def _build_e6(r: int):
    dim = 8
    positive = []
    for i in range(5):
        for j in range(i):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    # Half roots orthogonal to e6-e7 and e7+e8, with an even number of minus
    # signs among the first five coordinates.
    for signs in itertools.product((1, -1), repeat=5):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            positive.append(_half_root(signs + (-1, -1, 1)))
    return dim, positive, _e_simple_roots(6)


def _build_f4(r: int):
    dim = 4
    positive = []
    for i in range(4):
        for j in range(i + 1, 4):
            positive.append(_pair_sum(dim, i, j, 1, -1))
            positive.append(_pair_sum(dim, i, j, 1, 1))
    positive.extend(_e(dim, i) for i in range(4))
    for signs in itertools.product((1, -1), repeat=3):
        positive.append(_half_root((1,) + signs))
    simple = [
        _pair_sum(dim, 1, 2, 1, -1),
        _pair_sum(dim, 2, 3, 1, -1),
        _e(dim, 3),
        _half_root((1, -1, -1, -1)),
    ]
    return dim, positive, simple


def _build_g2(r: int):
    dim = 3
    positive = [
        Root((2, -2, 0)),
        Root((-4, 2, 2)),
        Root((-2, 0, 2)),
        Root((0, -2, 2)),
        Root((2, -4, 2)),
        Root((-2, -2, 4)),
    ]
    simple = [positive[0], positive[1]]
    return dim, positive, simple


_BUILDERS = {
    Family.A: _build_a,
    Family.B: _build_b,
    Family.C: _build_c,
    Family.D: _build_d,
    Family.E6: _build_e6,
    Family.E7: _build_e7,
    Family.E8: _build_e8,
    Family.F4: _build_f4,
    Family.G2: _build_g2,
    Family.BC: _build_bc,
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


@dataclass(frozen=True)
class RootSystem:
    """A full root system: all roots, a choice of positives, and simple roots."""

    family: Family
    rank: int
    ambient_dim: int
    roots: frozenset[Root]
    positive: tuple[Root, ...]
    simple: tuple[Root, ...]

    def __contains__(self, root: Root) -> bool:
        return root in self.roots

    @property
    def negative(self) -> tuple[Root, ...]:
        return tuple(-p for p in self.positive)

    @cached_property
    def _expansion(self) -> tuple[dict[Root, tuple[int, ...]], dict[Root, int]]:
        """Simple-root coefficients and support bitmasks of every root.

        Walks the positive roots by height: every positive root that is not
        simple is beta + alpha_i for a positive root beta one level lower
        (Humphreys, Intro. to Lie Algebras, 10.2), so coeff(beta) + e_i is its
        expansion once the simple roots are independent.  Bit i-1 of a mask
        is set when alpha_i occurs.  Tables are keyed by the system's own
        Root objects.
        """
        if not _independent(r.scaled for r in self.simple):
            raise LieFoliateError("simple roots are linearly dependent")
        by_scaled = {p.scaled: p for p in self.positive}
        coeffs: dict[Root, tuple[int, ...]] = {}
        masks: dict[Root, int] = {}
        level = []
        for i, alpha in enumerate(self.simple):
            coeffs[alpha] = tuple(int(j == i) for j in range(self.rank))
            masks[alpha] = 1 << i
            level.append(alpha)
        while level:
            above = []
            for beta in level:
                c, m = coeffs[beta], masks[beta]
                for i, alpha in enumerate(self.simple):
                    lam = by_scaled.get(tuple(a + b for a, b in zip(beta.scaled, alpha.scaled)))
                    if lam is not None and lam not in coeffs:
                        coeffs[lam] = c[:i] + (c[i] + 1,) + c[i + 1:]
                        masks[lam] = m | (1 << i)
                        above.append(lam)
            level = above
        for p in self.positive:
            if p not in coeffs:
                raise LieFoliateError(
                    f"positive root {p} is not a sum of simple roots through positive roots"
                )
        for lam in self.roots:
            if lam not in coeffs:
                p = -lam
                coeffs[lam] = tuple(-c for c in coeffs[p])
                masks[lam] = masks[p]
        return coeffs, masks

    def simple_coefficients(self, root: Root) -> tuple[int, ...]:
        """Integer coefficients of a root of the system over the simple roots."""
        try:
            return self._expansion[0][root]
        except KeyError:
            raise LieFoliateError(f"{root} is not a root of {self.family.value}_{self.rank}")

    @property
    def support_masks(self) -> dict[Root, int]:
        """Root -> bitmask of its support: bit i-1 is set when alpha_i occurs."""
        return self._expansion[1]

    @cached_property
    def rows(self) -> tuple[tuple[Root, Root, int], ...]:
        """(lambda, -lambda, support mask) for each lambda of ``positive``, in order.

        Both roots of a row are the system's own Root objects, so a scan over
        the rows builds no Root.
        """
        masks = self.support_masks
        own = {lam.scaled: lam for lam in self.roots}
        return tuple((lam, own[tuple(-c for c in lam.scaled)], masks[lam]) for lam in self.positive)

    @cached_property
    def positive_index(self) -> dict[Root, int]:
        """Positive root -> its position in ``positive`` (and in ``rows``)."""
        return {lam: k for k, lam in enumerate(self.positive)}

    @cached_property
    def _dynkin_diagram(self) -> "DynkinDiagram":
        return _build_dynkin_diagram(self)

    @cached_property
    def length_classes(self) -> dict[Fraction, tuple[Root, ...]]:
        classes: dict[Fraction, list[Root]] = {}
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
        rs = cls(
            family=Family(data["family"]),
            rank=data["rank"],
            ambient_dim=data["ambient_dim"],
            roots=frozenset(Root(tuple(c)) for c in data["roots"]),
            positive=tuple(Root(tuple(c)) for c in data["positive"]),
            simple=tuple(Root(tuple(c)) for c in data["simple"]),
        )
        _validate_system(rs)
        return rs


def _validate_system(rs: RootSystem) -> None:
    pos = set(rs.positive)
    neg = {-p for p in rs.positive}
    if pos & neg:
        raise LieFoliateError("positive roots meet their negatives")
    if rs.roots != pos | neg:
        raise LieFoliateError("root set is not the disjoint union of positives and negatives")
    if not set(rs.simple) <= pos:
        raise LieFoliateError("simple roots must be positive")
    if len(rs.simple) != rs.rank:
        raise LieFoliateError("number of simple roots must equal the rank")
    # Building the expansion raises unless the simple roots are independent
    # and reach every positive root.
    rs._expansion
    doubled = {r for r in rs.roots if r.double() in rs.roots}
    if rs.family is Family.BC:
        expected = {r for r in rs.roots if sum(1 for c in r.scaled if c) == 1 and
                    all(c in (0, SCALE, -SCALE) for c in r.scaled)}
        if doubled != expected:
            raise LieFoliateError("BC system must double exactly the short basis roots")
    elif doubled:
        raise LieFoliateError(f"{rs.family.value} system must be reduced")


@lru_cache(maxsize=None)
def build_root_system(family: Family | str, rank: int) -> RootSystem:
    """Construct the root system of the given family and rank.

    Raises LieFoliateError when the rank is outside the family's validity
    range (A: r>=1; B, C: r>=2; D: r>=3; BC: r>=1; exceptional families have
    a fixed rank).
    """
    family = Family(family)
    lo, hi = RANK_RANGES[family]
    if not isinstance(rank, int) or rank < lo or (hi is not None and rank > hi):
        span = f"rank = {lo}" if hi == lo else f"rank >= {lo}"
        raise LieFoliateError(f"invalid rank {rank} for family {family.value}: valid range is {span}")
    dim, positive, simple = _BUILDERS[family](rank)
    roots = frozenset(positive) | frozenset(-p for p in positive)
    rs = RootSystem(family, rank, dim, roots, tuple(positive), tuple(simple))
    _validate_system(rs)
    return rs


@dataclass(frozen=True)
class DynkinVertex:
    index: int
    double_circle: bool


@dataclass(frozen=True)
class DynkinEdge:
    i: int
    j: int
    lines: int
    arrow: tuple[int, int] | None = None  # (tail, head); head is the shorter root


@dataclass(frozen=True)
class DynkinDiagram:
    """Decorated graph on the simple roots: line counts, arrows, double circles."""

    vertices: tuple[DynkinVertex, ...]
    edges: tuple[DynkinEdge, ...]
    notes: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v.index: set() for v in self.vertices}
        for e in self.edges:
            adj[e.i].add(e.j)
            adj[e.j].add(e.i)
        return {k: frozenset(v) for k, v in adj.items()}

    def neighbors(self, index: int) -> frozenset[int]:
        return self._adjacency[index]

    @cached_property
    def _edge_table(self) -> dict[tuple[int, int], DynkinEdge]:
        return {(min(e.i, e.j), max(e.i, e.j)): e for e in self.edges}

    def edge_between(self, i: int, j: int) -> DynkinEdge | None:
        return self._edge_table.get((min(i, j), max(i, j)))

    def connected_components(self, indices) -> list[tuple[int, ...]]:
        """Connected components of the subdiagram induced on the given vertices."""
        pending = set(indices)
        comps = []
        while pending:
            seed = min(pending)
            comp = {seed}
            frontier = [seed]
            while frontier:
                v = frontier.pop()
                for w in self.neighbors(v):
                    if w in pending and w not in comp:
                        comp.add(w)
                        frontier.append(w)
            pending -= comp
            comps.append(tuple(sorted(comp)))
        return sorted(comps)

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
        return cls(
            vertices=tuple(
                DynkinVertex(v["index"], v["double_circle"]) for v in data["vertices"]
            ),
            edges=tuple(
                DynkinEdge(e["i"], e["j"], e["lines"],
                           tuple(e["arrow"]) if e.get("arrow") else None)
                for e in data["edges"]
            ),
            notes=tuple(data.get("notes", ())),
        )

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
    again a root.  Two vertices are joined by 4<a,b>^2 / (<a,a><b,b>) lines
    (an exact integer in {0,1,2,3}); on multiple edges an arrow points from
    the longer root to the shorter one.  The diagram is built once per root
    system and the same immutable object is returned on every call.
    """
    return rs._dynkin_diagram


def _build_dynkin_diagram(rs: RootSystem) -> DynkinDiagram:
    vertices = tuple(
        DynkinVertex(i + 1, rs.simple[i].double() in rs.roots) for i in range(rs.rank)
    )
    edges = []
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            a, b = rs.simple[i], rs.simple[j]
            ab = inner(a, b)
            q = 4 * ab * ab / (inner(a, a) * inner(b, b))
            if q.denominator != 1 or int(q) not in (0, 1, 2, 3):
                raise LieFoliateError(f"unexpected angle between simple roots {i+1}, {j+1}")
            lines = int(q)
            if lines == 0:
                continue
            arrow = None
            if lines >= 2:
                la, lb = inner(a, a), inner(b, b)
                if la == lb:
                    raise LieFoliateError("multiple edge between roots of equal length")
                arrow = (i + 1, j + 1) if la > lb else (j + 1, i + 1)
            edges.append(DynkinEdge(i + 1, j + 1, lines, arrow))
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
    """All vertex permutations preserving circles, line counts, and arrows.

    Permutations are returned as tuples p with p[k] the image of vertex k+1,
    sorted with the identity first.  The result is closed under composition
    and inverses.
    """
    n = dd.rank
    verts = [v.index for v in dd.vertices]
    flags = {v.index: v.double_circle for v in dd.vertices}

    def signature(v: int):
        marks = []
        for w in dd.neighbors(v):
            e = dd.edge_between(v, w)
            role = "none"
            if e.arrow is not None:
                role = "out" if e.arrow[0] == v else "in"
            marks.append((e.lines, role))
        return (flags[v], tuple(sorted(marks)))

    sigs = {v: signature(v) for v in verts}
    candidates = {v: [w for w in verts if sigs[w] == sigs[v]] for v in verts}

    results: list[tuple[int, ...]] = []

    def extend(pos: int, mapping: dict[int, int], used: set[int]) -> None:
        if pos == n:
            results.append(tuple(mapping[v] for v in verts))
            return
        v = verts[pos]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u, iu in mapping.items():
                e = dd.edge_between(u, v)
                f = dd.edge_between(iu, w)
                if (e is None) != (f is None):
                    ok = False
                elif e is not None:
                    if e.lines != f.lines:
                        ok = False
                    elif (e.arrow is None) != (f.arrow is None):
                        ok = False
                    elif e.arrow is not None:
                        mapped = (w if e.arrow[0] == v else mapping[e.arrow[0]],
                                  w if e.arrow[1] == v else mapping[e.arrow[1]])
                        if mapped != f.arrow:
                            ok = False
                if not ok:
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                extend(pos + 1, mapping, used)
                used.discard(w)
                del mapping[v]

    extend(0, {}, set())
    return sorted(results)


def apply_permutation(perm: tuple[int, ...], subset) -> tuple[int, ...]:
    """Image of a set of 1-based vertex indices under a permutation tuple."""
    return tuple(sorted(perm[i - 1] for i in subset))
