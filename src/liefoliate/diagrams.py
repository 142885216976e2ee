"""What only some callers do with a Dynkin diagram: its dict and Graphviz
forms, and the search for its automorphisms.

``rootsys dynkin`` prints the two forms, ``foliations`` groups the subsets
Φ by the automorphisms, and library users read diagrams back, or build them
by hand, with ``DynkinDiagram.from_dict``; the structure commands do none of
these.  So the methods of ``roots.DynkinDiagram`` that give the two forms,
and ``roots.diagram_automorphisms``, load this module on first use, as
``Root.__str__`` loads ``rootsystem``.  The diagram keeps no automorphism:
each space's foliation store keeps the one search its walk reads.
``DynkinDiagram.from_dict`` accepts only edges that give a Cartan matrix:
vertices 1..n, edges of 1 to 3 lines between two of them, and an arrow on
each multiple edge and on no other.
"""

from __future__ import annotations

from collections import Counter

from .errors import LieFoliateError
from .roots import DynkinDiagram, DynkinEdge, DynkinVertex


def to_dict(dd: DynkinDiagram) -> dict:
    """``DynkinDiagram.to_dict``."""
    return {
        "vertices": [
            {"index": v.index, "double_circle": v.double_circle} for v in dd.vertices
        ],
        "edges": [
            {
                "i": e.i,
                "j": e.j,
                "lines": e.lines,
                "arrow": list(e.arrow) if e.arrow else None,
            }
            for e in dd.edges
        ],
        "notes": list(dd.notes),
    }


def from_dict(cls, data: dict) -> DynkinDiagram:
    """``DynkinDiagram.from_dict``: rebuild a diagram of ``to_dict``, checking that it is one.

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


def to_dot(dd: DynkinDiagram, name: str) -> str:
    """``DynkinDiagram.to_dot``: Graphviz rendering; double circles become peripheries=2."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle, fixedsize=true, width=0.3];']
    for note in dd.notes:
        lines.append(f"  // {note}")
    for v in dd.vertices:
        extra = ", peripheries=2" if v.double_circle else ""
        lines.append(f'  a{v.index} [label="{v.index}"{extra}];')
    for e in dd.edges:
        if e.arrow is None:
            lines.append(f'  a{e.i} -> a{e.j} [label="{e.lines}", dir=none];')
        else:
            tail, head = e.arrow
            lines.append(f'  a{tail} -> a{head} [label="{e.lines}", dir=forward];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def automorphisms(dd: DynkinDiagram) -> list[tuple[int, ...]]:
    """What ``roots.diagram_automorphisms`` returns, searched without
    recursion, on each call.

    Vertices are mapped in breadth-first order, each connected part from a
    vertex whose mark (double circle, Cartan entries to and from its
    neighbours) the fewest share.  A vertex may only go to an unused
    neighbour of its parent's image with its mark, checked against its
    mapped neighbours alone: each edge is checked from its later end, so
    the edges map onto the edges.  Near-linear in the rank on a Dynkin
    diagram."""
    a, adj = dd._entries, dd._adjacency
    marks = {i: (v.double_circle, tuple(sorted(a[i, u] for u in adj[i])), tuple(sorted(a[u, i] for u in adj[i])))
             for i, v in enumerate(dd.vertices, start=1)}
    shared, order, parent = Counter(marks.values()), [], {}
    for start in sorted(marks, key=lambda v: shared[marks[v]]):
        if start not in parent:
            parent[start], queue = None, [start]
            for v in queue:  # grows while it is read
                for u in sorted(adj[v] - parent.keys()):
                    parent[u] = v
                    queue.append(u)
            order += queue
    image, used, results = {}, set(), []

    def candidates(v: int):
        """The images of v that fit the vertices mapped before it, made lazily."""
        earlier = [u for u in adj[v] if u in image]
        return (w for w in (marks if parent[v] is None else adj[image[parent[v]]])
                if w not in used and marks[w] == marks[v]
                and all(a.get((w, image[u])) == a[v, u] and a.get((image[u], w)) == a[u, v] for u in earlier))

    choices = [candidates(order[0])] if order else []
    while choices:
        v = order[len(choices) - 1]
        used.discard(image.pop(v, None))
        w = next(choices[-1], None)
        if w is None:
            choices.pop()
            continue
        image[v] = w
        used.add(w)
        if len(choices) < len(order):
            choices.append(candidates(order[len(choices)]))
        else:
            results.append(tuple(image[i] for i in range(1, len(order) + 1)))
    return sorted(results) if order else [()]
