"""Independent answers for every request the benchmark sends.

Nothing here calls liefoliate.  The root-system side rests on closed forms:
each family's Dynkin diagram is written out by hand, a connected subset of
simple roots is classified by its shape, and the positive roots of that
subsystem are counted per length class (A_k: k(k+1)/2, B_k: k^2, C_k: k^2,
BC_k: k^2 + k, D_k: k(k-1), E6/E7/E8: 36/63/120, F4 and G2 tabulated).
Multiplicities are attached per length class from the benchmark's own table
of catalog entries (``inputs.ENTRIES``).  Foliation record counts come from
the benchmark's own independent-set enumeration modulo the diagram
symmetries written out below.

Every ``check_*`` function returns a list of mismatch descriptions; an empty
list means the answer is right.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Squared lengths of the root classes, in each family's own normalization.
# A, D, E: one class of length^2 2.  B: long 2, short 1.  C: short 2, long 4.
# BC: short 1, middle 2, double 4.  F4: long 2, short 1.  G2: short 2, long 6.

TAU_ROUND_TRIP = 1e-10
TAU_EXACT = 1e-12

SIMPLY_LACED = {"A", "D", "E6", "E7", "E8"}
FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}


@dataclass(frozen=True)
class Space:
    """What the oracles need to know about one symmetric space."""

    key: str
    family: str
    rank: int
    mults: tuple[tuple[int, int], ...]  # (squared length, multiplicity), sorted

    def mult(self, length2: int) -> int:
        return dict(self.mults)[length2]


def edges(family: str, r: int) -> dict[tuple[int, int], tuple[int, tuple[int, int] | None]]:
    """Dynkin edges (i, j) with i < j -> (lines, arrow from long to short)."""
    out: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
    if family in ("A", "B", "C", "BC"):
        for i in range(1, r):
            out[(i, i + 1)] = (1, None)
        if family != "A" and r >= 2:
            arrow = (r, r - 1) if family == "C" else (r - 1, r)
            out[(r - 1, r)] = (2, arrow)
    elif family == "D":
        for i in range(1, r - 1):
            out[(i, i + 1)] = (1, None)
        out[(r - 2, r)] = (1, None)
    elif family in ("E6", "E7", "E8"):
        for i, j in ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            if j <= r:
                out[(i, j)] = (1, None)
    elif family == "F4":
        out = {(1, 2): (1, None), (2, 3): (2, (2, 3)), (3, 4): (1, None)}
    elif family == "G2":
        out = {(1, 2): (3, (2, 1))}
    else:
        raise ValueError(f"unknown family {family}")
    return out


@lru_cache(maxsize=None)
def neighbors(family: str, r: int) -> dict[int, frozenset[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(1, r + 1)}
    for i, j in edges(family, r):
        adj[i].add(j)
        adj[j].add(i)
    return {i: frozenset(s) for i, s in adj.items()}


def components(family: str, r: int, phi) -> list[tuple[int, ...]]:
    """Connected components of the subdiagram on phi, sorted."""
    adj = neighbors(family, r)
    pending, out = set(phi), []
    while pending:
        comp, frontier = set(), [min(pending)]
        while frontier:
            v = frontier.pop()
            if v in comp:
                continue
            comp.add(v)
            frontier.extend(w for w in adj[v] if w in pending)
        pending -= comp
        out.append(tuple(sorted(comp)))
    return sorted(out)


def _simply_laced_count(adj, comp) -> int:
    k = len(comp)
    inside = set(comp)
    degree = {v: len(adj[v] & inside) for v in comp}
    branch = [v for v in comp if degree[v] == 3]
    if not branch:
        return k * (k + 1) // 2
    center = branch[0]
    arms = []
    for start in adj[center] & inside:
        length, prev, cur = 0, center, start
        while cur is not None:
            length += 1
            nxt = [w for w in adj[cur] & inside if w != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return k * (k - 1)
    return {(1, 2, 2): 36, (1, 2, 3): 63, (1, 2, 4): 120}[tuple(arms)]


_F4_COUNTS = {
    (1,): {2: 1}, (2,): {2: 1}, (3,): {1: 1}, (4,): {1: 1},
    (1, 2): {2: 3}, (3, 4): {1: 3}, (2, 3): {2: 2, 1: 2},
    (1, 2, 3): {2: 6, 1: 3}, (2, 3, 4): {1: 6, 2: 3},
    (1, 2, 3, 4): {2: 12, 1: 12},
}
_G2_COUNTS = {(1,): {2: 1}, (2,): {6: 1}, (1, 2): {2: 3, 6: 3}}


def component_counts(family: str, r: int, comp: tuple[int, ...]) -> Counter:
    """Positive roots of the subsystem spanned by one connected component,
    counted per squared length."""
    k = len(comp)
    if family in SIMPLY_LACED:
        out = {2: _simply_laced_count(neighbors(family, r), comp)}
    elif family == "F4":
        out = _F4_COUNTS[comp]
    elif family == "G2":
        out = _G2_COUNTS[comp]
    elif r not in comp:
        out = {2: k * (k + 1) // 2}  # a type-A chain of the ordinary roots
    elif family == "B":
        out = {2: k * (k - 1), 1: k}
    elif family == "C":
        out = {2: k * (k - 1), 4: k}
    else:  # BC
        out = {2: k * (k - 1), 1: k, 4: k}
    return Counter({length: n for length, n in out.items() if n})


def subsystem_counts(family: str, r: int, phi) -> Counter:
    total: Counter = Counter()
    for comp in components(family, r, phi):
        total.update(component_counts(family, r, comp))
    return total


def weight(space: Space, counts: Counter) -> int:
    """Sum of multiplicities over the counted roots."""
    return sum(n * space.mult(length) for length, n in counts.items())


def positive_counts(family: str, r: int) -> Counter:
    return subsystem_counts(family, r, range(1, r + 1))


def dimension(space: Space) -> int:
    """dim M = rank + sum of multiplicities over the positive roots."""
    return space.rank + weight(space, positive_counts(space.family, space.rank))


def automorphisms(family: str, r: int) -> list[tuple[int, ...]]:
    """Symmetries of the decorated Dynkin diagram; p[i-1] is the image of i."""
    ident = tuple(range(1, r + 1))
    out = [ident]
    if family == "A" and r >= 2:
        out.append(tuple(reversed(ident)))
    elif family == "D" and r == 4:
        for images in ((1, 4, 3), (3, 1, 4), (3, 4, 1), (4, 1, 3), (4, 3, 1)):
            out.append((images[0], 2, images[1], images[2]))
    elif family == "D":
        out.append(ident[: r - 2] + (r, r - 1))
    elif family == "E6":
        out.append((6, 2, 5, 4, 3, 1))
    return out


def independent_sets(family: str, r: int) -> list[tuple[int, ...]]:
    adj = neighbors(family, r)
    out: list[tuple[int, ...]] = []

    def grow(chosen: tuple[int, ...], start: int) -> None:
        out.append(chosen)
        for v in range(start, r + 1):
            if not any(v in adj[c] for c in chosen):
                grow(chosen + (v,), v + 1)

    grow((), 1)
    return out


@lru_cache(maxsize=64)
def phi_orbits(family: str, r: int) -> dict[tuple[int, ...], int]:
    """Orbit representative (lexicographically least member) -> orbit size."""
    auts = automorphisms(family, r)
    orbits: dict[tuple[int, ...], set] = {}
    for phi in independent_sets(family, r):
        images = {tuple(sorted(p[i - 1] for i in phi)) for p in auts}
        orbits.setdefault(min(images), set()).update(images)
    return {rep: len(members) for rep, members in orbits.items()}


def foliation_record_count(family: str, r: int) -> int:
    """(orbit, dim V) pairs with 0 <= dim V <= r - |Phi|, minus the single leaf."""
    return sum(r - len(rep) + 1 for rep in phi_orbits(family, r)) - 1


# --- checks on structure answers -------------------------------------------


def _expect(errors: list[str], label: str, got, want) -> None:
    if got != want:
        errors.append(f"{label}: got {got!r}, want {want!r}")


def check_parabolic(space: Space, phi: tuple[int, ...], out: dict) -> list[str]:
    """ParabolicData.to_dict(): Sigma_Phi sizes and the k0-free dimensions."""
    errors: list[str] = []
    r, fam = space.rank, space.family
    sub = subsystem_counts(fam, r, phi)
    w_phi, w_all = weight(space, sub), weight(space, positive_counts(fam, r))
    _expect(errors, "phi", list(out["phi"]), list(phi))
    _expect(errors, "|Sigma_Phi+|", len(out["sigma_phi_pos"]), sum(sub.values()))
    _expect(errors, "|Sigma_Phi|", len(out["sigma_phi"]), 2 * sum(sub.values()))
    _expect(errors, "dim a_Phi", out["dim_a_phi"], r - len(phi))
    _expect(errors, "dim n_Phi", out["dim_n_phi"], w_all - w_phi)
    _expect(errors, "dim p_Phi", out["dim_p_phi"], r + w_phi)
    _expect(errors, "dim p_Phi^s", out["dim_p_phi_s"], len(phi) + w_phi)
    if out["dim_l_phi"] is not None:
        _expect(errors, "dim q - dim l", out["dim_q_phi"] - out["dim_l_phi"], w_all - w_phi)
        _expect(errors, "dim l - dim m", out["dim_l_phi"] - out["dim_m_phi"], r - len(phi))
    return errors


def check_horospherical(space: Space, phi: tuple[int, ...], out: dict) -> list[str]:
    """HorosphericalData.to_dict(): F_Phi^s + (r - r_Phi) + N_Phi = dim M."""
    errors: list[str] = []
    r, fam = space.rank, space.family
    dim_m = dimension(space)
    w_phi = weight(space, subsystem_counts(fam, r, phi))
    comps = components(fam, r, phi)
    _expect(errors, "phi", list(out["phi"]), list(phi))
    _expect(errors, "dim M", out["dim_M"], dim_m)
    _expect(errors, "dim F_Phi^s", out["dim_Fs"], len(phi) + w_phi)
    _expect(errors, "dim E", out["dim_euclidean"], r - len(phi))
    _expect(errors, "dim N_Phi", out["dim_N"], dim_m - r - w_phi)
    _expect(errors, "F + E + N", out["dim_Fs"] + out["dim_euclidean"] + out["dim_N"], dim_m)
    got = [(tuple(f["component_indices"]), f["rank"], f["dim"]) for f in out["factors"]]
    want = [(c, len(c), len(c) + weight(space, component_counts(fam, r, c))) for c in comps]
    _expect(errors, "boundary factors", got, want)
    return errors


def check_dimension(space: Space, value: int) -> list[str]:
    errors: list[str] = []
    _expect(errors, "dim M", value, dimension(space))
    return errors


def check_foliations(space: Space, records: list[tuple]) -> list[str]:
    """Records as (phi, dim_v, codim, leaf_dim, dim_n_phi, orbit_size) tuples."""
    errors: list[str] = []
    r, fam = space.rank, space.family
    orbits = phi_orbits(fam, r)
    dim_m = dimension(space)
    w_all = weight(space, positive_counts(fam, r))
    _expect(errors, "record count", len(records), foliation_record_count(fam, r))
    _expect(errors, "distinct (Phi, dim V)", len({(rec[0], rec[1]) for rec in records}), len(records))
    for phi, dim_v, codim, leaf_dim, dim_n, orbit_size in records:
        if phi not in orbits:
            errors.append(f"Phi {phi} is not an orbit representative")
            continue
        _expect(errors, f"orbit size of {phi}", orbit_size, orbits[phi])
        _expect(errors, f"codim of {phi}/{dim_v}", codim, r - dim_v)
        _expect(errors, f"leaf dim of {phi}/{dim_v}", leaf_dim, dim_m - codim)
        _expect(errors, f"dim N of {phi}", dim_n, w_all - weight(space, subsystem_counts(fam, r, phi)))
        if len(errors) > 20:
            break
    return errors


def check_rootsys(family: str, r: int, out: dict) -> list[str]:
    """RootSystem.to_dict(): sizes and positive roots per length class."""
    errors: list[str] = []
    want = positive_counts(family, r)
    scale2 = out["coordinate_scale"] ** 2
    by_length = Counter(sum(c * c for c in root) // scale2 for root in out["positive"])
    _expect(errors, "rank", (out["family"], out["rank"], len(out["simple"])), (family, r, r))
    _expect(errors, "|Sigma+| by squared length", dict(by_length), dict(want))
    _expect(errors, "|Sigma|", len(out["roots"]), 2 * sum(want.values()))
    return errors


def check_dynkin(family: str, r: int, out: dict) -> list[str]:
    """DynkinDiagram.to_dict(): vertices, double circles, lines and arrows."""
    errors: list[str] = []
    _expect(errors, "vertices", [v["index"] for v in out["vertices"]], list(range(1, r + 1)))
    circled = [v["index"] for v in out["vertices"] if v["double_circle"]]
    _expect(errors, "double circles", circled, [r] if family == "BC" else [])
    got = {(e["i"], e["j"]): (e["lines"], tuple(e["arrow"]) if e["arrow"] else None) for e in out["edges"]}
    _expect(errors, "edges", got, edges(family, r))
    return errors


def check_catalog(keys: list[str], expected_keys) -> list[str]:
    errors: list[str] = []
    _expect(errors, "catalog keys", sorted(keys), sorted(expected_keys))
    return errors


# --- checks on matrix-model answers ----------------------------------------


def check_iwasawa(g: np.ndarray, k, a, n) -> list[str]:
    """g = k a n with k in SO(n), a positive diagonal of det 1, n unipotent."""
    errors: list[str] = []
    k, a, n = (np.asarray(m, dtype=float) for m in (k, a, n))
    size = g.shape[0]
    scale = max(1.0, float(np.abs(g).max()))
    if not np.all(np.isfinite(k)) or not np.all(np.isfinite(a)) or not np.all(np.isfinite(n)):
        return ["non-finite factor"]
    residual = float(np.abs(k @ a @ n - g).max())
    if residual > TAU_ROUND_TRIP * scale:
        errors.append(f"round trip residual {residual:.3g} > {TAU_ROUND_TRIP} * {scale:.3g}")
    if float(np.abs(k.T @ k - np.eye(size)).max()) > TAU_ROUND_TRIP:
        errors.append("k is not orthogonal")
    if abs(float(np.linalg.det(k)) - 1.0) > TAU_ROUND_TRIP:
        errors.append("det k != 1")
    diag = np.diag(a)
    if float(np.abs(a - np.diag(diag)).max()) != 0.0 or not np.all(diag > 0):
        errors.append("a is not a positive diagonal matrix")
    elif abs(float(np.prod(diag)) - 1.0) > 1e-9:
        errors.append("det a != 1")
    if float(np.abs(np.tril(n, -1)).max(initial=0.0)) != 0.0 or not np.all(np.diag(n) == 1.0):
        errors.append("n is not unit upper triangular")
    return errors


def check_killing(x: np.ndarray, y: np.ndarray, value: float) -> list[str]:
    """B(X, Y) = 2n tr(XY) on sl(n, R)."""
    size = x.shape[0]
    closed = 2.0 * size * float(np.trace(x @ y))
    scale = max(1.0, 2.0 * size * float(np.linalg.norm(x) * np.linalg.norm(y)))
    if not math.isfinite(value) or abs(value - closed) > TAU_ROUND_TRIP * scale:
        return [f"killing form {value!r} != 2n tr(XY) = {closed!r}"]
    return []


def check_lie_triple(expected: bool, holds: bool, residual: float) -> list[str]:
    """Lie triple systems have residual < 1e-12; the non-examples fail clearly."""
    if expected and not (holds and residual < TAU_EXACT):
        return [f"Lie triple system rejected (residual {residual!r})"]
    if not expected and (holds or not residual > 1e-6):
        return [f"non-example accepted (residual {residual!r})"]
    return []


def check_closure(expected_dim: int, dim: int, residual: float) -> list[str]:
    """s_{Phi,V} has dim V + n(n-1)/2 elements and is closed under the bracket."""
    errors: list[str] = []
    _expect(errors, "dim s_Phi,V", dim, expected_dim)
    if not residual < TAU_EXACT:
        errors.append(f"bracket closure residual {residual!r} >= {TAU_EXACT}")
    return errors


def halfplane_points(kind: str, samples: int, base: complex) -> list[complex]:
    """K rotates about i, A scales by e^{2t}, N translates by u."""
    if kind == "K":
        out = []
        for step in range(samples):
            c, s = math.cos(2.0 * math.pi * step / samples), math.sin(2.0 * math.pi * step / samples)
            out.append((c * base + s) / (-s * base + c))
        return out
    params = np.linspace(-3.0, 3.0, samples)
    if kind == "A":
        return [math.exp(2.0 * t) * base for t in params]
    return [base + u for u in params]


def check_halfplane(kind: str, samples: int, base: complex, points: list[complex]) -> list[str]:
    want = halfplane_points(kind, samples, base)
    if len(points) != len(want):
        return [f"{len(points)} points, want {len(want)}"]
    worst = max(abs(p - w) / max(1.0, abs(w)) for p, w in zip(points, want))
    if not worst <= TAU_EXACT:
        return [f"orbit point off by {worst:.3g}"]
    return []
