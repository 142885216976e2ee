"""Seeded request lists for the three workloads.

A run is a sequence of passes.  Pass ``p`` of a workload is a fixed mix of
request kinds, spaces and rank bins.  What sets a request's cost is fixed by
``p`` and the request's position: the rank inside its bin, the block sizes
of the subset Phi, the foliation class.  The seed draws everything else (the
order of those blocks, the spelling of the space name, the catalog entry
among those of one diagram, the matrices, and the order of the requests).  So
every seed measures the same mix at nearly the same cost, and the same seed
always gives the same requests.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import oracles
from .oracles import Space

WORKLOADS = ("cli_cold", "structure_warm", "matrix_model")


@dataclass(frozen=True)
class Entry:
    """One catalog entry as the benchmark knows it, independently of the package.

    ``mults`` maps the squared root length to its multiplicity and may use the
    secondary parameter ``n``; ``names`` gives the accepted spellings for rank r.
    """

    key: str
    family: str
    min_rank: int
    max_rank: int | None
    n_range: tuple[int, int] | None
    names: Callable[[int, int], list[str]]  # (r, n) -> spellings
    mults: Callable[[int], dict[int, int]]  # n -> {squared length: multiplicity}

    def has_rank(self, rank: int) -> bool:
        return self.min_rank <= rank and (self.max_rank is None or rank <= self.max_rank)


def _sl(letter, compact):
    def names(r, n):
        m = r + 1
        out = [f"sl({m},{letter})", f"SL_{m}({letter})/{compact}_{m}"]
        return out + ([f"SL{m}"] if letter == "R" else [])
    return names


def _fixed(*spellings):
    return lambda r, n: list(spellings)


ENTRIES: tuple[Entry, ...] = (
    Entry("sl_R", "A", 1, None, None, _sl("R", "SO"), lambda n: {2: 1}),
    Entry("sl_C", "A", 1, None, None, _sl("C", "SU"), lambda n: {2: 2}),
    Entry("sl_H", "A", 1, None, None, _sl("H", "Sp"), lambda n: {2: 4}),
    Entry("e6_m26", "A", 2, 2, None, _fixed("e6(-26)", "E_6^{-26}/F_4"), lambda n: {2: 8}),
    Entry("so_hyp", "A", 1, 1, (2, 11), lambda r, n: [f"so({n + 1},1)", f"SOo({n + 1},1)"],
          lambda n: {2: n}),
    Entry("so_C_odd", "B", 2, None, None, lambda r, n: [f"so({2 * r + 1},C)"], lambda n: {2: 2, 1: 2}),
    Entry("so_pq", "B", 2, None, (1, 4), lambda r, n: [f"so({r + n},{r})", f"SOo({r + n},{r})"],
          lambda n: {2: 1, 1: n}),
    Entry("sp_R", "C", 2, None, None, lambda r, n: [f"sp({r},R)"], lambda n: {2: 1, 4: 1}),
    Entry("sp_C", "C", 2, None, None, lambda r, n: [f"sp({r},C)"], lambda n: {2: 2, 4: 2}),
    Entry("sp_rr", "C", 2, None, None, lambda r, n: [f"sp({r},{r})"], lambda n: {2: 4, 4: 3}),
    Entry("su_rr", "C", 2, None, None, lambda r, n: [f"su({r},{r})"], lambda n: {2: 2, 4: 1}),
    Entry("so_H_even", "C", 2, None, None, lambda r, n: [f"so({2 * r},H)"], lambda n: {2: 4, 4: 1}),
    Entry("e7_m25", "C", 3, 3, None, _fixed("e7(-25)"), lambda n: {2: 8, 4: 1}),
    Entry("so_rr", "D", 3, None, None, lambda r, n: [f"so({r},{r})"], lambda n: {2: 1}),
    Entry("so_C_even", "D", 3, None, None, lambda r, n: [f"so({2 * r},C)"], lambda n: {2: 2}),
    Entry("e6_6", "E6", 6, 6, None, _fixed("e6(6)"), lambda n: {2: 1}),
    Entry("e6_C", "E6", 6, 6, None, _fixed("e6(C)"), lambda n: {2: 2}),
    Entry("e7_7", "E7", 7, 7, None, _fixed("e7(7)"), lambda n: {2: 1}),
    Entry("e7_C", "E7", 7, 7, None, _fixed("e7(C)"), lambda n: {2: 2}),
    Entry("e8_8", "E8", 8, 8, None, _fixed("e8(8)"), lambda n: {2: 1}),
    Entry("e8_C", "E8", 8, 8, None, _fixed("e8(C)"), lambda n: {2: 2}),
    Entry("f4_4", "F4", 4, 4, None, _fixed("f4(4)"), lambda n: {2: 1, 1: 1}),
    Entry("f4_C", "F4", 4, 4, None, _fixed("f4(C)"), lambda n: {2: 2, 1: 2}),
    Entry("e6_2", "F4", 4, 4, None, _fixed("e6(2)"), lambda n: {2: 1, 1: 2}),
    Entry("e7_m5", "F4", 4, 4, None, _fixed("e7(-5)"), lambda n: {2: 1, 1: 4}),
    Entry("e8_m24", "F4", 4, 4, None, _fixed("e8(-24)"), lambda n: {2: 1, 1: 8}),
    Entry("g2_2", "G2", 2, 2, None, _fixed("g2(2)"), lambda n: {2: 1, 6: 1}),
    Entry("g2_C", "G2", 2, 2, None, _fixed("g2(C)"), lambda n: {2: 2, 6: 2}),
    Entry("su_pq", "BC", 1, None, (1, 4), lambda r, n: [f"su({r + n},{r})"],
          lambda n: {2: 2, 1: 2 * n, 4: 1}),
    Entry("so_H_odd", "BC", 1, None, None, lambda r, n: [f"so({2 * r + 1},H)"],
          lambda n: {2: 4, 1: 4, 4: 1}),
    Entry("sp_pq", "BC", 1, None, (1, 3), lambda r, n: [f"sp({r + n},{r})"],
          lambda n: {2: 4, 1: 4 * n, 4: 3}),
    Entry("e6_m14", "BC", 2, 2, None, _fixed("e6(-14)"), lambda n: {2: 6, 1: 8, 4: 1}),
    Entry("f4_m20", "BC", 1, 1, None, _fixed("f4(-20)"), lambda n: {1: 8, 4: 7}),
)
ENTRY = {e.key: e for e in ENTRIES}
FAMILY_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "BC": 1, **oracles.FIXED_RANK}


@dataclass(frozen=True)
class Request:
    """One request: ``args`` is what the program receives, ``expect`` what the
    oracle needs besides it."""

    kind: str
    args: tuple
    expect: tuple = ()


def fingerprint(requests) -> str:
    """A comparable text form of a request list (arrays become lists)."""
    def plain(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        if isinstance(obj, Space):
            return [obj.key, obj.rank, obj.mults]
        return repr(obj)
    return json.dumps([[r.kind, r.args, r.expect] for r in requests], default=plain)


def _clip(entry: Entry, lo: int, hi: int) -> tuple[int, int]:
    top = entry.max_rank if entry.max_rank is not None else hi
    lo = min(max(lo, entry.min_rank), top)
    return lo, min(max(hi, lo), top)


def draw_space(entry: Entry, rank_bin: tuple[int, int], rng: random.Random,
               rank_rng: random.Random | None = None) -> tuple[str, Space]:
    """A spelling of the entry at a rank drawn from the bin (by ``rank_rng``
    when given), with its oracle data."""
    rank = (rank_rng or rng).randint(*_clip(entry, *rank_bin))
    n = rng.randint(*entry.n_range) if entry.n_range else 0
    mults = tuple(sorted(entry.mults(n).items()))
    return rng.choice(entry.names(rank, n)), Space(entry.key, entry.family, rank, mults)


def draw_phi(rank: int, rng: random.Random) -> tuple[int, ...]:
    """Any subset of the simple roots, each index kept with probability 1/2."""
    return tuple(i for i in range(1, rank + 1) if rng.random() < 0.5)


def random_sl(n: int, gen: np.random.Generator) -> np.ndarray:
    """Gaussian matrix, first column flipped to make det > 0, scaled to det 1."""
    x = gen.standard_normal((n, n))
    det = float(np.linalg.det(x))
    if det < 0:
        x[:, 0] = -x[:, 0]
        det = -det
    return x / det ** (1.0 / n)


def random_traceless(n: int, gen: np.random.Generator) -> np.ndarray:
    x = gen.standard_normal((n, n))
    return x - np.trace(x) / n * np.eye(n)


def _rngs(workload: str, seed: int, pass_index: int) -> tuple[random.Random, np.random.Generator]:
    tag = WORKLOADS.index(workload)
    return (random.Random(f"{seed}:{tag}:{pass_index}"),
            np.random.default_rng([seed, tag, pass_index]))


def _blocks(r: int, phi) -> list[list[int]]:
    """0-based runs of {0..r} joined by the chosen simple roots."""
    blocks = [[0]]
    for pos in range(1, r + 1):
        if pos not in phi:
            blocks.append([])
        blocks[-1].append(pos)
    return blocks


def _shape_rng(pass_index: int, position: int) -> random.Random:
    """Draws that set a request's cost: the same for every seed."""
    return random.Random(f"shape:{pass_index}:{position}")


def shaped_phi(r: int, pass_index: int, position: int, rng: random.Random) -> tuple[int, ...]:
    """Phi whose block sizes are fixed by pass and position, and whose blocks
    the seed puts in order.  The sizes of the components of Sigma_Phi, and of
    the bases of p_Phi, p_Phi^s and a_Phi, are then the same for every seed."""
    sizes = [len(b) for b in _blocks(r, set(draw_phi(r, _shape_rng(pass_index, position))))]
    rng.shuffle(sizes)
    phi: list[int] = []
    start = 0
    for size in sizes:
        phi.extend(range(start + 1, start + size))
        start += size
    return tuple(phi)


# --- cli_cold ---------------------------------------------------------------

# One pass: 100 valid requests in a fixed mix plus 5 malformed ones (4.8%).
# Space-based requests cycle through every catalog entry and through these
# rank bins; the 2-5 bins set the median and the 12-16 bins set p90.
CLI_RANK_BINS = ((2, 3), (4, 5), (2, 3), (6, 8), (3, 4), (9, 11), (2, 3), (12, 13), (4, 5), (14, 16))
CLI_MIX = (("parabolic", 26), ("horospherical", 26), ("foliations", 16),
           ("rootsys", 16), ("catalog", 6), ("iwasawa", 10))
CLI_FOLIATION_MAX_RANK = 12
CLI_BLOCK = 20  # valid requests per malformed one
ROOTSYS_FAMILIES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")
MALFORMED_KINDS = ("unknown_name", "rank_out_of_range", "det_not_one", "nan_matrix")


def _malformed(kind: str, rng: random.Random, gen: np.random.Generator) -> Request:
    if kind == "unknown_name":
        cmd = rng.choice((["parabolic"], ["horospherical"], ["foliations", "enumerate"]))
        name = rng.choice(("sl(5,Q)", "so(2,Q)", "e9(8)", "spin(7,1)", "su(3,3,3)", "g2(7)"))
        argv = cmd + ["--space", name, "--format", "json"]
    elif kind == "rank_out_of_range":
        argv = rng.choice((
            ["rootsys", "show", "--family", "E8", "--rank", "7", "--format", "json"],
            ["rootsys", "dynkin", "--family", "D", "--rank", "2", "--format", "json"],
            ["parabolic", "--space", "sl(1,R)", "--format", "json"],
            ["horospherical", "--space", "so(2,2)", "--format", "json"],
            ["parabolic", "--space", "SL5", "--phi", "7", "--format", "json"],
            ["foliations", "enumerate", "--space", "sp(1,R)", "--format", "json"],
        ))
    elif kind == "det_not_one":
        n = rng.randint(2, 4)
        g = random_sl(n, gen) * 2.0 ** (1.0 / n)
        argv = ["slmodel", "iwasawa", "--rank", str(n - 1), "--matrix", json.dumps(g.tolist())]
    else:
        argv = ["slmodel", "iwasawa", "--rank", "1", "--matrix", "[[NaN,0],[0,1]]"]
    return Request("malformed", tuple(argv), (kind,))


def cli_requests(seed: int, pass_index: int) -> list[Request]:
    rng, gen = _rngs("cli_cold", seed, pass_index)
    valid: list[Request] = []
    spaced = 0
    for kind, count in CLI_MIX:
        for i in range(count):
            if kind in ("parabolic", "horospherical", "foliations"):
                entry = ENTRIES[spaced % len(ENTRIES)]
                lo, hi = CLI_RANK_BINS[spaced % len(CLI_RANK_BINS)]
                spaced += 1
                if kind == "foliations":
                    lo, hi = min(lo, CLI_FOLIATION_MAX_RANK), min(hi, CLI_FOLIATION_MAX_RANK)
                name, space = draw_space(entry, (lo, hi), rng, _shape_rng(pass_index, len(valid)))
                if kind == "foliations":
                    argv, expect = ["foliations", "enumerate", "--space", name], (space,)
                else:
                    phi = shaped_phi(space.rank, pass_index, len(valid), rng)
                    argv, expect = [kind, "--space", name, "--phi", ",".join(map(str, phi))], (space, phi)
                valid.append(Request(kind, tuple(argv + ["--format", "json"]), expect))
            elif kind == "rootsys":
                family = ROOTSYS_FAMILIES[i % len(ROOTSYS_FAMILIES)]
                lo, hi = CLI_RANK_BINS[(3 * i + 1) % len(CLI_RANK_BINS)]
                if family in oracles.FIXED_RANK:
                    rank = oracles.FIXED_RANK[family]
                else:
                    rank = _shape_rng(pass_index, len(valid)).randint(
                        max(lo, FAMILY_MIN_RANK[family]), max(hi, FAMILY_MIN_RANK[family]))
                action = ("show", "dynkin")[i % 2]
                argv = ["rootsys", action, "--family", family, "--rank", str(rank), "--format", "json"]
                valid.append(Request(f"rootsys_{action}", tuple(argv), (family, rank)))
            elif kind == "catalog":
                valid.append(Request("catalog", ("catalog", "list", "--format", "json")))
            else:
                n = 2 + i % 3
                g = random_sl(n, gen)
                argv = ["slmodel", "iwasawa", "--rank", str(n - 1), "--matrix", json.dumps(g.tolist())]
                valid.append(Request("iwasawa", tuple(argv), (g,)))
    rng.shuffle(valid)
    out: list[Request] = []
    for block in range(0, len(valid), CLI_BLOCK):
        chunk = valid[block:block + CLI_BLOCK]
        kind = MALFORMED_KINDS[(pass_index * 5 + block // CLI_BLOCK) % len(MALFORMED_KINDS)]
        chunk.insert(rng.randint(0, len(chunk)), _malformed(kind, rng, gen))
        out.extend(chunk)
    return out


# --- structure_warm ---------------------------------------------------------

# Ranks drawn for parabolic, horospherical and dimension requests, per family.
STRUCTURE_RANKS = {"A": (2, 4, 7, 11, 15), "B": (3, 6, 9), "C": (2, 5, 9, 12),
                   "D": (4, 9, 12), "BC": (1, 2, 4, 10)}
# Enumeration targets as (family, rank); the seed picks which entry of that
# family and rank, which changes the records but not the diagram.  They are
# the 12% slowest requests: four heavy ones (0.1-0.6 s), then nine of 15-50 ms,
# in the middle of which p90 falls.
ENUMERATION_POOL = (("A", 13), ("C", 12), ("D", 12), ("E8", 8),
                    ("B", 8), ("C", 8), ("A", 9), ("BC", 8), ("B", 7), ("D", 8), ("E7", 7),
                    ("A", 8), ("C", 7))
STRUCTURE_MIX = (("parabolic", 40), ("horospherical", 40), ("dimension", 16))


def structure_spaces() -> list[str]:
    """One space for every (family, rank) the structure_warm draw can touch;
    set-up computes their dimensions, which builds their root systems."""
    pairs = {(f, r) for f, ranks in STRUCTURE_RANKS.items() for r in ranks}
    pairs |= set(ENUMERATION_POOL) | set(oracles.FIXED_RANK.items())
    pairs |= {("A", 1), ("A", 2), ("C", 3), ("BC", 2)}  # fixed-rank A, C and BC entries
    names = []
    for family, rank in sorted(pairs):
        entry = next(e for e in ENTRIES if e.family == family and e.has_rank(rank))
        names.append(entry.names(rank, entry.n_range[0] if entry.n_range else 0)[0])
    return names


def _structure_rank(entry: Entry, index: int) -> int:
    if entry.max_rank == entry.min_rank:
        return entry.min_rank
    ranks = [r for r in STRUCTURE_RANKS[entry.family] if r >= entry.min_rank]
    return ranks[index % len(ranks)]


def structure_requests(seed: int, pass_index: int) -> list[Request]:
    rng, _ = _rngs("structure_warm", seed, pass_index)
    out: list[Request] = []
    for family, rank in ENUMERATION_POOL:
        entry = rng.choice([e for e in ENTRIES if e.family == family and e.has_rank(rank)])
        name, space = draw_space(entry, (rank, rank), rng)
        out.append(Request("foliations", (name, ()), (space,)))
    index = 0
    for kind, count in STRUCTURE_MIX:
        for _ in range(count):
            entry = ENTRIES[index % len(ENTRIES)]
            rank = _structure_rank(entry, index + pass_index)
            index += 1
            name, space = draw_space(entry, (rank, rank), rng)
            phi = shaped_phi(space.rank, pass_index, len(out), rng) if kind != "dimension" else ()
            out.append(Request(kind, (name, phi), (space,)))
    rng.shuffle(out)
    return out


# --- matrix_model -----------------------------------------------------------

MATRIX_MIX = (("iwasawa", 30), ("killing", 25), ("halfplane", 15), ("lie_triple", 15), ("s_phi_v", 15))
LIE_TRIPLE_KINDS = ("p_phi", "p_phi_s", "a_phi", "non_example")
S_PHI_V_SIZES = (3, 4, 5, 6, 7, 8)


def _sym(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n))
    m[i, j] = m[j, i] = 1.0
    return m


def _h(n: int, i: int) -> np.ndarray:
    return np.diag([1.0 if k == i else -1.0 if k == i + 1 else 0.0 for k in range(n)])


def triple_basis(kind: str, r: int, phi, gen: np.random.Generator) -> list[np.ndarray]:
    """Symmetric bases in sl(r+1): p_Phi, p_Phi^s and a_Phi are Lie triple
    systems; the non-example spans random symmetric matrices."""
    n = r + 1
    same = [(b[x], b[y]) for b in _blocks(r, phi) for x in range(len(b)) for y in range(x + 1, len(b))]
    if kind == "p_phi":
        return [_h(n, i) for i in range(r)] + [_sym(n, i, j) for i, j in same]
    if kind == "p_phi_s":
        return [_h(n, i - 1) for i in sorted(phi)] + [_sym(n, i, j) for i, j in same]
    if kind == "a_phi":
        blocks = _blocks(r, phi)
        out = []
        for left, right in zip(blocks, blocks[1:]):
            d = np.zeros(n)
            d[left] = len(right)
            d[right] = -len(left)
            out.append(np.diag(d))
        return out
    out = []
    for _ in range(2):
        x = gen.standard_normal((n, n))
        x = x + x.T
        out.append(x - np.trace(x) / n * np.eye(n))
    return out


def matrix_requests(seed: int, pass_index: int, classes: dict[int, list[tuple]]) -> list[Request]:
    """``classes`` maps n to the (Phi, dim V) foliation classes of SL_n."""
    rng, gen = _rngs("matrix_model", seed, pass_index)
    out: list[Request] = []
    for kind, count in MATRIX_MIX:
        for i in range(count):
            if kind == "iwasawa":
                out.append(Request(kind, (random_sl(2 + i % 7, gen),)))
            elif kind == "killing":
                n = 2 + i % 7
                out.append(Request(kind, (random_traceless(n, gen), random_traceless(n, gen))))
            elif kind == "halfplane":
                base = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0))
                out.append(Request(kind, ("KAN"[i % 3], (16, 32, 64)[i % 3], base)))
            elif kind == "lie_triple":
                which = LIE_TRIPLE_KINDS[i % len(LIE_TRIPLE_KINDS)]
                r = 1 + i % 6
                if which == "non_example":
                    r = max(r, 2)  # every subspace of p in sl(2) is a Lie triple system
                phi = shaped_phi(r, pass_index, i, rng)
                if i == 0 and pass_index % 6 == 0:
                    r, phi = 6, tuple(range(1, 7))  # all of p in sl(7): the run's memory peak
                if which == "p_phi_s" and not phi:
                    phi = (rng.randint(1, r),)
                if which == "a_phi" and len(phi) == r:
                    phi = phi[:-1]
                basis = triple_basis(which, r, set(phi), gen)
                out.append(Request(kind, (basis,), (which != "non_example",)))
            else:
                n = S_PHI_V_SIZES[i % len(S_PHI_V_SIZES)]
                phi, dim_v = _shape_rng(pass_index, i).choice(classes[n])
                out.append(Request(kind, (n, phi, dim_v), (dim_v + n * (n - 1) // 2,)))
    rng.shuffle(out)
    return out
