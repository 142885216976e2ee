"""Self-contained verification suite.

Each criterion returns (name, ok, detail) and runs in seconds; the CLI
``verify`` subcommand prints one line per criterion, writes the seconds each
took to stderr, and exits nonzero when any fails.  The same functions back
the acceptance tests.  Criteria on the matrix model import numpy and
``slmodel`` themselves, so that importing this module (as the CLI does) does
not load numpy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from time import perf_counter

from . import catalog, foliations, parabolic
from .roots import (
    DynkinDiagram,
    DynkinEdge,
    DynkinVertex,
    build_root_system,
    family_diagram,
    reflect,
)

Check = tuple[str, bool, str]


def _sample_spaces() -> list[catalog.SpaceDescriptor]:
    """One or two concrete instantiations of every catalog entry."""
    names = [
        "sl(2,R)", "sl(5,R)", "sl(3,C)", "sl(3,H)", "e6(-26)", "so(4,1)", "so(6,1)",
        "so(5,C)", "so(7,C)", "so(3,2)", "so(5,2)", "sp(2,R)", "sp(3,R)",
        "sp(2,C)", "sp(3,C)", "sp(2,2)", "sp(3,3)", "su(2,2)", "su(3,3)",
        "so(4,H)", "so(6,H)", "e7(-25)", "so(3,3)", "so(4,4)", "so(6,C)", "so(8,C)",
        "e6(6)", "e6(C)", "e7(7)", "e7(C)", "e8(8)", "e8(C)",
        "f4(4)", "f4(C)", "e6(2)", "e7(-5)", "e8(-24)", "g2(2)", "g2(C)",
        "su(2,1)", "su(4,2)", "so(3,H)", "so(5,H)", "sp(2,1)", "sp(4,2)",
        "e6(-14)", "f4(-20)",
    ]
    return [catalog.catalog_lookup(n) for n in names]


def _all_phi(space) -> list[parabolic.PhiSubset]:
    r = space.rank
    out = []
    for k in range(r + 1):
        for c in itertools.combinations(range(1, r + 1), k):
            out.append(parabolic.phi_subset(space, c))
    return out


def criterion_1_root_counts() -> Check:
    """Exact root counts per family."""
    problems = []
    for r in range(1, 13):
        if len(build_root_system("A", r).roots) != r * (r + 1):
            problems.append(f"A_{r}")
    for fam, count in (("E8", 240), ("F4", 48), ("G2", 12)):
        rs = build_root_system(fam, int(fam[1]))
        if len(rs.roots) != count:
            problems.append(fam)
    for fam, rank, pos in (("E7", 7, 63), ("E6", 6, 36)):
        rs = build_root_system(fam, rank)
        if len(rs.positive) != pos or len(rs.roots) != 2 * len(rs.positive):
            problems.append(fam)
    for r in range(1, 9):
        if len(build_root_system("BC", r).roots) != 2 * r * r + 2 * r:
            problems.append(f"BC_{r}")
    ok = not problems
    return ("1 root counts", ok, "all families" if ok else f"failed: {problems}")


def criterion_2_closure_and_expansion() -> Check:
    """Weyl closure and uniform-sign integer expansion, exhaustively."""
    systems = [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    systems += [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
    systems += [("BC", r) for r in range(1, 9)]
    systems += [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    checked = 0
    for fam, r in systems:
        rs = build_root_system(fam, r)
        for lam in rs.roots:
            for mu in rs.roots:
                if reflect(lam, mu) not in rs.roots:
                    return ("2 closure+expansion", False, f"{fam}_{r}: reflection escapes")
        for lam in rs.roots:
            coeffs = rs.simple_coefficients(lam)
            if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
                return ("2 closure+expansion", False, f"{fam}_{r}: mixed-sign expansion")
            checked += 1
    return ("2 closure+expansion", True, f"{len(systems)} systems, {checked} roots")


def _path_diagram(r: int) -> DynkinDiagram:
    verts = tuple(DynkinVertex(i, False) for i in range(1, r + 1))
    edges = tuple(DynkinEdge(i, i + 1, 1) for i in range(1, r))
    return DynkinDiagram(verts, edges)


def criterion_3_dynkin_figures() -> Check:
    """Diagrams match the expected figures structurally."""
    for r in range(1, 9):
        dd = family_diagram("A", r)
        if dd != _path_diagram(r):
            return ("3 dynkin figures", False, f"A_{r}")
    for r in range(2, 7):
        dd = family_diagram("B", r)
        exp = _path_diagram(r)
        exp_edges = exp.edges[:-1] + (DynkinEdge(r - 1, r, 2, (r - 1, r)),)
        if dd != DynkinDiagram(exp.vertices, exp_edges):
            return ("3 dynkin figures", False, f"B_{r}")
        dd = family_diagram("C", r)
        exp_edges = exp.edges[:-1] + (DynkinEdge(r - 1, r, 2, (r, r - 1)),)
        if dd != DynkinDiagram(exp.vertices, exp_edges):
            return ("3 dynkin figures", False, f"C_{r}")
        dd = family_diagram("BC", r)
        exp_verts = exp.vertices[:-1] + (DynkinVertex(r, True),)
        exp_edges = exp.edges[:-1] + (DynkinEdge(r - 1, r, 2, (r - 1, r)),)
        if (dd.vertices, dd.edges) != (exp_verts, exp_edges):
            return ("3 dynkin figures", False, f"BC_{r}")
    dd = family_diagram("BC", 1)
    if dd.vertices != (DynkinVertex(1, True),) or dd.edges:
        return ("3 dynkin figures", False, "BC_1")
    for r in range(3, 7):
        dd = family_diagram("D", r)
        exp_verts = tuple(DynkinVertex(i, False) for i in range(1, r + 1))
        exp_edges = tuple(DynkinEdge(i, i + 1, 1) for i in range(1, r - 1))
        exp_edges += (DynkinEdge(r - 2, r, 1),)
        if dd != DynkinDiagram(exp_verts, exp_edges):
            return ("3 dynkin figures", False, f"D_{r}")
    f4 = family_diagram("F4", 4)
    exp = DynkinDiagram(
        tuple(DynkinVertex(i, False) for i in range(1, 5)),
        (DynkinEdge(1, 2, 1), DynkinEdge(2, 3, 2, (2, 3)), DynkinEdge(3, 4, 1)),
    )
    if f4 != exp:
        return ("3 dynkin figures", False, "F4")
    g2 = family_diagram("G2", 2)
    if g2.edges != (DynkinEdge(1, 2, 3, (2, 1)),):
        return ("3 dynkin figures", False, "G2")
    for fam, rank in (("E6", 6), ("E7", 7), ("E8", 8)):
        dd = family_diagram(fam, rank)
        exp_edges = (DynkinEdge(1, 3, 1), DynkinEdge(2, 4, 1), DynkinEdge(3, 4, 1))
        exp_edges += tuple(DynkinEdge(i, i + 1, 1) for i in range(4, rank))
        if dd.edges != exp_edges or any(v.double_circle for v in dd.vertices):
            return ("3 dynkin figures", False, fam)
    return ("3 dynkin figures", True, "A-D, BC, E6-E8, F4, G2")


def criterion_4_fibonacci() -> Check:
    """Independent-set counts on A_r diagrams equal Fibonacci F(r+2)."""
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for r in range(1, 13):
        dd = family_diagram("A", r)
        count = len(foliations.orthogonal_subsets(dd))
        if count != fib[r + 2]:
            return ("4 fibonacci", False, f"A_{r}: {count} != F({r+2})")
        if r <= 6:
            brute = sum(
                1
                for k in range(r + 1)
                for c in itertools.combinations(range(1, r + 1), k)
                if all(b - a > 1 for a, b in itertools.combinations(c, 2))
            )
            if brute != count:
                return ("4 fibonacci", False, f"A_{r}: brute force disagrees")
    return ("4 fibonacci", True, "r <= 12, brute-forced for r <= 6")


def criterion_5_killing() -> Check:
    """|B(X,Y) - 2(r+1) tr(XY)| < 1e-9 on 100 random pairs per rank."""
    import numpy as np

    from . import slmodel

    rng = slmodel.default_rng()
    worst = 0.0
    for r in range(1, 7):
        n = r + 1
        for _ in range(100):
            x = rng.standard_normal((n, n))
            x -= np.eye(n) * (np.trace(x) / n)
            y = rng.standard_normal((n, n))
            y -= np.eye(n) * (np.trace(y) / n)
            diff = abs(slmodel.killing_form(x, y) - 2.0 * n * float(np.trace(x @ y)))
            worst = max(worst, diff)
    ok = worst < 1e-9
    return ("5 killing closed form", ok, f"max |B - 2n tr| = {worst:.2e}")


def criterion_6_iwasawa() -> Check:
    """Round trip and idempotence of the group factorization, 1000 samples per rank."""
    import numpy as np

    from . import slmodel

    rng = slmodel.default_rng()
    worst = 0.0
    worst_refac = 0.0
    for r in range(1, 7):
        n = r + 1
        for _ in range(1000):
            g = slmodel.random_sl(n, rng)
            f = slmodel.iwasawa_group(g)
            worst = max(worst, float(np.abs(f.reassemble() - g).max()))
            f2 = slmodel.iwasawa_group(f.reassemble())
            worst_refac = max(
                worst_refac,
                float(np.abs(f2.k - f.k).max()),
                float(np.abs(f2.a - f.a).max()),
                float(np.abs(f2.n - f.n).max()),
            )
    ok = worst < 1e-10 and worst_refac < 1e-10
    return ("6 iwasawa round trip", ok, f"max residual {worst:.2e}, refactor drift {worst_refac:.2e}")


def criterion_7_parabolic_blocks() -> Check:
    """Root-theoretic dim q_Phi equals the block-triangular entry count, r <= 5."""
    from . import slmodel

    for r in range(1, 6):
        space = catalog.catalog_lookup(f"SL{r + 1}")
        for phi in _all_phi(space):
            data = parabolic.parabolic_data(space, phi)
            block = slmodel.q_phi_block_dimension(r, phi.indices)
            realized = slmodel.q_phi_subspace(r, phi.indices).dim
            if not (data.dim_q_phi == block == realized):
                return ("7 parabolic blocks", False, f"r={r}, phi={phi.indices}")
    return ("7 parabolic blocks", True, "all Phi, r <= 5, formula and realized basis")


def criterion_8_horospherical() -> Check:
    """dim F_Phi^s + (r - r_Phi) + dim N_Phi = dim M over the catalog."""
    spaces = _sample_spaces()
    count = 0
    for space in spaces:
        for phi in _all_phi(space):
            h = parabolic.horospherical(space, phi)
            if h.dim_Fs + h.dim_euclidean + h.dim_N != space.dimension:
                return ("8 horospherical", False, f"{space.name}, phi={phi.indices}")
            count += 1
    return ("8 horospherical", True, f"{count} decompositions over {len(spaces)} spaces")


def criterion_9_lie_triple() -> Check:
    """p_Phi, p_Phi^s, a_Phi pass; the documented non-example fails."""
    from . import slmodel

    worst = 0.0
    for r in range(1, 6):
        for k in range(r + 1):
            for phi in itertools.combinations(range(1, r + 1), k):
                for builder in (
                    slmodel.p_phi_subspace,
                    slmodel.p_phi_s_subspace,
                    slmodel.a_phi_subspace,
                ):
                    res = slmodel.is_lie_triple(builder(r, phi))
                    if not res.holds:
                        return ("9 lie triple", False, f"r={r}, phi={phi}, {builder.__name__}")
                    worst = max(worst, res.residual)
    if worst >= 1e-12:
        return ("9 lie triple", False, f"residual {worst} too large")
    # Non-example: all off-diagonal symmetric directions in sl3.
    mats = [
        (slmodel.e_matrix(3, i, j) + slmodel.e_matrix(3, j, i)) / 2.0
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    res = slmodel.is_lie_triple(slmodel.subspace(mats))
    if res.holds or res.residual <= 0.1:
        return ("9 lie triple", False, f"non-example residual {res.residual}")
    return ("9 lie triple", True, f"max good residual {worst:.1e}; non-example residual {res.residual:.3f}")


def criterion_10_foliations() -> Check:
    """Rank-one two-class result; SL5 counts; bracket-closed subalgebras."""
    from . import slmodel

    for name in ("so(4,1)", "su(3,1)", "sp(3,1)", "f4(-20)"):
        space = catalog.catalog_lookup(name)
        classes = foliations.enumerate_foliations(space)
        keys = sorted((c.phi, c.dim_v) for c in classes)
        if len(classes) != 2 or keys != [((), 0), ((1,), 0)]:
            return ("10 foliations", False, f"{name}: {keys}")
        if any(c.codim != 1 for c in classes):
            return ("10 foliations", False, f"{name}: codimension != 1")
    sl5 = catalog.catalog_lookup("SL5")
    classes = foliations.enumerate_foliations(sl5, include_trivial=True)
    orbits = {c.phi for c in classes}
    nontrivial = [c for c in classes if not c.trivial]
    if len(orbits) != 5 or len(nontrivial) != 18 or len(classes) != 19:
        return ("10 foliations", False, f"SL5: {len(orbits)} orbits, {len(nontrivial)} classes")
    worst = 0.0
    for c in nontrivial:
        s = slmodel.build_s_phi_v(sl5, c.phi, c.dim_v)
        worst = max(worst, slmodel.bracket_closure_residual(s))
        if s.dim != sl5.dimension - c.codim:
            return ("10 foliations", False, f"dim s mismatch for {c.phi}, {c.dim_v}")
    ok = worst < 1e-12
    return ("10 foliations", ok, f"rank-one + SL5 classes; max closure residual {worst:.1e}")


def criterion_11_halfplane() -> Check:
    """K fixes i; A dilates i; N translates horizontally."""
    import numpy as np

    from . import slmodel

    worst_k = max(
        abs(slmodel.moebius(slmodel.k_factor(s), 1j) - 1j)
        for s in np.linspace(0.0, 2.0 * math.pi, 25)
    )
    worst_a = max(
        abs(slmodel.moebius(slmodel.a_factor(t), 1j) - math.exp(2.0 * t) * 1j)
        for t in np.linspace(-3.0, 3.0, 25)
    )
    z = 0.3 + 1.7j
    worst_n = max(
        abs(slmodel.moebius(slmodel.n_factor(u), z).imag - z.imag)
        for u in np.linspace(-3.0, 3.0, 25)
    )
    ok = worst_k < 1e-12 and worst_a < 1e-12 and worst_n < 1e-12
    return ("11 halfplane orbits", ok, f"K {worst_k:.1e}, A {worst_a:.1e}, N {worst_n:.1e}")


_CRITERIA = (
    criterion_1_root_counts,
    criterion_2_closure_and_expansion,
    criterion_3_dynkin_figures,
    criterion_4_fibonacci,
    criterion_5_killing,
    criterion_6_iwasawa,
    criterion_7_parabolic_blocks,
    criterion_8_horospherical,
    criterion_9_lie_triple,
    criterion_10_foliations,
    criterion_11_halfplane,
)

SUITES = {
    "all": tuple(range(11)),
    "rootsys": (0, 1, 2, 3),
    "catalog": (7,),
    "parabolic": (6, 7),
    "foliations": (3, 9),
    "slmodel": (4, 5, 8, 10),
}


def timed_suite(suite: str = "all") -> Iterator[tuple[Check, float]]:
    """Run the suite's criteria in order, yielding each result with its seconds."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    for i in SUITES[suite]:
        start = perf_counter()
        check = _CRITERIA[i]()
        yield check, perf_counter() - start


def run_suite(suite: str = "all") -> list[Check]:
    return [check for check, _ in timed_suite(suite)]
