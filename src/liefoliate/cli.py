"""Command-line front end.

Subcommands: rootsys {show|dynkin}, catalog list, parabolic, horospherical,
foliations enumerate, slmodel {iwasawa|killing|check-lie-triple|halfplane},
verify.  Structured output is UTF-8 JSON, one document per invocation; data
goes to stdout and diagnostics to stderr.  Exit status 0 on success, 1 on
domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import LieFoliateError

# The keys of verify.SUITES, sorted.  Importing verify for them would load
# catalog, parabolic and foliations for every command; a test checks that
# the two agree.
_SUITES = ("all", "catalog", "foliations", "parabolic", "rootsys", "slmodel")


def _emit_json(obj) -> None:
    try:
        text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:  # NaN or infinity, which strict JSON cannot carry
        raise LieFoliateError(f"result is not finite: {exc}")
    print(text)


def _parse_phi(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p != "")
    except ValueError:
        raise LieFoliateError(f"cannot parse Phi indices from {text!r}")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past int()'s digit limit, or deep nesting
        raise LieFoliateError(f"cannot parse {what} JSON: {exc}")


# 'rootsys show' lists about r^2 roots of r coordinates each: A100 takes
# about 0.7 s and 160 MB, and the cost grows like r^3.
_SHOW_MAX_RANK = 100


def _cmd_rootsys(args) -> int:
    from .roots import family_diagram, format_root

    if args.action == "show" and args.format == "dot":
        print("usage error: --format dot is only valid for 'rootsys dynkin'", file=sys.stderr)
        return 2
    if args.action == "show":
        if args.rank > _SHOW_MAX_RANK:
            raise LieFoliateError(f"rank {args.rank} is too large for 'rootsys show': at most {_SHOW_MAX_RANK}")
        from .roots import build_root_system

        rs = build_root_system(args.family, args.rank)
        if args.format == "json":
            _emit_json(rs.to_dict())
        else:
            print(f"family {rs.family.value}  rank {rs.rank}  ambient dim {rs.ambient_dim}")
            print(f"|Sigma| = {len(rs.roots)}, |Sigma+| = {len(rs.positive)}")
            print("simple roots:")
            for i, alpha in enumerate(rs.simple, start=1):
                print(f"  alpha_{i} = {format_root(alpha)}")
            print("positive roots:")
            for lam in rs.positive:
                print(f"  {format_root(lam)}")
        return 0
    dd = family_diagram(args.family, args.rank)
    if args.format == "dot":
        sys.stdout.write(dd.to_dot(f"{args.family}{args.rank}"))
    elif args.format == "json":
        _emit_json(dd.to_dict())
    else:
        doubles = [v.index for v in dd.vertices if v.double_circle]
        print(f"Dynkin diagram of {args.family}_{args.rank}: {dd.rank} vertices")
        for e in dd.edges:
            arrow = f", arrow {e.arrow[0]}->{e.arrow[1]}" if e.arrow else ""
            print(f"  {e.i} -- {e.j}: {e.lines} line(s){arrow}")
        print(f"double circles: {doubles if doubles else 'none'}")
        for note in dd.notes:
            print(f"note: {note}")
    return 0


def _cmd_catalog(args) -> int:
    from .catalog import catalog_entries

    entries = catalog_entries()
    if args.format == "json":
        _emit_json(
            [
                {
                    "key": e.key,
                    "name": e.ascii_doc,
                    "display": e.display_doc,
                    "family": e.family.value,
                    "rank": e.rank_doc,
                    "multiplicities": e.mult_pattern,
                    "dim_k0": e.dim_k0,
                    "notes": list(e.notes),
                }
                for e in entries
            ]
        )
    else:
        width = max(len(e.ascii_doc) for e in entries)
        for e in entries:
            k0 = "0" if e.dim_k0 == 0 else "-"
            print(
                f"{e.ascii_doc:<{width}}  {e.family.value:>2}  rank {e.rank_doc:<7} "
                f"mults {e.mult_pattern:<22} k0 {k0}  {e.display_doc}"
            )
    return 0


def _cmd_parabolic(args) -> int:
    from .catalog import catalog_lookup
    from .parabolic import parabolic_data, phi_subset

    space = catalog_lookup(args.space)
    phi = phi_subset(space, _parse_phi(args.phi))
    data = parabolic_data(space, phi)
    if args.format == "json":
        _emit_json(data.to_dict())
    else:
        print(f"space {space.name} ({space.display}), Phi = {list(phi.indices)}")
        print(f"|Sigma_Phi| = {len(data.sigma_phi)}, |Sigma_Phi+| = {len(data.sigma_phi_pos)}")
        for label, value in (
            ("dim a_Phi", data.dim_a_phi),
            ("dim n_Phi", data.dim_n_phi),
            ("dim g0", data.dim_g0),
            ("dim l_Phi", data.dim_l_phi),
            ("dim m_Phi", data.dim_m_phi),
            ("dim q_Phi", data.dim_q_phi),
            ("dim p_Phi", data.dim_p_phi),
            ("dim p_Phi^s", data.dim_p_phi_s),
            ("dim k_Phi", data.dim_k_phi),
            ("dim g_Phi", data.dim_g_phi),
            ("dim z_Phi", data.dim_z_phi),
        ):
            print(f"  {label:<12} = {'unavailable' if value is None else value}")
    return 0


def _cmd_horospherical(args) -> int:
    from .catalog import catalog_lookup
    from .parabolic import horospherical, phi_subset

    space = catalog_lookup(args.space)
    phi = phi_subset(space, _parse_phi(args.phi))
    data = horospherical(space, phi)
    if args.format == "json":
        _emit_json(data.to_dict())
    else:
        print(f"space {space.name} ({space.display}), Phi = {list(phi.indices)}")
        print(f"  dim F_Phi^s   = {data.dim_Fs}")
        for f in data.factors:
            print(f"    {f.name}: component {list(f.component_indices)}, dim {f.dim}")
        print(f"  dim Euclidean = {data.dim_euclidean}")
        print(f"  dim N_Phi     = {data.dim_N}")
        print(f"  total         = {space.dimension} = dim M")
    return 0


def _cmd_foliations(args) -> int:
    from .catalog import catalog_lookup
    from .foliations import enumerate_foliations

    space = catalog_lookup(args.space)
    classes = enumerate_foliations(space, include_trivial=args.include_trivial, codim=args.codim)
    if args.format == "json":
        _emit_json([c.to_dict() for c in classes])
    else:
        print(f"{len(classes)} foliation class(es) on {space.name} ({space.display})")
        for c in classes:
            factors = ", ".join(f"{f.algebra}H^{f.n}" for f in c.factors) or "-"
            print(
                f"  Phi {str(list(c.phi)):<12} orbit size {len(c.orbit)}  dim V {c.dim_v}  "
                f"leaf dim {c.leaf_dim:>3}  codim {c.codim:>2}  factors: {factors}"
            )
    return 0


def _cmd_slmodel(args) -> int:
    if args.action == "iwasawa":
        from .iwasawa import factor, square_matrix

        g = square_matrix(_parse_json(args.matrix, "matrix"))  # no numpy
        if len(g) != args.rank + 1:
            raise LieFoliateError(f"expected a {args.rank + 1}x{args.rank + 1} matrix for rank {args.rank}")
        f = factor(g)
        _emit_json({"k": f.k, "a": f.a, "n": f.n, "residual": f.residual})
        return 0

    import numpy as np

    from .slmodel import halfplane_orbit, is_lie_triple, killing_form, subspace

    if args.action == "killing":
        x, y = _parse_json(args.x, "matrix"), _parse_json(args.y, "matrix")
        value = killing_form(x, y)  # reads x and y
        closed = 2.0 * len(x) * float(np.trace(np.array(x, dtype=float) @ np.array(y, dtype=float)))
        _emit_json({"killing": value, "closed_form": closed, "difference": value - closed})
    elif args.action == "check-lie-triple":
        basis = _parse_json(args.basis, "basis")
        if not isinstance(basis, list) or not basis:
            raise LieFoliateError("basis must be a nonempty JSON list of square matrices")
        result = is_lie_triple(subspace(basis))  # reads each matrix
        _emit_json({"holds": result.holds, "residual": result.residual})
    else:  # halfplane
        base = complex(args.base_re, args.base_im)
        points = halfplane_orbit(args.orbit, args.samples, base)
        if args.format == "csv":
            print("re,im")
            for p in points:
                print(f"{p.real!r},{p.imag!r}")
        else:
            _emit_json([{"re": p.real, "im": p.imag} for p in points])
    return 0


def _cmd_verify(args) -> int:
    from .verify import timed_suite

    failed = 0
    for (name, ok, detail), seconds in timed_suite(args.suite):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)
        print(f"{seconds:8.3f} s  {name}", file=sys.stderr, flush=True)
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} criterion/criteria failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liefoliate",
        description="Restricted root systems, parabolic data, and hyperpolar foliation classes "
        "for symmetric spaces of noncompact type.",
        epilog="Space names: sl(m,R)/SL<m>, sl(m,C), sl(m,H), so(p,q)/SOo(p,q), so(m,C), "
        "so(m,H), sp(r,R), sp(r,C), sp(p,q), su(p,q), e6(6|2|-14|-26|C), e7(7|-5|-25|C), "
        "e8(8|-24|C), f4(4|-20|C), g2(2|C); display names like SL_5(R)/SO_5 also work.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "rootsys", help="root systems and Dynkin diagrams",
        description="Root systems and Dynkin diagrams.  'show' lists every root, and |Sigma+| grows "
        "like r^2 (r(r+1)/2 for A_r, about r^2 for B, C, D, BC), so it accepts ranks up to "
        f"{_SHOW_MAX_RANK}; 'dynkin' reads the diagram off the simple roots alone and accepts ranks up "
        "to 1000.  Measured on a 2-vCPU x86_64 VM: 'show --family A --rank 31 --format json' prints "
        "496 positive roots in 0.15 s, import included.",
    )
    p.add_argument("action", choices=("show", "dynkin"))
    p.add_argument("--family", required=True,
                   choices=("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "BC"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--format", default="table", choices=("table", "json", "dot"))
    p.set_defaults(func=_cmd_rootsys)

    p = sub.add_parser("catalog", help="browse the symmetric-space catalog")
    p.add_argument("action", choices=("list",))
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("parabolic", help="parabolic subalgebra dimension data")
    p.add_argument("--space", required=True)
    p.add_argument("--phi", default="", help="comma-separated simple root indices, e.g. 1,3")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(func=_cmd_parabolic)

    p = sub.add_parser("horospherical", help="horospherical decomposition factors")
    p.add_argument("--space", required=True)
    p.add_argument("--phi", default="")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(func=_cmd_horospherical)

    p = sub.add_parser(
        "foliations", help="enumerate hyperpolar foliation classes",
        description="Enumerate hyperpolar foliation classes, one record per (Phi orbit, dim V).  "
        "The full enumeration's cost grows exponentially with the rank: a path diagram of rank r "
        "has F(r+2) orthogonal subsets Phi (F the Fibonacci numbers), each giving up to "
        "r - r_Phi + 1 records.  A record of codimension c has r_Phi <= c, so --codim c visits "
        "only the Phi of at most c roots: sum over k <= c of C(r-k+1, k) subsets on a path.  "
        "Measured on a 2-vCPU x86_64 VM: SL18 (rank 17) gives 28,069 records in 2.5 s and "
        "SL22 (rank 21) 231,734 records in 23 s and 2.6 GB, with --format json; "
        "'--space \"sl(60,R)\" --codim 1' gives 31 records in 0.4 s.",
    )
    p.add_argument("action", choices=("enumerate",))
    p.add_argument("--space", required=True)
    p.add_argument("--include-trivial", action="store_true")
    p.add_argument("--codim", type=int, default=None)
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(func=_cmd_foliations)

    p = sub.add_parser("slmodel", help="matrix-model computations in sl(n,R)")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("iwasawa", help="factor g = k a n")
    q.add_argument("--rank", required=True, type=int)
    q.add_argument("--matrix", required=True, help="JSON nested list, row-major")
    q.set_defaults(func=_cmd_slmodel, action="iwasawa")
    q = psub.add_parser("killing", help="Killing form of two traceless matrices")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.set_defaults(func=_cmd_slmodel, action="killing")
    q = psub.add_parser("check-lie-triple", help="test [[S,S],S] in span(S)")
    q.add_argument("--basis", required=True, help="JSON list of symmetric matrices")
    q.set_defaults(func=_cmd_slmodel, action="check-lie-triple")
    q = psub.add_parser("halfplane", help="sample K/A/N orbit points on the upper half plane")
    q.add_argument("--orbit", required=True, choices=("K", "A", "N"))
    q.add_argument("--samples", type=int, default=25)
    q.add_argument("--base-re", type=float, default=0.0)
    q.add_argument("--base-im", type=float, default=1.0)
    q.add_argument("--format", default="json", choices=("json", "csv"))
    q.set_defaults(func=_cmd_slmodel, action="halfplane")

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", default="all", choices=_SUITES)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LieFoliateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
