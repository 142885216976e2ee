"""Command-line front end.

Subcommands: rootsys {show|dynkin}, catalog list, parabolic, horospherical,
foliations enumerate, slmodel {iwasawa|killing|check-lie-triple|halfplane},
verify.  Structured output is UTF-8 JSON, one document per invocation; data
goes to stdout and diagnostics to stderr.  Exit status 0 on success, 1 on
domain errors, 2 on usage errors.  Each subcommand's handler is
``commands.<subcommand>.run``, and ``main`` imports only the parsed one.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from . import __version__
from .commands import SHOW_MAX_RANK
from .errors import LieFoliateError

# The keys of verify.SUITES, sorted.  Importing verify for them would load
# catalog, parabolic and foliations for every command; a test checks that
# the two agree.
_SUITES = ("all", "catalog", "foliations", "parabolic", "rootsys", "slmodel")


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
        f"{SHOW_MAX_RANK}; 'dynkin' reads the diagram off the simple roots alone and accepts ranks up "
        "to 1000.  Measured on a 2-vCPU x86_64 VM: 'show --family A --rank 31 --format json' prints "
        "496 positive roots in 0.15 s, import included.",
    )
    p.add_argument("action", choices=("show", "dynkin"))
    p.add_argument("--family", required=True,
                   choices=("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "BC"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--format", default="table", choices=("table", "json", "dot"))

    p = sub.add_parser("catalog", help="browse the symmetric-space catalog")
    p.add_argument("action", choices=("list",))
    p.add_argument("--format", default="table", choices=("table", "json"))

    p = sub.add_parser("parabolic", help="parabolic subalgebra dimension data")
    p.add_argument("--space", required=True)
    p.add_argument("--phi", default="", help="comma-separated simple root indices, e.g. 1,3")
    p.add_argument("--format", default="table", choices=("table", "json"))

    p = sub.add_parser("horospherical", help="horospherical decomposition factors")
    p.add_argument("--space", required=True)
    p.add_argument("--phi", default="")
    p.add_argument("--format", default="table", choices=("table", "json"))

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

    p = sub.add_parser("slmodel", help="matrix-model computations in sl(n,R)")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("iwasawa", help="factor g = k a n")
    q.add_argument("--rank", required=True, type=int)
    q.add_argument("--matrix", required=True, help="JSON nested list, row-major")
    q = psub.add_parser("killing", help="Killing form of two traceless matrices")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q = psub.add_parser("check-lie-triple", help="test [[S,S],S] in span(S)")
    q.add_argument("--basis", required=True, help="JSON list of symmetric matrices")
    q = psub.add_parser("halfplane", help="sample K/A/N orbit points on the upper half plane")
    q.add_argument("--orbit", required=True, choices=("K", "A", "N"))
    q.add_argument("--samples", type=int, default=25)
    q.add_argument("--base-re", type=float, default=0.0)
    q.add_argument("--base-im", type=float, default=1.0)
    q.add_argument("--format", default="json", choices=("json", "csv"))

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", default="all", choices=_SUITES)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return import_module(f".commands.{args.command}", __package__).run(args)
    except LieFoliateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
