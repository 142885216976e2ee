"""``foliations enumerate``."""

from . import emit_json


def add_arguments(parser) -> None:
    parser.description = (
        "Enumerate hyperpolar foliation classes, one record per (Phi orbit, dim V).  "
        "The full enumeration's cost grows exponentially with the rank: a path diagram of rank r "
        "has F(r+2) orthogonal subsets Phi (F the Fibonacci numbers), each giving up to "
        "r - r_Phi + 1 records.  A record of codimension c has r_Phi <= c, so --codim c visits "
        "only the Phi of at most c roots: sum over k <= c of C(r-k+1, k) subsets on a path.  "
        "Measured on a 2-vCPU x86_64 VM: SL18 (rank 17) gives 28,069 records in 2.5 s and "
        "SL22 (rank 21) 231,734 records in 23 s and 2.6 GB, with --format json; "
        "'--space \"sl(60,R)\" --codim 1' gives 31 records in 0.4 s."
    )
    parser.add_argument("action", choices=("enumerate",))
    parser.add_argument("--space", required=True)
    parser.add_argument("--include-trivial", action="store_true")
    parser.add_argument("--codim", type=int, default=None)
    parser.add_argument("--format", default="table", choices=("table", "json"))


def run(args) -> int:
    from ..catalog import catalog_lookup
    from ..foliations import enumerate_foliations

    space = catalog_lookup(args.space)
    classes = enumerate_foliations(space, include_trivial=args.include_trivial, codim=args.codim)
    if args.format == "json":
        emit_json([c.to_dict() for c in classes])
    else:
        print(f"{len(classes)} foliation class(es) on {space.name} ({space.display})")
        for c in classes:
            factors = ", ".join(f"{f.algebra}H^{f.n}" for f in c.factors) or "-"
            print(
                f"  Phi {str(list(c.phi)):<12} orbit size {len(c.orbit)}  dim V {c.dim_v}  "
                f"leaf dim {c.leaf_dim:>3}  codim {c.codim:>2}  factors: {factors}"
            )
    return 0
