"""``foliations enumerate``."""

from . import emit_json


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
