"""``foliations enumerate``."""

import json
import sys

from . import ascii_int


DESCRIPTION = (
    "Enumerate hyperpolar foliation classes, one record per (Phi orbit, dim V).  "
    "The full enumeration's cost grows exponentially with the rank: a path diagram of rank r "
    "has F(r+2) orthogonal subsets Phi (F the Fibonacci numbers), each giving up to "
    "r - r_Phi + 1 records.  A record of codimension c has r_Phi <= c, so --codim c visits "
    "only the Phi of at most c roots: sum over k <= c of C(r-k+1, k) subsets on a path.  "
    "SL18 (rank 17) gives 28,069 records and SL22 (rank 21) 231,734; "
    "'--space \"sl(60,R)\" --codim 1' gives 31 records."
)
ACTIONS = ("enumerate",)
OPTIONS = {
    "--space": {"required": True},
    "--include-trivial": {"action": "store_true"},
    "--codim": {"type": ascii_int, "default": None},
    "--format": {"default": "table", "choices": ("table", "json")},
}


def run(args) -> int:
    from ..catalog import catalog_lookup
    from ..foliations import enumerate_foliations, iter_foliations

    space = catalog_lookup(args.space)
    if args.format == "json":
        write_json(iter_foliations(space, include_trivial=args.include_trivial, codim=args.codim))
        return 0
    classes = enumerate_foliations(space, include_trivial=args.include_trivial, codim=args.codim)
    print(f"{len(classes)} foliation class(es) on {space.name} ({space.display})")
    for c in classes:
        factors = ", ".join(f"{f.algebra}H^{f.n}" for f in c.factors) or "-"
        print(
            f"  Phi {str(list(c.phi)):<12} orbit size {len(c.orbit)}  dim V {c.dim_v}  "
            f"leaf dim {c.leaf_dim:>3}  codim {c.codim:>2}  factors: {factors}"
        )
    return 0


def write_json(classes) -> None:
    """Write ``json.dumps([c.to_dict() for c in classes], indent=2, ensure_ascii=False)`` and a
    newline to stdout, each record as ``classes`` yields it, keeping none.

    Every field of a record but dim_v, leaf_dim, codim and trivial belongs
    to its ``PhiOrbit``, so each orbit's first record is encoded whole and
    cut around those four, which are spliced into each record of the orbit.
    A raw newline occurs in the encoded text only between fields.
    """
    write, orbit, sep = sys.stdout.write, None, "[\n"
    for c in classes:
        if c.phi_orbit is not orbit:
            orbit = c.phi_orbit
            text = json.dumps([c.to_dict()], indent=2, ensure_ascii=False)[2:-2]  # one record, without "[\n", "\n]"
            head = text[:text.index('\n    "dim_v": ') + 14]
            tail = text[text.index(',\n    "factors": '):]
        write(f'{sep}{head}{c.dim_v},\n    "leaf_dim": {c.leaf_dim},\n    "codim": {c.codim},\n'
              f'    "trivial": {"true" if c.trivial else "false"}{tail}')
        sep = ",\n"
    write("[]\n" if orbit is None else "\n]\n")
