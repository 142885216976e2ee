"""``catalog list``."""

from . import emit_json


ACTIONS = ("list",)
OPTIONS = {"--format": {"default": "table", "choices": ("table", "json")}}


def run(args) -> int:
    from ..catalog import catalog_entries

    entries = catalog_entries()
    if args.format == "json":
        emit_json(
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
