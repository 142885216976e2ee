"""``rootsys show`` and ``rootsys dynkin``."""

import sys

from ..errors import LieFoliateError
from . import ascii_int, emit_json

# 'rootsys show' lists about r^2 roots of r coordinates: A100 takes 0.3 s as a
# table, 0.9 s and 160 MB as JSON (2-vCPU Xeon), and the cost grows like r^3.
SHOW_MAX_RANK = 100


DESCRIPTION = (
    "Root systems and Dynkin diagrams.  'show' lists every root, and |Sigma+| grows "
    "like r^2 (r(r+1)/2 for A_r, about r^2 for B, C, D, BC), so it accepts ranks up to "
    f"{SHOW_MAX_RANK}; 'dynkin' reads the diagram off the simple roots alone and accepts ranks up "
    "to 1000."
)
ACTIONS = ("show", "dynkin")
OPTIONS = {
    "--family": {"required": True, "choices": ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "BC")},
    "--rank": {"required": True, "type": ascii_int},
    "--format": {"default": "table", "choices": ("table", "json", "dot")},
}


def run(args) -> int:
    if args.action == "show" and args.format == "dot":
        print("usage error: --format dot is only valid for 'rootsys dynkin'", file=sys.stderr)
        return 2
    if args.action == "show":
        if args.rank > SHOW_MAX_RANK:
            raise LieFoliateError(f"rank {args.rank} is too large for 'rootsys show': at most {SHOW_MAX_RANK}")
        from ..roots import build_root_system, format_root

        rs = build_root_system(args.family, args.rank)
        if args.format == "json":
            emit_json(rs.to_dict())
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
    from ..roots import family_diagram

    dd = family_diagram(args.family, args.rank)
    if args.format == "dot":
        sys.stdout.write(dd.to_dot(f"{args.family}{args.rank}"))
    elif args.format == "json":
        emit_json(dd.to_dict())
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
