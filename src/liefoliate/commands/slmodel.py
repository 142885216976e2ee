"""``slmodel iwasawa``, ``killing``, ``check-lie-triple`` and ``halfplane``."""

import json

from ..errors import LieFoliateError
from . import ascii_int, emit_json


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past int()'s digit limit, or deep nesting
        raise LieFoliateError(f"cannot parse {what} JSON: {exc}")


def ascii_float(text: str) -> float:
    """The ``type`` of the float options: ``float`` of ASCII text alone, as
    ``ascii_int`` is ``int``'s, since ``float`` would also take any other
    Unicode digit."""
    if not text.isascii():
        raise ValueError(text)
    return float(text)


ascii_float.__name__ = "float"  # argparse's usage error names the type: "invalid float value"


# Each action: its help, and its options.
ACTIONS = {
    "iwasawa": ("factor g = k a n", {
        "--rank": {"required": True, "type": ascii_int},
        "--matrix": {"required": True, "help": "JSON nested list, row-major"},
    }),
    "killing": ("Killing form of two traceless matrices", {
        "--x": {"required": True},
        "--y": {"required": True},
    }),
    "check-lie-triple": ("test [[S,S],S] in span(S)", {
        "--basis": {"required": True, "help": "JSON list of symmetric matrices"},
    }),
    "halfplane": ("sample K/A/N orbit points on the upper half plane", {
        "--orbit": {"required": True, "choices": ("K", "A", "N")},
        "--samples": {"type": ascii_int, "default": 25},
        "--base-re": {"type": ascii_float, "default": 0.0},
        "--base-im": {"type": ascii_float, "default": 1.0},
        "--format": {"default": "json", "choices": ("json", "csv")},
    }),
}


def run(args) -> int:
    if args.action == "iwasawa":
        from ..iwasawa import factor, square_matrix

        g = square_matrix(_parse_json(args.matrix, "matrix"))  # no numpy
        if len(g) != args.rank + 1:
            raise LieFoliateError(f"expected a {args.rank + 1}x{args.rank + 1} matrix for rank {args.rank}")
        emit_json(factor(g)._asdict())  # {"k": ..., "a": ..., "n": ..., "residual": ...}
        return 0

    from ..slmodel import halfplane_orbit, is_lie_triple, killing_form, metric_inner, subspace

    if args.action == "killing":
        x, y = _parse_json(args.x, "matrix"), _parse_json(args.y, "matrix")
        value = killing_form(x, y)  # reads x and y
        closed = metric_inner(x, list(zip(*y)))  # 2n tr(XY) = <X, Y^t>, exactly
        emit_json({"killing": value, "closed_form": closed, "difference": value - closed})
    elif args.action == "check-lie-triple":
        basis = _parse_json(args.basis, "basis")
        if not isinstance(basis, list) or not basis:
            raise LieFoliateError("basis must be a nonempty JSON list of square matrices")
        result = is_lie_triple(subspace(basis))  # reads each matrix
        emit_json({"holds": result.holds, "residual": result.residual})
    else:  # halfplane
        base = complex(args.base_re, args.base_im)
        points = halfplane_orbit(args.orbit, args.samples, base)
        if args.format == "csv":
            print("re,im")
            for p in points:
                print(f"{p.real!r},{p.imag!r}")
        else:
            emit_json([{"re": p.real, "im": p.imag} for p in points])
    return 0
