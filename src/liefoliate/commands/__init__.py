"""The CLI's command handlers, one module per subcommand.

``cli.main`` imports only the module of the parsed command and calls its
``run(args)``, so a process compiles no other handler.  This package holds
what the handlers share with each other and with ``cli.build_parser``; the
handlers import none of it from ``cli``, which runs as ``__main__`` under
``python -m liefoliate.cli`` and would be compiled a second time.  Each
handler imports the library inside its body, so a tracer that replaces
``catalog.catalog_lookup`` and the like sees its calls.
"""

import json

from ..errors import LieFoliateError

# 'rootsys show' lists about r^2 roots of r coordinates each: A100 takes
# about 0.7 s and 160 MB, and the cost grows like r^3.
SHOW_MAX_RANK = 100


def emit_json(obj) -> None:
    try:
        text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:  # NaN or infinity, which strict JSON cannot carry
        raise LieFoliateError(f"result is not finite: {exc}")
    print(text)


def parse_phi(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p != "")
    except ValueError:
        raise LieFoliateError(f"cannot parse Phi indices from {text!r}")
