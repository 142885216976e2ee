"""The CLI's commands, one module per subcommand.

Each module ``commands.<subcommand>`` has ``add_arguments(parser)``, which
gives the subcommand's parser its description and arguments, and
``run(args)``.  ``cli.main`` imports only the module of the command that
argv names, and uses it for both, so a process compiles no other command's
code and parses no other command's arguments.  This package holds what the
commands share; they import nothing from ``cli``, which runs as
``__main__`` under ``python -m liefoliate.cli`` and would be compiled a
second time.  Each ``run`` imports the library inside its body, so a tracer
that replaces ``catalog.catalog_lookup`` and the like sees its calls.
"""

import json

from ..errors import LieFoliateError


def emit_json(obj) -> None:
    try:
        text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:  # NaN or infinity, which strict JSON cannot carry
        raise LieFoliateError(f"result is not finite: {exc}")
    print(text)


def parse_phi(text: str | None) -> tuple[int, ...]:
    """The indices of a comma-separated list of ASCII integers; ``int`` alone
    would also take any other Unicode digit."""
    if not text:
        return ()
    if text.isascii():
        try:
            return tuple(int(p) for p in text.replace(" ", "").split(",") if p != "")
        except ValueError:
            pass
    raise LieFoliateError(f"cannot parse Phi indices from {text!r}")
