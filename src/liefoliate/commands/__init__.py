"""The CLI's commands, one module per subcommand, and the reading of argv.

Each module ``commands.<subcommand>`` declares its arguments once, as data,
and has ``run(args)``:

- ``OPTIONS`` maps each long option to the keywords of argparse's
  ``add_argument`` that it takes: ``required``, ``type``, ``choices``,
  ``default``, ``help``, or ``action="store_true"``.
- ``ACTIONS``, if the command takes an action, is either the choices of the
  positional ``action`` that comes before ``OPTIONS``, or a dict from each
  action to its help and its own options, each action then a parser of its
  own (``slmodel``).
- ``DESCRIPTION``, if any, heads the command's help.

``match`` reads a well-formed argv straight into the namespace that argparse
would make of it, so such a call never loads argparse;
``argparser.build_parser`` gives argparse the same declarations, for help,
usage errors and every argv that ``match`` declines, and only that path
compiles ``argparser``.  Both import only the module of the command that
argv names, so a process compiles no other command's code.  This package
holds what the commands share; they import nothing from ``cli``, which runs
as ``__main__`` under ``python -m liefoliate.cli`` and would be compiled a
second time.  ``--help`` loads this package for ``argparser`` alone, so
``emit_json`` imports ``json`` in its body.  Each ``run`` imports the
library inside its body, so a tracer that replaces ``catalog.catalog_lookup``
and the like sees its calls.
"""

from importlib import import_module
from types import SimpleNamespace

from ..errors import LieFoliateError


def match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of ``argv``, whose first item names a
    command, if ``argv`` has the plain form: the command, its action if it
    takes one, then declared long options, each given once and in full, and
    each value its own item, not starting with "-", converted by the option's
    type and among its choices, with every required option present.  None
    for any other argv."""
    module = import_module(f".{argv[0]}", __name__)
    args = SimpleNamespace(command=argv[0], run=module.run)
    actions = getattr(module, "ACTIONS", ())
    options = getattr(module, "OPTIONS", None)
    items = iter(argv[1:])
    if actions:
        args.action = next(items, None)
        if args.action not in actions:
            return None
        if isinstance(actions, dict):
            options = actions[args.action][1]
    given = {}
    for flag in items:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # store_true, the one action declared
            given[flag] = True
            continue
        value = next(items, "-")  # a missing value is declined as one starting with "-"
        if value.startswith("-"):
            return None
        try:
            value = given[flag] = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        default = spec.get("default", False if "action" in spec else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _ascii(kind):
    """The ``type`` of each option that ``kind`` (``int`` or ``float``) reads:
    ``kind`` of ASCII text alone, since ``kind`` would also take any other
    Unicode digit, which ``--phi`` and space names refuse too."""
    def read(text: str):
        if not text.isascii():
            raise ValueError(text)
        return kind(text)

    read.__name__ = kind.__name__  # argparse's usage error names the type: "invalid int value"
    return read


ascii_int, ascii_float = _ascii(int), _ascii(float)


def emit_json(obj) -> None:
    import json

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
