"""What argparse is told of the CLI: ``cli.main`` imports this module only
for help, usage errors and every argv that ``commands.match`` declines, so
neither a well-formed call nor ``--version`` compiles it.  It takes the
command table from ``cli`` as an argument and imports nothing from ``cli``,
which runs as ``__main__`` under ``python -m liefoliate.cli`` and would be
compiled a second time."""

import argparse
import sys
from importlib import import_module

from .. import __version__


class _Parser(argparse.ArgumentParser):
    """argparse's parser, which writes to stdout (help and the version line)
    with a plain write: argparse's ``_print_message`` throws a failed write
    away, and help or ``--version parabolic`` to a reader that went away
    would exit 0 when stdout is unbuffered.  Usage errors go to stderr
    through argparse's own method.  Its subparsers are of this class too."""

    def _print_message(self, message, file=None) -> None:
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser(commands: dict[str, str], command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand's name in ``commands``, each with its
    one-line help.  The subparser of ``command`` alone gets the arguments
    that its module ``commands.<command>`` declares, and its ``run`` becomes
    the parsed arguments' ``run``."""
    parser = _Parser(
        prog="liefoliate",
        description="Restricted root systems, parabolic data, and hyperpolar foliation classes "
        "for symmetric spaces of noncompact type.",
        epilog="Space names: sl(m,R)/SL<m>, sl(m,C), sl(m,H), so(p,q)/SOo(p,q), so(m,C), "
        "so(m,H), sp(r,R), sp(r,C), sp(p,q), su(p,q), e6(6|2|-14|-26|C), e7(7|-5|-25|C), "
        "e8(8|-24|C), f4(4|-20|C), g2(2|C); display names like SL_5(R)/SO_5 also work.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in commands.items():
        p = sub.add_parser(name, help=text)
        if name == command:
            add_arguments(p, name)
    return parser


def add_arguments(parser, command: str) -> None:
    """Give argparse's parser of ``command`` its declared description,
    action and options, and the command's ``run``."""
    module = import_module(f".{command}", __package__)
    parser.description = getattr(module, "DESCRIPTION", None)
    parser.set_defaults(run=module.run)
    actions = getattr(module, "ACTIONS", ())
    if isinstance(actions, dict):
        sub = parser.add_subparsers(dest="action", required=True)
        groups = [(sub.add_parser(action, help=text), options) for action, (text, options) in actions.items()]
    else:
        if actions:
            parser.add_argument("action", choices=actions)
        groups = [(parser, module.OPTIONS)]
    for p, options in groups:
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
