"""Command-line front end.

Subcommands: rootsys {show|dynkin}, catalog list, parabolic, horospherical,
foliations enumerate, slmodel {iwasawa|killing|check-lie-triple|halfplane},
verify.  Structured output is UTF-8 JSON, one document per invocation; data
goes to stdout and diagnostics to stderr.  Exit status 0 on success, 1 on
domain errors and when the reader of stdout goes away, 2 on usage errors.
Each subcommand's module ``commands.<subcommand>`` declares its arguments
and runs the command (``run``), and a process imports only the module of the
command that argv names.  ``commands.match`` reads a well-formed call
without argparse; argparse, built from the same declarations, reads every
other argv and writes help, the version and usage errors.
"""

from __future__ import annotations

import os
import sys

from . import __version__
from .errors import LieFoliateError

# Each subcommand, in the order --help lists them, with its one-line help.
COMMANDS = {
    "rootsys": "root systems and Dynkin diagrams",
    "catalog": "browse the symmetric-space catalog",
    "parabolic": "parabolic subalgebra dimension data",
    "horospherical": "horospherical decomposition factors",
    "foliations": "enumerate hyperpolar foliation classes",
    "slmodel": "matrix-model computations in sl(n,R)",
    "verify": "run the invariant suite",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand's name.  The subparser of ``command``
    alone gets the arguments that its module ``commands.<command>`` declares,
    and its ``run`` becomes the parsed arguments' ``run``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="liefoliate",
        description="Restricted root systems, parabolic data, and hyperpolar foliation classes "
        "for symmetric spaces of noncompact type.",
        epilog="Space names: sl(m,R)/SL<m>, sl(m,C), sl(m,H), so(p,q)/SOo(p,q), so(m,C), "
        "so(m,H), sp(r,R), sp(r,C), sp(p,q), su(p,q), e6(6|2|-14|-26|C), e7(7|-5|-25|C), "
        "e8(8|-24|C), f4(4|-20|C), g2(2|C); display names like SL_5(R)/SO_5 also work.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == command:
            from .commands.argparser import add_arguments

            add_arguments(p, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = None
        if argv and argv[0] in COMMANDS:
            from .commands import match

            args = match(argv)
        if args is None:
            # The top-level options take no value, so the command is the first
            # argument that is not an option.  argparse also takes "--", "-",
            # "-1" or "-a b" as the command, and refuses it: no command's
            # arguments are needed.
            command = next((arg for arg in argv if not arg.startswith("-")), None)
            args = build_parser(command).parse_args(argv)
        return args.run(args)
    except LieFoliateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout went away.  Point stdout at devnull, so that
        # the interpreter's last flush cannot fail again (Python docs, "Note
        # on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
