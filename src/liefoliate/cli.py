"""Command-line front end.

Subcommands: rootsys {show|dynkin}, catalog list, parabolic, horospherical,
foliations enumerate, slmodel {iwasawa|killing|check-lie-triple|halfplane},
verify.  Structured output is UTF-8 JSON, one document per invocation; data
goes to stdout and diagnostics to stderr.  Exit status 0 on success, 1 on
domain errors and when the reader of stdout goes away, 2 on usage errors.
Each subcommand's module ``commands.<subcommand>`` declares its arguments
and runs the command (``run``), and a process imports only the module of the
command that argv names.  ``main`` answers ``liefoliate --version`` itself,
and ``commands.match`` reads a well-formed call, both without argparse;
argparse, built by ``commands.argparser`` from the same declarations, reads
every other argv and writes help and usage errors.
"""

import gc
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


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` names and return the exit status.

    A call without ``argv`` is the process's entry (the console script and
    ``python -m liefoliate.cli``): it reads ``sys.argv`` and, once the
    answer is out or the call has failed, freezes the heap (``gc.freeze``),
    so that the interpreter's shutdown collections skip every object alive
    then and the OS takes the memory back.  A program that keeps running
    passes ``argv``, which leaves its collector as it found it."""
    if argv is None:
        try:
            return main(sys.argv[1:])
        finally:
            gc.freeze()
    try:
        try:
            if argv == ["--version"]:
                # what argparse's version action prints, unwrapped
                print(f"liefoliate {__version__}")
                return 0
            args = None
            if argv and argv[0] in COMMANDS:
                from .commands import match

                args = match(argv)
            if args is None:
                from .commands.argparser import build_parser

                # The top-level options take no value, so the command is the
                # first argument that is not an option.  argparse also takes
                # "--", "-", "-1" or "-a b" as the command, and refuses it: no
                # command's arguments are needed.
                command = next((arg for arg in argv if not arg.startswith("-")), None)
                args = build_parser(COMMANDS, command).parse_args(argv)
            return args.run(args)
        finally:
            # A short answer, or the help that argparse printed before its
            # SystemExit, still sits in stdout's buffer: write it here, so that
            # a failed write ends below and not at the interpreter's exit.
            sys.stdout.flush()
    except (LieFoliateError, OSError) as exc:
        if isinstance(exc, OSError):
            # A write to stdout failed: its reader went away or, say, its disk
            # is full.  Point stdout at devnull, so that the interpreter's last
            # flush cannot fail again (Python docs, "Note on SIGPIPE").
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that went away is told by the exit status alone
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
