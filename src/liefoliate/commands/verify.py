"""``verify``."""

import sys

# The keys of verify.SUITES, sorted.  Importing verify for them would load
# catalog, parabolic and foliations to parse the arguments; a test checks
# that the two agree.
_SUITES = ("all", "catalog", "foliations", "parabolic", "rootsys", "slmodel")


OPTIONS = {"--suite": {"default": "all", "choices": _SUITES}}


def run(args) -> int:
    from ..verify import timed_suite

    failed = 0
    for (name, ok, detail), seconds in timed_suite(args.suite):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)
        print(f"{seconds:8.3f} s  {name}", file=sys.stderr, flush=True)
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} criterion/criteria failed", file=sys.stderr)
        return 1
    return 0
