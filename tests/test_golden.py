"""Golden CLI outputs: the stdout of a fixed list of calls, byte for byte.

``golden/cli_digests.json`` maps each call to the sha256 and length of its
UTF-8 stdout.  The matrix-model commands and ``verify`` are left out because
their floating-point digits depend on the BLAS build.  After an intended
output change, list it in CHANGES.md and rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from liefoliate.cli import main

DIGESTS = Path(__file__).resolve().parent / "golden" / "cli_digests.json"

_FOLIATION_SPACES = (
    "SL5", "SL12", "e8(8)", "e6(-14)", "f4(-20)", "su(7,3)", "sp(4,2)",
    "so(9,4)", "so(12,C)", "so(10,H)", "g2(C)", "so(4,4)", "e6(6)",
)
_PARABOLIC_CASES = (
    ("SL5", "1,3"), ("su(4,2)", "1"), ("e6(-14)", "1,2"), ("f4(4)", "2,3"),
    ("so(7,3)", "2"), ("e8(8)", "1,4,6,8"),
)
_ROOT_SYSTEMS = (
    ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("BC", 3), ("BC", 1),
    ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2),
)

COMMANDS = (
    *(("foliations", "enumerate", "--space", s, "--format", f)
      for s in _FOLIATION_SPACES for f in ("table", "json")),
    ("foliations", "enumerate", "--space", "e7(-25)", "--codim", "1"),
    ("foliations", "enumerate", "--space", "e7(-25)", "--codim", "1", "--format", "json"),
    ("foliations", "enumerate", "--space", "SL5", "--include-trivial", "--format", "json"),
    *((cmd, "--space", s, "--phi", phi, "--format", f)
      for cmd in ("parabolic", "horospherical")
      for s, phi in _PARABOLIC_CASES for f in ("table", "json")),
    ("catalog", "list"),
    ("catalog", "list", "--format", "json"),
    *(("rootsys", "show", "--family", fam, "--rank", str(r), "--format", f)
      for fam, r in _ROOT_SYSTEMS for f in ("table", "json")),
    *(("rootsys", "dynkin", "--family", fam, "--rank", str(r), "--format", f)
      for fam, r in _ROOT_SYSTEMS for f in ("table", "json", "dot")),
)


def _key(argv) -> str:
    return " ".join(argv)


def _stdout(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode("utf-8")


def _digest(out: bytes) -> dict:
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_golden_file_lists_exactly_the_commands(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_stdout_matches_golden_digest(golden, argv):
    code, out = _stdout(argv)
    assert code == 0
    assert _digest(out) == golden[_key(argv)]


if __name__ == "__main__":
    table = {}
    for argv in COMMANDS:
        code, out = _stdout(argv)
        if code:
            sys.exit(f"{_key(argv)} exited {code}")
        table[_key(argv)] = _digest(out)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
