"""Golden catalog lookups: the outcome of every name of a fixed grid.

The grid holds, for each head of ``HEADS``, the forms ``<m>``, ``(m,F)``
for F in ``FIELDS`` and ``(p,q)``, for m, p and q in 0..8; the display
spelling of every pair and field entry at those indices, each pair also
with its two indices swapped in the pair alone; and both names of each
entry that takes no parameter (the exceptional ones).  A name's outcome
is the entry key, rank, ``simple_mults`` and display of the descriptor it
resolves to, or the exact message of its refusal.

``golden/catalog_name_digests.json`` maps each group of names (a head, a
display head or "fixed") to its count and the sha256 of its outcomes, one
JSON line per name, so that a failure names the group.  Each group is
checked cold, right after ``clear_caches()``, and then warm.  After an
intended change of outcome, list it in CHANGES.md and rewrite the file with

    PYTHONPATH=src python tests/test_catalog_golden.py
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from liefoliate import clear_caches
from liefoliate.catalog import catalog_entries, catalog_lookup
from liefoliate.errors import LieFoliateError

DIGESTS = Path(__file__).resolve().parent / "golden" / "catalog_name_digests.json"

HEADS = ("sl", "so", "soo", "SOo", "sp", "su", "SL", "SO", "Sp", "SU", "e6", "f4")
FIELDS = ("R", "C", "H", "Q", "r", "c", "h", "1")
INDICES = range(9)


def _display_spellings(entry) -> list[str]:
    """The display name of a parameterized entry at each index (pair) of the grid, and each pair swapped in its
    subscript alone: SU_{2,4}/S(U_4 U_2), or SO^o_{1,p}/SO_p for so(p,1), whose display omits the trivial SO_1."""
    fmt = entry.display_fmt
    if "%(p)d" in fmt:
        names = [fmt % {"p": p, "q": q} for p in INDICES for q in INDICES]
    else:
        names = [fmt % {"r": v, "m": v} for v in INDICES]
    return names + [re.sub(r"_\{(\d+),(\d+)\}", r"_{\2,\1}", name) for name in names if "_{" in name]


def catalog_names() -> dict[str, list[str]]:
    """The grid's names by group, each group in a fixed order without repeats."""
    groups = {head: [f"{head}{m}" for m in INDICES]
              + [f"{head}({m},{f})" for f in FIELDS for m in INDICES]
              + [f"{head}({p},{q})" for p in INDICES for q in INDICES] for head in HEADS}
    for entry in catalog_entries():
        group = "fixed" if "%" not in entry.ascii_fmt else "display " + entry.ascii_fmt.partition("(")[0]
        names = [entry.ascii_fmt, entry.display_fmt] if group == "fixed" else _display_spellings(entry)
        groups.setdefault(group, []).extend(names)
    return {group: list(dict.fromkeys(names)) for group, names in groups.items()}


def outcome(name: str) -> list | str:
    try:
        space = catalog_lookup(name)
    except LieFoliateError as exc:
        return str(exc)
    mults = [list(m) if isinstance(m, tuple) else m for m in space.simple_mults]
    return [space.entry_key, space.rank, mults, space.display]


def digest(names: list[str]) -> dict:
    lines = "".join(json.dumps([name, outcome(name)], ensure_ascii=False) + "\n" for name in names)
    return {"names": len(names), "sha256": hashlib.sha256(lines.encode("utf-8")).hexdigest()}


NAMES = catalog_names()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_golden_file_lists_exactly_the_groups(golden):
    assert sorted(golden) == sorted(NAMES)


@pytest.mark.parametrize("group", NAMES)
def test_every_name_of_the_group_has_its_golden_outcome(golden, group):
    clear_caches()
    for _ in ("cold", "warm"):
        assert digest(NAMES[group]) == golden[group]


if __name__ == "__main__":
    table = {group: digest(names) for group, names in NAMES.items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    accepted = sum(not isinstance(outcome(name), str) for names in NAMES.values() for name in names)
    print(f"wrote {len(table)} groups, {sum(map(len, NAMES.values()))} names ({accepted} accepted) to {DIGESTS}",
          file=sys.stderr)
