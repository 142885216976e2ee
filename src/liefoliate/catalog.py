"""Catalog of irreducible symmetric spaces of noncompact type.

Each catalog entry records the restricted root system family, the rank and
the multiplicities of the simple roots (and of the doubled root for the
non-reduced family BC); the table is shipped as ``data/catalog.json``.  The
dimension of the centralizer k0 of a maximal flat in the isotropy algebra is
read off the multiplicities: 0 when all are 1 (a split real form), else unknown.
A space's Dynkin diagram comes from its family and rank, and dim M from the
per-type root counts of each length, and ``multiplicities`` from the simple
roots, so none builds a root; the full root list (``root_system``) is built
only for ``root_multiplicity``.  ``MultiplicityFunction`` and
``root_multiplicity`` live in ``rootsystem`` with that list.  No catalog
space has a rank above ``roots.MAX_RANK``.

Lookups accept either flattened ASCII identifiers such as ``sl(5,R)``,
``SL5``, ``SOo(5,2)``, ``su(3,1)``, ``e6(-14)`` or concrete display names
such as ``SL_5(R)/SO_5`` and ``Sp_{2,2}/Sp_2 Sp_2``.
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from functools import cached_property, lru_cache, partial
from itertools import groupby

from .errors import LieFoliateError
from .roots import MAX_RANK, POSITIVE_ROOT_COUNTS, DynkinDiagram, Family, expect, family_diagram, subdiagram_type


def __getattr__(name: str):
    """``MultiplicityFunction`` and ``root_multiplicity``, which users of the
    full root list call, from ``rootsystem`` on first use (PEP 562)."""
    if name not in ("MultiplicityFunction", "root_multiplicity"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import rootsystem

    return getattr(rootsystem, name)


class CatalogEntry(namedtuple("CatalogEntry", (
        "key ascii_doc display_doc ascii_fmt display_fmt family rank_doc fixed_rank mult_pattern "
        "mult_head mult_last mult_last_double mult_explicit notes"))):
    """One record of the shipped catalog table (possibly rank-parameterized).

    ``fixed_rank`` is an int or None; ``mult_head``, ``mult_last`` and
    ``mult_last_double`` are linear forms (a, b), meaning a n + b, or None;
    ``mult_explicit`` is a tuple of ints or None.
    """

    __slots__ = ()

    @property
    def dim_k0(self) -> int | None:
        """0 when every multiplicity form is the constant 1 (a split real form), else None."""
        forms = {self.mult_head, self.mult_last, self.mult_last_double, *(self.mult_explicit or ())}
        return 0 if forms <= {None, (0, 1), 1} else None


def _linear(form: tuple[int, int] | None, n: int | None) -> int | None:
    if form is None:
        return None
    a, b = form
    if a != 0 and n is None:
        raise LieFoliateError("entry requires a secondary parameter")
    return a * (n or 0) + b


@lru_cache(maxsize=1)
def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All records of the shipped catalog data file, in file order.

    The file is read through this module's loader, which also reads it out
    of a zip archive, as ``pkgutil.get_data`` does without its imports."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    raw = json.loads(__spec__.loader.get_data(path))

    def linear(form):
        return (form["a"], form["b"]) if form else None

    entries = []
    for rec in raw["entries"]:
        m = rec["mults"]
        entries.append(
            CatalogEntry(
                key=rec["key"],
                ascii_doc=rec["ascii_doc"],
                display_doc=rec["display_doc"],
                ascii_fmt=rec["ascii"],
                display_fmt=rec["display"],
                family=Family(rec["family"]),
                rank_doc=rec["rank_doc"],
                fixed_rank=rec["rank"],
                mult_pattern=m["pattern"],
                mult_head=linear(m["head"]),
                mult_last=linear(m["last"]),
                mult_last_double=linear(m["last_double"]),
                mult_explicit=tuple(m["explicit"]) if m["explicit"] else None,
                notes=tuple(rec["notes"]),
            )
        )
    return tuple(entries)


class SpaceDescriptor(namedtuple("SpaceDescriptor", "name display family rank simple_mults dim_k0 entry_key notes",
                                 defaults=((),))):
    """A concrete symmetric space: family, rank, and simple-root multiplicities.

    ``simple_mults`` holds one integer per simple root; for the BC family the
    last entry is the pair (m_alpha, m_2alpha).  No ``__slots__``: the cached
    properties live in the instance ``__dict__``.
    """

    def __new__(cls, *args, **kwargs) -> "SpaceDescriptor":
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.simple_mults, tuple) or len(self.simple_mults) != self.rank:
            raise LieFoliateError("the multiplicity vector must be a tuple whose length is the rank")
        return self

    @classmethod
    def _make(cls, iterable) -> "SpaceDescriptor":
        """Build through ``__new__``, so that ``_replace`` checks the fields too."""
        return cls(*iterable)

    def _simple(self, index: int) -> tuple[int, int]:
        """(m_alpha, m_2alpha) of the simple root alpha_index, index an int (not a bool) in 1..r."""
        if type(index) is not int or not 1 <= index <= self.rank:
            raise LieFoliateError(f"simple root index {index!r} is not an int in range 1..{self.rank}")
        entry = self.simple_mults[index - 1]
        return entry if isinstance(entry, tuple) else (entry, 0)

    def m_alpha(self, index: int) -> int:
        """Multiplicity of the simple root alpha_index (1-based)."""
        return self._simple(index)[0]

    def m_2alpha(self, index: int) -> int:
        """Multiplicity of 2*alpha_index, zero when that is not a root."""
        return self._simple(index)[1]

    @property
    def root_system(self) -> RootSystem:
        from .roots import build_root_system  # loads rootsystem, which only root lists need and whose cache keeps them

        return build_root_system(self.family, self.rank)

    @cached_property
    def diagram(self) -> DynkinDiagram:
        return family_diagram(self.family, self.rank)

    def span_counts(self, component: tuple[int, ...]) -> tuple[int, int]:
        """(positive roots, their multiplicity sum) spanned by a connected set of simple
        roots: the per-type count of each length, times the multiplicity of a
        simple root of that length, which is Weyl-conjugate to each of them."""
        kind = subdiagram_type(self.diagram, component)
        long, short, doubled = POSITIVE_ROOT_COUNTS[kind.family](kind.rank)
        return (long + short + doubled,
                long * self.m_alpha(kind.long) + short * self.m_alpha(kind.short) + doubled * self.m_2alpha(kind.short))

    @cached_property
    def diagram_is_path(self) -> bool:
        """Whether the diagram's edges are (i, i + 1) alone (A, B, C, BC, F4, G2)."""
        return {(e.i, e.j) for e in self.diagram.edges} == {(i, i + 1) for i in range(1, self.rank)}

    @cached_property
    def components(self) -> dict:
        """What ``parabolic`` keeps of this space: its ``_Component`` per connected component of a Phi met."""
        return {}

    @cached_property
    def orbits(self) -> SpaceOrbits:
        """What ``foliations`` keeps of this space: its PhiOrbits and records."""
        from .foliations import SpaceOrbits

        return SpaceOrbits(self)

    @cached_property
    def multiplicities(self) -> MultiplicityFunction:
        from .rootsystem import MultiplicityFunction

        return MultiplicityFunction.for_space(self)

    @cached_property
    def dimension(self) -> int:
        return space_dimension(self)

    def to_dict(self) -> dict:
        mults = [list(m) if isinstance(m, tuple) else m for m in self.simple_mults]
        return {
            "name": self.name,
            "display": self.display,
            "family": self.family.value,
            "rank": self.rank,
            "simple_mults": mults,
            "dim_k0": self.dim_k0,
            "dimension": self.dimension,
            "entry_key": self.entry_key,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpaceDescriptor":
        """Look the record's name up in the catalog, checking every other field."""
        from .readback import rebuilt

        return rebuilt(data, ("name",), catalog_lookup, "space record")


def space_dimension(space: SpaceDescriptor) -> int:
    """dim M = rank + sum of the multiplicities over the positive roots, by
    ``span_counts`` over the whole diagram.  Single edges join each length
    class of simple roots, so the multiplicities must agree across every one
    of them, else LieFoliateError."""
    try:
        m = space.m_alpha
    except AttributeError:
        expect(space, SpaceDescriptor)
        raise
    if any(e.lines == 1 and m(e.i) != m(e.j) for e in space.diagram.edges):
        raise LieFoliateError(f"{space.name}: simple roots of equal length carry different multiplicities")
    return space.rank + space.span_counts(tuple(range(1, space.rank + 1)))[1]


# One descriptor per (key, r, n) for the life of the process, shared by every
# spelling of the space with all that is cached on it.  Each key has one call
# site, whose display parameters m, p and q are functions of (r, n).  A call
# that raises is not cached and raises again.
@lru_cache(maxsize=None)
def _instantiate(key: str, r: int | None = None, n: int | None = None, m: int | None = None, p: int | None = None,
                 q: int | None = None) -> SpaceDescriptor:
    entry = next(e for e in catalog_entries() if e.key == key)
    rank = entry.fixed_rank if entry.fixed_rank is not None else r
    if rank > MAX_RANK:
        raise LieFoliateError(f"rank {rank} is too large: catalog spaces have rank at most {MAX_RANK}")
    fmt = {"r": rank, "n": n, "m": m, "p": p, "q": q}
    if entry.mult_explicit is not None:
        mults: list = list(entry.mult_explicit)
    else:
        head = _linear(entry.mult_head, n)
        last = _linear(entry.mult_last, n)
        mults = [head] * rank
        if last is not None:
            mults[-1] = last
    if entry.family is Family.BC:
        m2 = _linear(entry.mult_last_double, n)
        mults[-1] = (mults[-1], m2)
        if m2 not in (1, 3, 7):
            raise LieFoliateError(f"{key}: doubled-root multiplicity must be 1, 3 or 7")
    return SpaceDescriptor(
        name=entry.ascii_fmt % fmt,
        display=entry.display_fmt % fmt,
        family=entry.family,
        rank=rank,
        simple_mults=tuple(mults),
        dim_k0=0 if mults.count(1) == rank else None,
        entry_key=key,
        notes=entry.notes,
    )


def _normalize(name: str) -> str:
    # one call per character: a loop over them took about 0.2 µs more
    return (name.lower().replace(" ", "").replace("_", "").replace("{", "").replace("}", "").replace("\\", "")
            .replace("^", "").replace("\t", ""))


def _sl(m: int, letter: str) -> SpaceDescriptor:
    if m < 2:
        raise LieFoliateError(f"sl({m},{letter.upper()}): valid for m >= 2")
    return _instantiate("sl_" + letter.upper(), m - 1, None, m)


def _so_field(m: int, letter: str) -> SpaceDescriptor:
    """so(m,C) or so(m,H), by its field letter "c" or "h"."""
    if letter == "c" and m < 5:
        raise LieFoliateError("so(m,C): valid for m >= 5 (so(3,C) and so(4,C) reduce to other entries)")
    if m < 3:
        raise LieFoliateError("so(m,H): valid for m >= 3")
    return _instantiate(f"so_{letter.upper()}_{'odd' if m % 2 else 'even'}", m // 2, None, m)


def _sp(r: int, letter: str) -> SpaceDescriptor:
    if r < 2:
        f = letter.upper()
        raise LieFoliateError(f"sp(r,{f}): valid for r >= 2 (sp(1,{f}) is carried by sl(2,{f}))")
    return _instantiate("sp_" + letter.upper(), r)


# The refusal of a too small r,r form, by head: so(r,r) starts at r = 3, sp(r,r) and su(r,r) at 2.
_RR_REFUSALS = {
    "so": "so(r,r): valid for r >= 3",
    "sp": "sp(p,q): valid for p = q >= 2 or p > q >= 1",
    "su": "su(p,q): valid for p = q >= 2 or p > q >= 1 (su(1,1) is carried by sl(2,R))",
}


def _pair(head: str, p: int, q: int) -> SpaceDescriptor:
    """so(p,q), sp(p,q) or su(p,q), in either order, by its head "so", "sp" or "su".

    so refuses q < 1 before it looks at p = q, sp and su after; only so
    takes q = 1 apart, as the real hyperbolic space so(p,1)."""
    if p < q:
        p, q = q, p
    so = head == "so"
    if q < 1 and (so or p > q):
        raise LieFoliateError(f"{head}(p,q): indices must be positive")
    if so and q == 1:
        if p < 3:
            raise LieFoliateError(
                "so(p,1): valid for p >= 3 (the hyperbolic plane so(2,1) is carried by sl(2,R))"
            )
        return _instantiate("so_hyp", None, p - 1, p)
    if p == q:
        if p < (3 if so else 2):
            raise LieFoliateError(_RR_REFUSALS[head])
        return _instantiate(head + "_rr", p)
    return _instantiate(head + "_pq", q, p - q, None, p, q)


# The names catalog_lookup accepts, over the normalized query: a classical
# head, then the flattened form "(m,q)" or "(m,f)", f a field letter, or a
# display name read up to "/": "m(f)/...", "m,q" (then "/..." or the end) or
# "m" alone; or an exceptional letter, then "(tag)" or, as a display name,
# "tag".  Two-index names may be given in either order, and catalog_lookup
# checks a display name whole.  Integers are ASCII digits only (re.ASCII).
_NAME = re.compile(
    r"(?P<head>sl|soo?|sp|su)(?:\((?P<m>\d+),(?:(?P<q>\d+)|(?P<f>[rch]))\)$"
    r"|(?P<dm>\d+)(?:\((?P<df>[rch])\)/|,(?P<dq>\d+)(?:/|$)|$))"
    r"|(?P<letter>e6|e7|e8|f4|g2)(?:\((?P<tag>c|-?\d+)\)$|(?P<dtag>c|-?\d+)(?:/|$))",
    re.ASCII)

# The handler of each classical name, by its head and then its field letter
# or else the group that ends it: "q" or "dq" after a pair, "dm" after SL<m>
# alone.  It is called with the name's first integer and then its letter or
# the integer that ends it.  The pairs of so (also spelled SOo), sp and su all
# go to _pair, told their head; so(m,C) and so(m,H) go to _so_field.
_CLASSICAL = {
    "sl": {"dm": lambda m, _: _sl(m, "r"), "r": _sl, "c": _sl, "h": _sl},
    "so": {"c": _so_field, "h": _so_field, "q": partial(_pair, "so")},
    "soo": dict.fromkeys(("q", "dq"), partial(_pair, "so")),
    "sp": {"r": _sp, "c": _sp, "q": partial(_pair, "sp"), "dq": partial(_pair, "sp")},
    "su": dict.fromkeys(("q", "dq"), partial(_pair, "su")),
}


def _exceptional(letter: str, tag: str) -> SpaceDescriptor:
    # the 17 exceptional spaces are the entries whose flattened name, such as "e6(-14)", holds no format
    keys = {e.ascii_fmt.lower(): e.key for e in catalog_entries() if "%" not in e.ascii_fmt}
    key = keys.get(f"{letter}({tag})")
    if key is None:
        valid = sorted(name[3:-1] for name in keys if name.startswith(letter))  # each letter has two characters
        raise LieFoliateError(f"{letter}({tag}): valid tags are {', '.join(valid)}")
    return _instantiate(key)


def _space(m: re.Match) -> SpaceDescriptor | None:
    """The space a match of ``_NAME`` names, or None when its head does not take its form.

    The group that ends the match holds the exceptional tag, the field
    letter ("f", "df") or the last integer."""
    last = m.lastgroup
    if last in ("tag", "dtag"):
        return _exceptional(m["letter"], m[last])
    value = m[last]
    letter = last in ("f", "df")
    handler = _CLASSICAL[m["head"]].get(value if letter else last)
    return handler and handler(int(m["m"] or m["dm"]), value if letter else int(value))


def _pq_swapped(query: str, m: re.Match) -> str:
    """The normalized display name ``query``, matched as ``m``, with its p and q
    swapped for so(p,q), su(p,q) and sp(p,q) (else unchanged): in the pair, and
    after "/" where both are named there.  The display name SO^o_{p,1}/SO_p of
    so(p,1) omits the trivial SO_1, so its swap is SO^o_{1,p}/SO_p."""
    p, q = m["dm"], m["dq"]
    if not q:
        return query
    runs = ["".join(g) for _, g in groupby(query[m.end():], str.isdecimal)]  # m ends with the "/"
    if p in runs and q in runs:
        runs = [{p: q, q: p}.get(run, run) for run in runs]
    return f"{query[:m.start('dm')]}{q},{p}/{''.join(runs)}"


_GRAMMAR_HELP = (
    "sl(m,R)|SL<m>, sl(m,C), sl(m,H) for m >= 2; so(p,q)|SOo(p,q) with q=1 (p>=3), "
    "p=q>=3, or p>q>=2; so(m,C) m>=5; so(m,H) m>=3; sp(r,R), sp(r,C) r>=2; sp(p,q); "
    "su(p,q); e6(6|2|-14|-26|C), e7(7|-5|-25|C), e8(8|-24|C), f4(4|-20|C), g2(2|C); "
    "display names such as SL_5(R)/SO_5 also resolve"
)


def catalog_lookup(name: str) -> SpaceDescriptor:
    """Resolve a symmetric-space name to its catalog descriptor.

    A name containing "/" must be the display name of the space it resolves
    to.  Unknown names are rejected with a summary of the valid grammar.
    Each accepted spelling is kept with its descriptor for the life of the
    process, or until ``liefoliate.clear_caches()``.
    """
    if type(name) is not str:
        if not isinstance(name, str):
            raise LieFoliateError(f"symmetric space name {name!r} is not a string")
        name = str.__str__(name)  # a str subclass may hash as it likes; the memo keys plain strings
    return _lookup(name)


# One entry per accepted spelling, keyed by the exact string, so a repeated
# name skips the grammar; a refused name raises and is not kept.
@lru_cache(maxsize=None)
def _lookup(name: str) -> SpaceDescriptor:
    query = _normalize(name)
    m = _NAME.match(query)
    try:
        space = m and _space(m)
    except LieFoliateError:
        raise
    except (ValueError, OverflowError):  # int() past its digit limit, or a rank past a list's size
        raise LieFoliateError(f"an integer in symmetric space name {name!r} is too large") from None
    if space is None:
        raise LieFoliateError(f"unknown symmetric space {name!r}; valid names: {_GRAMMAR_HELP}")
    if "/" in query and _normalize(space.display) not in (query, _pq_swapped(query, m)):
        raise LieFoliateError(f"{name!r} is not the display name of {space.name}, {space.display}")
    return space
