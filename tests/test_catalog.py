"""Catalog lookups, multiplicity extension, and the dimension calculus."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liefoliate

from liefoliate import catalog
from liefoliate.catalog import (
    SpaceDescriptor,
    catalog_entries,
    catalog_lookup,
    root_multiplicity,
    space_dimension,
)
from liefoliate.errors import LieFoliateError
from liefoliate.roots import MAX_RANK, Family, Root, build_root_system, inner, reflect

SRC = Path(liefoliate.__file__).resolve().parent.parent


def test_entry_table_is_complete():
    entries = catalog_entries()
    assert len(entries) == 33
    assert len({e.key for e in entries}) == 33


def test_lookup_spec_examples():
    d = catalog_lookup("SL_5(R)/SO_5")
    assert d.family.value == "A" and d.rank == 4
    assert d.simple_mults == (1, 1, 1, 1)

    d = catalog_lookup("Sp_{2,2}/Sp_2 Sp_2")
    assert d.family.value == "C" and d.simple_mults == (4, 3)

    d = catalog_lookup("F_4^{-20}/Spin_9")
    assert d.family.value == "BC" and d.rank == 1
    assert d.simple_mults == ((8, 7),)


def test_lookup_ascii_shorthands():
    assert catalog_lookup("SL5").name == "sl(5,R)"
    assert catalog_lookup("sl(5,r)").name == "sl(5,R)"
    assert catalog_lookup("SOo(5,2)").name == "so(5,2)"
    assert catalog_lookup("so(2,5)").name == "so(5,2)"  # order-insensitive
    assert catalog_lookup("su(3,1)").family.value == "BC"
    assert catalog_lookup("e6(-26)").family.value == "A"
    assert catalog_lookup("E_6^{-26}/F_4") == catalog_lookup("e6(-26)")


def test_lookup_display_names_round_trip():
    names = [
        "sl(4,R)", "sl(3,C)", "sl(3,H)", "so(6,1)", "so(7,C)", "so(5,2)",
        "sp(3,R)", "sp(2,C)", "sp(2,2)", "su(2,2)", "so(4,H)", "so(3,3)",
        "so(6,C)", "su(4,1)", "so(5,H)", "sp(3,1)", "e6(-14)", "f4(-20)",
        "e7(-25)", "e8(8)", "g2(C)",
    ]
    for name in names:
        d = catalog_lookup(name)
        assert catalog_lookup(d.name) == d
        assert catalog_lookup(d.display) == d


@pytest.mark.parametrize("name", ["SL_5(R)/SO_7", "E_6^6/F_4", "e66/xyz", "SU_{4,2}/S(U_1 U_9)"])
def test_display_name_must_name_its_own_space(name):
    with pytest.raises(LieFoliateError, match="display name"):
        catalog_lookup(name)


def test_display_name_indices_may_be_swapped_throughout():
    su = catalog_lookup("su(4,2)")
    assert catalog_lookup("SU_{2,4}/S(U_2 U_4)") is su
    assert catalog_lookup("SO^o_{2,5}/SO_2 SO_5") is catalog_lookup("so(5,2)")
    assert catalog_lookup("Sp_{1,3}/Sp_1 Sp_3") is catalog_lookup("sp(3,1)")
    with pytest.raises(LieFoliateError):
        catalog_lookup("SU_{2,4}/S(U_4 U_2)")
    # so(p,1)'s display name omits the trivial SO_1, so only the pair is swapped
    assert catalog_lookup("SO^o_{1,3}/SO_3") is catalog_lookup("so(3,1)")
    with pytest.raises(LieFoliateError, match="not the display name of so\\(3,1\\)"):
        catalog_lookup("SO^o_{1,3}/SO_1")


def test_unknown_name_lists_grammar():
    with pytest.raises(LieFoliateError, match="valid names"):
        catalog_lookup("sl(5,Q)")
    with pytest.raises(LieFoliateError, match="valid names"):
        catalog_lookup("totally-bogus")


def test_lookup_returns_one_descriptor_per_space():
    d = catalog_lookup("SL5")
    assert catalog_lookup("sl(5,R)") is d
    assert catalog_lookup("SL_5(R)/SO_5") is d
    assert catalog_lookup("so(7,2)") is catalog_lookup("SOo(2,7)")
    assert catalog_lookup("so(7,2)") is not catalog_lookup("so(8,2)")
    assert catalog_lookup("so(7,2)") != catalog_lookup("so(8,2)")


@pytest.mark.parametrize("name", ["sl(5,Q)", "so(2,1)", "e6(5)", "sp(1,R)", None, 5, "", "SL1002",
                                  pytest.param("SL" + "9" * 5000, id="SL9...9"), "SL_5(R)/SO_7",
                                  "SU_{2,4}/S(U_4 U_2)", "SO^o_{1,3}/SO_1", pytest.param(b"SL5", id="bytes"),
                                  pytest.param(["SL5"], id="list"), pytest.param({}, id="dict")])
def test_invalid_name_raises_on_every_call(name):
    catalog_lookup("SL5")
    kept = catalog._lookup.cache_info().currsize
    messages = {outcome(catalog_lookup, name) for _ in range(3)}  # a TypeError from hashing would escape
    assert len(messages) == 1 and isinstance(messages.pop(), str)
    assert catalog._lookup.cache_info().currsize == kept  # a refused name is not kept


@pytest.mark.parametrize(
    "name,message",
    [
        ("so(2,1)", "sl\\(2,R\\)"),
        ("so(2,2)", "valid"),
        ("sp(1,R)", "valid"),
        ("sp(1,1)", "valid"),
        ("su(1,1)", "valid"),
        ("so(3,C)", "valid"),
        ("so(4,C)", "valid"),
        ("sl(1,R)", "valid"),
        ("so(2,H)", "valid"),
        ("e6(5)", "valid tags"),
        ("g2(-14)", "valid tags"),
    ],
)
def test_out_of_range_parameters_rejected(name, message):
    with pytest.raises(LieFoliateError, match=message):
        catalog_lookup(name)


# The messages of the hand-written tables these lookups replaced, word for word.
@pytest.mark.parametrize(
    "name,message",
    [
        ("e6(1)", "e6(1): valid tags are -14, -26, 2, 6, c"),
        ("e7(1)", "e7(1): valid tags are -25, -5, 7, c"),
        ("e8(1)", "e8(1): valid tags are -24, 8, c"),
        ("f4(1)", "f4(1): valid tags are -20, 4, c"),
        ("g2(1)", "g2(1): valid tags are 2, c"),
        ("sp(1,R)", "sp(r,R): valid for r >= 2 (sp(1,R) is carried by sl(2,R))"),
        ("sp(1,C)", "sp(r,C): valid for r >= 2 (sp(1,C) is carried by sl(2,C))"),
        ("Sp_1(C)/Sp_1", "sp(r,C): valid for r >= 2 (sp(1,C) is carried by sl(2,C))"),
    ],
)
def test_rejection_messages_are_exact(name, message):
    with pytest.raises(LieFoliateError) as excinfo:
        catalog_lookup(name)
    assert str(excinfo.value) == message


def unknown_message(name):
    return f"unknown symmetric space {name!r}; valid names: {catalog._GRAMMAR_HELP}"


# Names that stop short of, or run past, the patterns of their head, and names
# with no head at all.
@pytest.mark.parametrize("name", ["sl5(R)", "sl(5,R)/SO_5", "soo5,2x", "e6-14x", "so(5,Q)", "su5",
                                  "", "s", "x5", "/sl5"])
def test_names_outside_every_pattern_are_unknown(name):
    with pytest.raises(LieFoliateError) as excinfo:
        catalog_lookup(name)
    assert str(excinfo.value) == unknown_message(name)


# \d would also match these digits (Arabic-Indic 5 and 6, fullwidth 5).
@pytest.mark.parametrize("name", ["sl\u0665", "so(\u0665,2)", "SL_\u0665(R)/SO_\u0665", "e6(\u0666)", "SL\uff15"])
def test_names_take_ascii_digits_only(name):
    with pytest.raises(LieFoliateError) as excinfo:
        catalog_lookup(name)
    assert str(excinfo.value) == unknown_message(name)


# The name patterns and their handlers, in the order the lookup once tried
# them as one flat list: the reference that the one grammar must agree with.
PATTERN_ORDER = (
    r"^sl(\d+)$", r"^sl\((\d+),([rch])\)$", r"^sl(\d+)\(([rch])\)/",
    r"^soo?\((\d+),(\d+)\)$", r"^soo(\d+),(\d+)(/|$)", r"^so\((\d+),c\)$", r"^so(\d+)\(c\)/",
    r"^so\((\d+),h\)$", r"^so(\d+)\(h\)/",
    r"^sp\((\d+),([rc])\)$", r"^sp(\d+)\(([rc])\)/", r"^sp\((\d+),(\d+)\)$", r"^sp(\d+),(\d+)(/|$)",
    r"^su\((\d+),(\d+)\)$", r"^su(\d+),(\d+)(/|$)",
    r"^(e6|e7|e8|f4|g2)\((c|-?\d+)\)$", r"^(e6|e7|e8|f4|g2)(c|-?\d+)(/|$)",
)
_HANDLERS = (
    lambda m: catalog._sl(int(m[1]), "r"), *[lambda m: catalog._sl(int(m[1]), m[2])] * 2,
    *[lambda m: catalog._pair("so", int(m[1]), int(m[2]))] * 2,
    *[lambda m: catalog._so_field(int(m[1]), "c")] * 2, *[lambda m: catalog._so_field(int(m[1]), "h")] * 2,
    *[lambda m: catalog._sp(int(m[1]), m[2])] * 2, *[lambda m: catalog._pair("sp", int(m[1]), int(m[2]))] * 2,
    *[lambda m: catalog._pair("su", int(m[1]), int(m[2]))] * 2, *[lambda m: catalog._exceptional(m[1], m[2])] * 2,
)
REFERENCE = tuple((re.compile(source, re.ASCII), handler) for source, handler in zip(PATTERN_ORDER, _HANDLERS))


def reference_display_names(display):
    """A display name normalized, and the same with p and q swapped for so(p,q), su(p,q) and sp(p,q):
    throughout, but for so(p,1), whose display name omits the trivial SO_1 and swaps its pair alone."""
    name = catalog._normalize(display)
    pair = re.match(r"(soo|su|sp)(\d+),(\d+)/(.*)", name)
    if not pair:
        return name, name
    head, p, q, rest = pair.groups()
    if (head, q) != ("soo", "1"):
        rest = re.sub(r"\d+", lambda t: {p: q, q: p}.get(t[0], t[0]), rest)
    return name, f"{head}{q},{p}/{rest}"


def trial_lookup(name):
    """catalog_lookup by the ordered trial of every pattern of REFERENCE."""
    query = catalog._normalize(name)
    for pattern, handler in REFERENCE:
        m = pattern.match(query)
        if m:
            try:
                space = handler(m)
            except LieFoliateError:
                raise
            except (ValueError, OverflowError):
                raise LieFoliateError(f"an integer in symmetric space name {name!r} is too large") from None
            if "/" in query and query not in reference_display_names(space.display):
                raise LieFoliateError(f"{name!r} is not the display name of {space.name}, {space.display}")
            return space
    raise LieFoliateError(unknown_message(name))


def outcome(lookup, name):
    try:
        return lookup(name)
    except LieFoliateError as exc:
        return str(exc)


_HEADS = st.sampled_from(["sl", "SL", "so", "soo", "SOo", "SO^o", "sp", "Sp", "su", "SU", "e6", "E_6^", "e7", "e8",
                          "E_8^", "f4", "F_4^", "g2", "G_2^", "s", "x", ""])
_SMALL = st.integers(0, 12).map(str)
_PARTS = st.one_of(_SMALL, _SMALL, st.integers(0, 1100).map(str), st.sampled_from(
    ["r", "c", "h", "R", "C", "H", "-14", "-26", "-5", "-25", "-24", "-20", "+2", "-0", "\u0665", "1\u0666"]))
_TAILS = st.one_of(st.just(""), st.sampled_from(["/", "/SO_5", "/SO_4", "/F_4", "/Spin_10 U_1", "/S(U_4 U_2)",
                                                 "/Sp_2 Sp_2", "/SO_2 SO_5", "/SU_3", "/E_7 Sp_1"]),
                   st.text(max_size=8).map("/".__add__))
_FORMS = st.sampled_from(["({},{})", "{}({})", "{},{}", "{}"])
_BUILT = st.builds(lambda head, form, a, b, tail: head + form.format(a, b) + tail, _HEADS, _FORMS, _PARTS, _PARTS,
                   _TAILS)
_KNOWN = st.sampled_from(["SL7", "sl(3,C)", "sl(3,H)", "SOo(2,7)", "so(6,1)", "so(3,3)", "so(7,C)", "so(6,C)",
                          "so(4,H)", "so(5,H)", "sp(3,R)", "sp(2,C)", "sp(2,2)", "sp(3,1)", "su(2,2)", "su(4,1)",
                          "e6(-14)", "e7(-25)", "e8(8)", "f4(-20)", "g2(C)"]).flatmap(
    lambda name: st.sampled_from([name, catalog_lookup(name).name, catalog_lookup(name).display]))
_MUTATED = st.builds(lambda name, i, ch: name[:i % len(name)] + ch + name[i % len(name) + 1:],
                     _KNOWN, st.integers(0, 40), st.sampled_from(list("0123456789,()/_ ^{}rchRCH-") + ["", "\u0665"]))
_NAMES = st.one_of(_BUILT, _BUILT, _KNOWN, _MUTATED, _MUTATED,
                   st.text(alphabet="slopuecfgh2345678-(),/_{}^RCH ", max_size=14), st.text(max_size=10))


@settings(max_examples=600, deadline=None)
@given(_NAMES)
def test_lookup_by_head_agrees_with_the_trial_of_every_pattern(name):
    expected = outcome(trial_lookup, name)
    got = outcome(catalog_lookup, name)
    assert got is expected if isinstance(expected, SpaceDescriptor) else got == expected


def test_a_lookup_makes_one_match(monkeypatch):
    names = ["e8(-24)", "E_8^{-24}/E_7 Sp_1", "SL5", "su(4,2)", "SU_{2,4}/S(U_2 U_4)", "so(7,H)"]
    refused = ["sl(5,Q)", "", "SU_{2,4}/S(U_4 U_2)"]
    for name in names + refused:  # the catalog file and exceptional tags, read once per process
        outcome(catalog_lookup, name)
    catalog._lookup.cache_clear()
    matched = []

    class Counting:
        def match(self, query):
            matched.append(query)
            return pattern.match(query)

    pattern = catalog._NAME
    monkeypatch.setattr(catalog, "_NAME", Counting())
    for name in names:
        matched.clear()
        catalog_lookup(name)
        assert matched == [catalog._normalize(name)], name
        matched.clear()
        catalog_lookup(name)
        assert matched == [], name
    for name in refused:
        for _ in range(2):
            matched.clear()
            outcome(catalog_lookup, name)
            assert matched == [catalog._normalize(name)], name


def _spellings(space):
    """The ASCII name, the SL<m> or SOo alias where the space has one, its display
    name and the display name with p and q swapped: throughout, but for so(p,1),
    whose display name SO^o_{p,1}/SO_p omits the trivial SO_1 and swaps its pair alone."""
    spellings = [space.name, space.display]
    if alias := re.fullmatch(r"sl\((\d+),R\)", space.name):
        spellings.append(f"SL{alias[1]}")
    if alias := re.fullmatch(r"so(\(\d+,\d+\))", space.name):
        spellings.append(f"SOo{alias[1]}")
    if pair := re.match(r"(SO\^o|SU|Sp)_\{(\d+),(\d+)\}/(.*)", space.display):
        head, p, q, rest = pair.groups()
        if (head, q) != ("SO^o", "1"):
            rest = re.sub(r"\d+", lambda t: {p: q, q: p}.get(t[0], t[0]), rest)
        spellings.append(f"{head}_{{{q},{p}}}/{rest}")
    return spellings


def test_every_spelling_of_every_instance_returns_the_one_descriptor():
    from test_invariants import SPACES

    for space in SPACES:
        interned = catalog_lookup(space.name)
        assert interned == space
        for spelling in _spellings(space):
            assert catalog_lookup(spelling) is interned, spelling
    assert {len(_spellings(space)) for space in SPACES} == {2, 3, 4}


def test_clear_caches_makes_the_next_lookup_build_a_new_equal_descriptor():
    before = catalog_lookup("SU_{2,4}/S(U_2 U_4)")
    sl5 = [catalog_lookup(name) for name in ("SL5", "sl(5,R)", "SL_5(R)/SO_5")]
    assert sl5[0] is sl5[1] is sl5[2]
    liefoliate.clear_caches()
    assert catalog._lookup.cache_info().currsize == 0
    after = catalog_lookup("SU_{2,4}/S(U_2 U_4)")
    assert after is not before and after == before
    assert catalog_lookup("su(4,2)") is after
    again = catalog_lookup("SL5")
    assert again is not sl5[0] and again == sl5[0]


def test_a_str_subclass_is_looked_up_by_its_plain_value():
    class Unhashable(str):
        __hash__ = None

    assert catalog_lookup(Unhashable("SL_5(R)/SO_5")) is catalog_lookup("SL5")
    with pytest.raises(LieFoliateError, match="unknown symmetric space 'sl5q'"):
        catalog_lookup(Unhashable("sl5q"))


# Independent oracle: classical closed-form dimensions of these spaces.
#   sl(m,R): (m-1)(m+2)/2      sl(m,C): m^2-1       sl(m,H): (m-1)(2m+1)
#   so(p,q): pq                so(m,C): m(m-1)/2    so(m,H): m(m-1)
#   sp(r,R): r(r+1)            sp(r,C): r(2r+1)     sp(p,q): 4pq
#   su(p,q): 2pq               plus the exceptional table
CLOSED_FORM_DIMS = {
    "sl(2,R)": 2, "sl(5,R)": 14, "sl(3,C)": 8, "sl(4,C)": 15, "sl(3,H)": 14,
    "e6(-26)": 26,
    "so(3,1)": 3, "so(4,1)": 4, "so(8,1)": 8,
    "so(5,C)": 10, "so(7,C)": 21, "so(6,C)": 15, "so(8,C)": 28,
    "so(3,2)": 6, "so(5,2)": 10, "so(6,3)": 18, "so(3,3)": 9, "so(4,4)": 16,
    "sp(2,R)": 6, "sp(3,R)": 12, "sp(2,C)": 10, "sp(2,2)": 16, "sp(3,3)": 36,
    "su(2,2)": 8, "su(3,3)": 18, "so(4,H)": 12, "so(6,H)": 30,
    "e7(-25)": 54,
    "e6(6)": 42, "e6(C)": 78, "e7(7)": 70, "e7(C)": 133, "e8(8)": 128,
    "e8(C)": 248, "f4(4)": 28, "f4(C)": 52, "e6(2)": 40, "e7(-5)": 64,
    "e8(-24)": 112, "g2(2)": 8, "g2(C)": 14,
    "su(2,1)": 4, "su(3,1)": 6, "su(4,2)": 16,
    "so(3,H)": 6, "so(5,H)": 20, "sp(2,1)": 8, "sp(3,1)": 12, "sp(4,2)": 32,
    "e6(-14)": 32, "f4(-20)": 16,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_DIMS))
def test_space_dimension_against_closed_forms(name):
    space = catalog_lookup(name)
    assert space_dimension(space) == CLOSED_FORM_DIMS[name]


def test_sl5_dimension_is_symmetric_traceless_count():
    # dim M equals the number of independent symmetric traceless 5x5 entries
    assert space_dimension(catalog_lookup("SL5")) == 5 * 6 // 2 - 1 == 14


def test_hyperbolic_space_dimensions():
    # SU_{n,1}/S(U_n U_1) = CH^n has real dimension 2n
    for n in (2, 3, 5):
        assert space_dimension(catalog_lookup(f"su({n},1)")) == 2 * n
    # SO^o_{n+1,1}/SO_{n+1} = RH^{n+1}
    for m in (3, 4, 7):
        assert space_dimension(catalog_lookup(f"so({m},1)")) == m


def test_root_multiplicity_examples():
    sl5 = catalog_lookup("SL5")
    assert root_multiplicity(sl5, Root((2, 0, -2, 0, 0))) == 1
    so52 = catalog_lookup("so(5,2)")  # B_2 mults (1,3)
    assert root_multiplicity(so52, Root((2, 0))) == 3
    assert root_multiplicity(so52, Root((2, -2))) == 1
    su42 = catalog_lookup("su(4,2)")  # BC_2 mults (2,(4,1))
    assert root_multiplicity(su42, Root((4, 0))) == 1
    assert root_multiplicity(su42, Root((2, 0))) == 4
    assert root_multiplicity(su42, Root((2, 2))) == 2


def test_root_multiplicity_rejects_non_roots():
    sl5 = catalog_lookup("SL5")
    with pytest.raises(LieFoliateError, match="not a restricted root"):
        root_multiplicity(sl5, Root((2, 2, 0, 0, 0)))


@pytest.mark.parametrize(
    "name",
    ["sl(4,R)", "so(5,2)", "su(4,2)", "sp(3,2)", "e6(-14)", "f4(-20)", "g2(C)", "e8(-24)"],
)
def test_multiplicity_is_weyl_invariant(name):
    space = catalog_lookup(name)
    rs = build_root_system(space.family, space.rank)
    roots = sorted(rs.roots)
    for mu in rs.simple:
        for lam in roots:
            assert root_multiplicity(space, reflect(mu, lam)) == root_multiplicity(space, lam)


def test_multiplicity_agrees_with_simple_mults():
    for name in ["so(6,2)", "su(5,2)", "sp(2,2)", "e6(2)", "so(7,C)"]:
        space = catalog_lookup(name)
        rs = build_root_system(space.family, space.rank)
        for i, alpha in enumerate(rs.simple, start=1):
            assert root_multiplicity(space, alpha) == space.m_alpha(i)
    space = catalog_lookup("so(5,2)")  # held across clear_caches: read off the list built anew
    liefoliate.clear_caches()
    assert root_multiplicity(space, build_root_system(space.family, space.rank).simple[1]) == space.m_alpha(2)


def test_dimension_strictly_exceeds_rank():
    for name in ["sl(2,R)", "so(4,3)", "su(3,2)", "e8(C)", "f4(-20)", "g2(2)"]:
        space = catalog_lookup(name)
        assert space.dimension > space.rank


def test_split_spaces_dimension_formula():
    for name in ["sl(6,R)", "so(4,3)", "sp(4,R)", "so(4,4)", "e6(6)", "f4(4)", "g2(2)"]:
        space = catalog_lookup(name)
        assert space.dim_k0 == 0
        assert all(space.m_alpha(i) == 1 for i in range(1, space.rank + 1))
        assert space.dimension == space.rank + len(build_root_system(space.family, space.rank).positive)


def test_dim_k0_unavailable_for_nonsplit():
    for name in ["sl(3,C)", "su(3,1)", "e6(-26)", "so(6,2)"]:
        assert catalog_lookup(name).dim_k0 is None


def test_bc_double_mult_constraint():
    for name in ["su(3,1)", "so(3,H)", "sp(2,1)", "e6(-14)", "f4(-20)"]:
        space = catalog_lookup(name)
        assert space.m_2alpha(space.rank) in (1, 3, 7)


def test_descriptor_json_round_trip():
    for name in ["sl(5,R)", "su(4,2)", "f4(-20)", "so(5,2)"]:
        d = catalog_lookup(name)
        assert SpaceDescriptor.from_dict(d.to_dict()) == d


def test_descriptor_from_dict_checks_every_field():
    data = catalog_lookup("SL5").to_dict()
    with pytest.raises(LieFoliateError, match=r"record disagrees with sl\(5,R\) in rank, dimension$"):
        SpaceDescriptor.from_dict({**data, "rank": 9, "dimension": 1})
    with pytest.raises(LieFoliateError, match="lacks name$"):
        SpaceDescriptor.from_dict({k: v for k, v in data.items() if k != "name"})
    with pytest.raises(LieFoliateError, match="lacks notes$"):
        SpaceDescriptor.from_dict({k: v for k, v in data.items() if k != "notes"})


def test_sl_c_typo_note_recorded():
    d = catalog_lookup("sl(3,C)")
    assert any("typo" in note for note in d.notes)


@pytest.mark.parametrize("name", ["SL1002", "sl(1002,C)", "so(2003,C)", "so(1001,1001)", "su(1001,1001)",
                                  "sp(1001,R)", "SL1000000000"])
def test_ranks_above_the_ceiling_are_refused_before_anything_is_built(name):
    tracemalloc.start()
    try:
        with pytest.raises(LieFoliateError, match="rank (1001|999999999) is too large"):
            catalog_lookup(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_ceiling_rank_is_accepted_and_its_dimension_needs_no_root():
    space, built = catalog_lookup("SL1001"), build_root_system.cache_info().misses
    assert space.rank == MAX_RANK == 1000
    assert space.dimension == 1000 * 1003 // 2  # (m - 1)(m + 2)/2
    assert space.multiplicities.table == {8: 1}  # read off the simple roots, not the 500,500 positive ones
    assert build_root_system.cache_info().misses == built


def test_multiplicities_refuse_a_vector_of_no_root_length():
    with pytest.raises(LieFoliateError, match="no multiplicity recorded for a root of squared length 1"):
        catalog_lookup("SL4").multiplicities(Root((2, 0, 0, 0)))


@pytest.mark.parametrize("family, mults", [("A", (1, 2, 1)), ("A", (2, 2, 1)), ("B", (1, 2, 3)), ("C", (2, 1, 1))])
def test_equal_length_simple_roots_must_carry_equal_multiplicities(family, mults):
    space = SpaceDescriptor("made up", "made up", Family(family), 3, mults, None, "made up")
    with pytest.raises(LieFoliateError, match="simple roots of equal length carry different multiplicities"):
        space.dimension
    with pytest.raises(LieFoliateError, match="simple roots of equal length carry different multiplicities"):
        space.multiplicities


def test_the_closed_form_dimension_weights_each_length_class():
    # so(6,3) is B3 with 6 long roots of multiplicity 1 and 3 short ones of
    # multiplicity 3; su(3,3) is C3 with 6 short roots of multiplicity 2 and
    # 3 long ones of multiplicity 1.  At B2 both classes hold two roots, so
    # so(5,2) cannot tell them apart.
    assert catalog_lookup("so(6,3)").dimension == 3 + 6 * 1 + 3 * 3 == 18
    assert catalog_lookup("su(3,3)").dimension == 3 + 3 * 1 + 6 * 2 == 18


COLD_STRUCTURE = """\
import sys
from liefoliate import cli, roots
for argv in (["catalog", "list"], ["catalog", "list", "--format", "json"],
             ["horospherical", "--space", "SL300", "--phi", "1,2,5"],
             ["parabolic", "--space", "e6(-14)", "--phi", "1,2"],
             ["foliations", "enumerate", "--space", "so(9,4)"],
             ["foliations", "enumerate", "--space", "SL300", "--codim", "1", "--format", "json"]):
    assert cli.main(argv) == 0
print(roots.build_root_system.cache_info().misses, file=sys.stderr)
"""


def test_structure_commands_build_no_root_system_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", COLD_STRUCTURE], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0"


def test_dimension_and_structure_calls_build_no_root_system():
    from liefoliate import foliations, parabolic

    for name in ["SL12", "so(9,4)", "su(7,3)", "e8(-24)", "f4(-20)", "g2(C)", "sp(5,2)"]:
        liefoliate.clear_caches()  # also resets the misses counted below
        space = catalog_lookup(name)  # a new descriptor, as in a fresh process
        space.dimension
        space.multiplicities
        parabolic.horospherical(space, parabolic.phi_subset(space, range(1, space.rank)))
        foliations.enumerate_foliations(space)
        assert build_root_system.cache_info().misses == 0
