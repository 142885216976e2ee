"""Root construction, pairing, reflection, and system invariants."""

from fractions import Fraction
from itertools import compress
from operator import lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liefoliate import clear_caches
from liefoliate.errors import LieFoliateError
from liefoliate.roots import (
    _SIMPLE_ROOTS,
    POSITIVE_ROOT_COUNTS,
    RANK_RANGES,
    Family,
    Root,
    RootSystem,
    _positive_roots,
    _vector,
    build_root_system,
    family_diagram,
    inner,
    reflect,
    root_from_coords,
)

# Counts derived by hand from the defining sets:
#   A_r: pairs (i,j), i != j, in r+1 letters -> r(r+1)
#   B_r/C_r: 4*C(r,2) + 2r = 2r^2;  D_r: 4*C(r,2);  BC_r: 2r^2 + 2r
#   E8: 112 integer + 128 half;  E7: 60 + 2 + 64;  E6: 40 + 32
#   F4: 24 + 8 + 16;  G2: 6 + 6
COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20, ("A", 8): 72,
    ("B", 2): 8, ("B", 3): 18, ("B", 5): 50,
    ("C", 2): 8, ("C", 4): 32,
    ("D", 3): 12, ("D", 4): 24, ("D", 5): 40,
    ("E6", 6): 72, ("E7", 7): 126, ("E8", 8): 240,
    ("F4", 4): 48, ("G2", 2): 12,
    ("BC", 1): 4, ("BC", 2): 12, ("BC", 4): 40,
}

ALL_SYSTEMS = sorted(COUNTS)

# |Sigma+| of every family (Bourbaki, Lie IV-VI, Plates I-IX).
POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r, "C": lambda r: r * r,
    "D": lambda r: r * (r - 1), "BC": lambda r: r * (r + 1),
    "E6": lambda r: 36, "E7": lambda r: 63, "E8": lambda r: 120, "F4": lambda r: 24,
    "G2": lambda r: 6,
}

# Every family at every valid rank up to 16.
SYSTEMS_TO_16 = [
    (family.value, r)
    for family, (lo, hi) in RANK_RANGES.items()
    for r in range(lo, (hi or 16) + 1)
]


def test_root_rejects_zero_vector():
    with pytest.raises(LieFoliateError):
        Root((0, 0, 0))


def test_root_rejects_an_empty_tuple():
    with pytest.raises(LieFoliateError, match="at least one coordinate"):
        Root(())


def test_root_rejects_non_integer_scaled():
    with pytest.raises(LieFoliateError):
        Root((1.5, 2))


def test_root_rejects_a_list_and_a_bool_coordinate():
    # a list would later make the root unhashable; a bool is no coordinate
    with pytest.raises(LieFoliateError, match="must be a tuple, not a list"):
        Root([2, -2])
    with pytest.raises(LieFoliateError, match="must be integers"):
        Root((True, 0))
    with pytest.raises(LieFoliateError, match="must be a tuple"):
        Root(scaled=[2, -2])


def test_root_from_coords_halves():
    r = root_from_coords([Fraction(1, 2), Fraction(-1, 2)])
    assert r.scaled == (1, -1)
    with pytest.raises(LieFoliateError):
        root_from_coords([Fraction(1, 3), 0])


def test_root_from_coords_reads_numpy_scalars():
    np = pytest.importorskip("numpy")
    assert root_from_coords([np.float32(0.5), np.int64(-1)]).scaled == (1, -2)


@pytest.mark.parametrize("bad", ["1/2", "abc", True, None, 1j, float("nan"), float("inf")])
def test_root_from_coords_refuses_what_is_no_finite_number(bad):
    # strings were read by Fraction, NaN and infinity raised its ValueError
    with pytest.raises(LieFoliateError, match="not a finite number"):
        root_from_coords([bad, 0])


@pytest.mark.parametrize("bad", [5, 2.5, None])
def test_root_from_coords_refuses_what_is_not_iterable(bad):
    # iterating raised TypeError: 'int' object is not iterable
    with pytest.raises(LieFoliateError, match="not an iterable of numbers"):
        root_from_coords(bad)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == COUNTS[(family, rank)]
    assert len(rs.positive) * 2 == len(rs.roots)
    assert len(rs.simple) == rank


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E6", 5), ("E7", 8), ("E8", 7),
     ("F4", 3), ("G2", 3), ("BC", 0)],
)
def test_invalid_ranks_rejected(family, rank):
    with pytest.raises(LieFoliateError, match="valid range"):
        build_root_system(family, rank)


def test_unknown_family_rejected():
    with pytest.raises(LieFoliateError, match="unknown root system family 'Z'"):
        build_root_system("Z", 3)


@pytest.mark.parametrize("rank", [True, False, 3.0])
def test_a_rank_that_is_not_an_int_is_rejected(rank):
    with pytest.raises(LieFoliateError, match="valid range"):
        build_root_system("A", rank)


def test_unhashable_arguments_rejected_before_the_cache():
    with pytest.raises(LieFoliateError, match="unknown root system family"):
        build_root_system(["A"], 3)
    with pytest.raises(LieFoliateError, match="valid range"):
        build_root_system("A", [3])


def test_inner_examples():
    # <e1-e2, e2-e3> = -1 in A_2
    a2 = build_root_system("A", 2)
    a1, alpha2 = a2.simple
    assert inner(a1, alpha2) == -1
    assert inner(a1, a1) == 2
    # G2 simple roots: <a1,a2> = -3
    g1, g2 = build_root_system("G2", 2).simple
    assert inner(g1, g2) == -3
    # E8 half roots have squared length 2
    e8 = build_root_system("E8", 8)
    halves = [r for r in e8.roots if any(c % 2 for c in r.scaled)]
    assert len(halves) == 128
    assert all(inner(h, h) == 2 for h in halves)


def test_inner_dimension_mismatch():
    with pytest.raises(LieFoliateError, match="dimension mismatch"):
        inner(Root((2, -2)), Root((2, -2, 0)))


def test_inner_symmetric_and_positive():
    rs = build_root_system("F4", 4)
    roots = sorted(rs.roots)
    for lam in roots:
        assert inner(lam, lam) > 0
        for mu in roots[:8]:
            assert inner(lam, mu) == inner(mu, lam)


def test_reflect_examples():
    a2 = build_root_system("A", 2)
    al1, al2 = a2.simple
    # reflection of the root itself
    assert reflect(al1, al1) == -al1
    # fixed hyperplane: orthogonal pair in A_3
    a3 = build_root_system("A", 3)
    assert inner(a3.simple[0], a3.simple[2]) == 0
    assert reflect(a3.simple[0], a3.simple[2]) == a3.simple[2]
    # s_{a1}(a2) = a1 + a2
    image = reflect(al1, al2)
    assert image.scaled == tuple(x + y for x, y in zip(al1.scaled, al2.scaled))


def test_reflect_dimension_mismatch():
    with pytest.raises(LieFoliateError, match="dimension mismatch"):
        reflect(Root((2, -2)), Root((2, -2, 0)))


def test_reflect_in_vectors_of_no_common_root_system():
    # 2 <x,lam>/<lam,lam> = 1/2 is no integer, yet the image is integral
    assert reflect(Root((4, 4)), Root((2, 0))) == Root((0, -2))
    # 2 <x,lam>/<lam,lam> = 2/5 leaves fifths in the image
    with pytest.raises(LieFoliateError, match=r"non-\(half-\)integer coordinates"):
        reflect(Root((2, 4)), Root((2, 0)))


def _reflect_by_fractions(lam, x):
    """x - 2 <x,lam>/<lam,lam> lam in Fractions, or None when a coordinate is no integer."""
    c = Fraction(2 * sum(a * b for a, b in zip(x.scaled, lam.scaled)), sum(a * a for a in lam.scaled))
    image = [xs - c * ls for xs, ls in zip(x.scaled, lam.scaled)]
    return None if any(v.denominator != 1 for v in image) else Root(tuple(int(v) for v in image))


_COORDS = st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.lists(st.integers(-6, 6), min_size=n, max_size=n)
                                                            .filter(any).map(tuple)] * 2))


@given(_COORDS)
@example(((4, 4), (2, 0)))
@settings(max_examples=300, deadline=None)
def test_reflect_agrees_with_fraction_arithmetic(pair):
    # most pairs share no crystallographic root system; the integer rule must refuse exactly the images
    # that Fractions leave non-integral
    lam, x = map(Root, pair)
    want = _reflect_by_fractions(lam, x)
    if want is None:
        with pytest.raises(LieFoliateError, match=r"non-\(half-\)integer coordinates"):
            reflect(lam, x)
    else:
        assert reflect(lam, x) == want


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_reflect_involutive(family, rank):
    rs = build_root_system(family, rank)
    roots = sorted(rs.roots)
    for lam in rs.simple:
        for mu in roots:
            assert reflect(lam, reflect(lam, mu)) == mu


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_weyl_closure_exhaustive(family, rank):
    rs = build_root_system(family, rank)
    for lam in rs.roots:
        for mu in rs.roots:
            assert reflect(lam, mu) in rs.roots


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_simple_expansion_uniform_sign_integers(family, rank):
    rs = build_root_system(family, rank)
    for lam in rs.roots:
        coeffs = rs.simple_coefficients(lam)
        assert all(isinstance(c, int) for c in coeffs)
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)
    # positives expand nonnegatively
    for lam in rs.positive:
        assert all(c >= 0 for c in rs.simple_coefficients(lam))


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS + [("A", 31), ("C", 16)])
def test_expansion_sums_to_the_root_and_masks_match_support(family, rank):
    rs = build_root_system(family, rank)
    for lam in rs.roots:
        coeffs = rs.simple_coefficients(lam)
        total = tuple(
            sum(c * alpha.scaled[d] for c, alpha in zip(coeffs, rs.simple))
            for d in range(rs.ambient_dim)
        )
        assert total == lam.scaled
    for lam, coeffs in zip(rs.positive, rs.coefficients):
        assert rs.simple_coefficients(lam) == coeffs
        assert rs.simple_coefficients(-lam) == tuple(-c for c in coeffs)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_rows_align_with_positive_and_reuse_the_system_roots(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.positive) == len(rs.positive_index) == len(rs.coefficients)
    assert {*rs.positive, *(-lam for lam in rs.positive)} == rs.roots
    for k, lam in enumerate(rs.positive):
        assert rs.positive_index[lam] == k


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SYSTEMS_TO_16))
def test_generated_system_is_closed_counted_and_canonically_ordered(case):
    family, rank = case
    rs = build_root_system(family, rank)
    for alpha in rs.simple:
        for lam in rs.roots:
            assert reflect(alpha, lam) in rs.roots
    assert len(rs.positive) == POSITIVE_COUNTS[family](rank)
    coeffs = [rs.simple_coefficients(lam) for lam in rs.positive]
    assert all(c >= 0 for cs in coeffs for c in cs)
    # Heights never decrease; within one height, coefficients descend
    # lexicographically.
    assert coeffs == sorted(coeffs, key=lambda cs: (sum(cs), [-c for c in cs]))
    assert rs.positive[:rank] == rs.simple


WALKED_SYSTEMS = [(family, r) for family, (lo, hi) in RANK_RANGES.items() for r in range(lo, min(hi or 30, 30) + 1)]
WALKED_SYSTEMS += [(Family.A, r) for r in range(31, 61)]


def _column_sum(terms, size: int) -> list[int]:
    """The sum of a * column over the pairs (a, column) of ``terms``, entry by entry; ``size`` zeros if none."""
    total = None
    for a, column in terms:
        total = [a * x for x in column] if total is None else [t + a * x for t, x in zip(total, column)]
    return [0] * size if total is None else total


@pytest.mark.parametrize("family, rank", WALKED_SYSTEMS, ids=[f"{f.value}{r}" for f, r in WALKED_SYSTEMS])
def test_the_walk_gives_each_positive_root_once_in_canonical_order_closed_under_simple_reflections(family, rank):
    dim, sparse = _SIMPLE_ROOTS[family](rank)
    simple = [_vector(dim, alpha) for alpha in sparse]
    walk = _positive_roots(simple, family_diagram(family, rank).cartan, family is Family.BC)
    size = len(walk)
    assert size == sum(POSITIVE_ROOT_COUNTS[family](rank))
    assert walk[:rank] == [(tuple(int(j == i) for j in range(rank)), alpha) for i, alpha in enumerate(simple)]
    coefficients, roots = zip(*walk)
    # By height, then by coefficients descending, and no root twice: for each
    # root c and the next one d, (height c, d) < (height d, c).
    heights = list(map(sum, coefficients))
    assert all(map(lt, zip(heights, coefficients[1:]), zip(heights[1:], coefficients)))
    # The checks below run over all roots at once: by_simple[i] holds every
    # root's c_i, and by_coordinate[k] its coordinate k.
    by_simple, by_coordinate = list(zip(*coefficients)), list(zip(*roots))
    for k, coordinate in enumerate(by_coordinate):  # v = sum_i c_i alpha_i
        assert list(coordinate) == _column_sum(((alpha[k], by_simple[i]) for i, alpha in enumerate(sparse)
                                                if k in alpha), size)
    assert min(map(min, coefficients)) >= 0  # so no root is -alpha_i or -2 alpha_i
    listed = set(roots)
    for alpha, alpha_v in zip(sparse, simple):
        norm = sum(a * a for a in alpha.values())
        dots = _column_sum(((2 * a, by_coordinate[k]) for k, a in alpha.items()), size)  # 2 (v, alpha)
        # s_alpha v = v - <v, alpha^vee> alpha is v where the pairing is 0.  It takes
        # the roots of negative pairing one to one to roots of positive pairing other
        # than alpha and 2 alpha; as many of each make it swap the two sets.
        raising = [n for n in compress(range(size), dots) if dots[n] < 0]
        own = {alpha_v, tuple(2 * a for a in alpha_v)} & listed
        assert len(raising) == size - dots.count(0) - len(raising) - len(own)
        assert all(dots[n] % norm == 0 for n in raising)  # integral pairings
        images = []
        for n in raising:
            image = list(roots[n])
            for k, a in alpha.items():
                image[k] -= dots[n] // norm * a
            images.append(tuple(image))
        assert listed.issuperset(images)


@pytest.mark.parametrize("family,rank", [("A", 3), ("BC", 2), ("E6", 6), ("G2", 2)])
def test_from_dict_rejects_a_positive_root_swapped_for_its_negative(family, rank):
    rs = build_root_system(family, rank)
    data = rs.to_dict()
    k = next(k for k, lam in enumerate(rs.positive) if lam not in rs.simple)
    data["positive"][k] = [-c for c in data["positive"][k]]
    with pytest.raises(LieFoliateError, match="not those the simple roots generate"):
        RootSystem.from_dict(data)


def _left_out(data):
    lam = data["positive"].pop()
    data["roots"].remove(lam)
    data["roots"].remove([-c for c in lam])


def _emptied(data):
    data["rank"], data["simple"], data["positive"], data["roots"] = 0, [], [], []


def _relabelled(data):
    data["family"] = "B"


def _alpha2_negated(data):
    data["simple"][1] = [-c for c in data["simple"][1]]


def _alpha2_doubled(data):
    data["simple"][1] = [2 * c for c in data["simple"][1]]


def _unknown_family(data):
    data["family"] = "Z"


def _positive_key_missing(data):
    del data["positive"]


def _ambient_dim_shrunk(data):
    data["ambient_dim"] = 3


def _root_set_without_a_negative(data):
    data["roots"].remove([-c for c in data["positive"][0]])


@pytest.mark.parametrize(
    "edit,message",
    [
        (_left_out, "not those the simple roots generate"),
        (_emptied, "which is at least 1"),
        (_relabelled, "do not have the Cartan matrix of B_3"),
        (_alpha2_negated, "do not have the Cartan matrix of A_3"),
        (_alpha2_doubled, "do not have the Cartan matrix of A_3"),
        (_unknown_family, "unknown root system family 'Z'"),
        (_positive_key_missing, "lacks positive"),
        (_ambient_dim_shrunk, "must have ambient_dim coordinates"),
        (_root_set_without_a_negative, "root set is not the positive roots and their negatives"),
    ],
    ids=["positive-root-left-out", "no-simple-roots", "family-relabelled",
         "acute-simple-pair", "non-integral-cartan-entry", "unknown-family", "key-missing",
         "ambient-dim-shrunk", "negative-root-left-out"],
)
def test_from_dict_rejects_an_edited_system(edit, message):
    data = build_root_system("A", 3).to_dict()
    edit(data)
    with pytest.raises(LieFoliateError, match=message):
        RootSystem.from_dict(data)


def test_from_dict_rejects_dependent_simple_roots():
    rs = build_root_system("A", 3)
    data = rs.to_dict()
    alpha1, alpha2, _ = rs.simple
    data["simple"][2] = [a + b for a, b in zip(alpha1.scaled, alpha2.scaled)]
    with pytest.raises(LieFoliateError, match="do not have the Cartan matrix of A_3"):
        RootSystem.from_dict(data)


# The reference for the test below: the check that ``RootSystem.from_dict``
# made while it derived the Cartan matrix from the coordinates of the listed
# simple roots, before it compared that matrix with the diagram's.


def _reference_independent(vectors) -> bool:
    """Whether integer vectors are linearly independent (fraction-free elimination)."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p[col] * a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank == len(rows)


def _reference_cartan_matrix(simple) -> tuple[tuple[int, ...], ...]:
    """A_ij = 2<alpha_i, alpha_j>/<alpha_j, alpha_j>; raises unless the simple roots
    are independent, every entry is an integer and A_ij <= 0 for i != j."""
    if not _reference_independent(simple):
        raise LieFoliateError("simple roots are linearly dependent")
    norms = [sum(a * a for a in alpha) for alpha in simple]
    cartan = []
    for i, a in enumerate(simple):
        row = []
        for j, b in enumerate(simple):
            num = 2 * sum(x * y for x, y in zip(a, b))
            if num % norms[j]:
                raise LieFoliateError(
                    f"Cartan entry A_{i + 1},{j + 1} = {Fraction(num, norms[j])} is not an integer"
                )
            if i != j and num > 0:
                raise LieFoliateError(
                    f"Cartan entry A_{i + 1},{j + 1} is positive: simple roots must not make an acute angle"
                )
            row.append(num // norms[j])
        cartan.append(tuple(row))
    return tuple(cartan)


def _reference_from_dict(data):
    """The system that the reference accepts, or the message it refuses with,
    for a well-formed record whose simple roots may be anything."""
    family, rank = Family(data["family"]), data["rank"]
    try:
        simple = tuple(Root(tuple(c)).scaled for c in data["simple"])
        cartan = _reference_cartan_matrix(simple)
    except LieFoliateError as exc:
        return str(exc)
    if cartan != family_diagram(family, rank).cartan:
        return f"simple roots do not have the Cartan matrix of {family.value}_{rank}"
    walk = _positive_roots(simple, cartan, family is Family.BC)
    positive = tuple(Root(v) for _, v in walk)
    roots = frozenset(positive) | frozenset(-lam for lam in positive)
    listed = [Root(tuple(c)) for c in data["positive"]]
    if len(listed) != len(positive) or set(listed) != set(positive):
        return "positive roots are not those the simple roots generate"
    if frozenset(Root(tuple(c)) for c in data["roots"]) != roots:
        return "root set is not the positive roots and their negatives"
    return RootSystem(family, rank, len(simple[0]), roots, positive, positive[:rank], cartan,
                      tuple(c for c, _ in walk))


# The three refusals of the reference that now share the Cartan-matrix message.
_OLD_CARTAN_MESSAGES = ("simple roots are linearly dependent", "is not an integer", "must not make an acute angle")
_EDITED_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("BC", 2), ("D", 4), ("F4", 4), ("G2", 2)]


@st.composite
def _edited_records(draw):
    """A record of one of ``_EDITED_SYSTEMS`` with one to three edits of its
    simple roots, and its coordinates then permuted the same way in every list."""
    family, rank = draw(st.sampled_from(_EDITED_SYSTEMS))
    data = build_root_system(family, rank).to_dict()
    simple = data["simple"]
    index = st.integers(0, rank - 1)
    small = st.integers(-3, 3)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(index), draw(index)
        kind = draw(st.sampled_from(("add", "scale", "negate", "swap", "dependent")))
        if kind == "add" and i != j:
            k = draw(small)
            simple[i] = [a + k * b for a, b in zip(simple[i], simple[j])]
        elif kind == "scale":
            k = draw(small)
            simple[i] = [k * a for a in simple[i]]
        elif kind == "negate":
            simple[i] = [-a for a in simple[i]]
        elif kind == "swap":
            simple[i], simple[j] = simple[j], simple[i]
        elif kind == "dependent":
            ks = [draw(small) for _ in range(rank)]
            others = [[k * a for a in alpha] for n, (k, alpha) in enumerate(zip(ks, simple)) if n != i]
            simple[i] = [sum(column) for column in zip(*others)]
    order = draw(st.permutations(range(data["ambient_dim"])))
    for key in ("simple", "positive", "roots"):
        data[key] = [[v[c] for c in order] for v in data[key]]
    return data


def _outcome(read, data):
    try:
        return read(data)
    except LieFoliateError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_edited_records())
def test_from_dict_refuses_an_edited_record_exactly_when_the_reference_does(data):
    want = _reference_from_dict(data)
    if isinstance(want, str) and any(old in want for old in _OLD_CARTAN_MESSAGES):
        want = f"simple roots do not have the Cartan matrix of {data['family']}_{data['rank']}"
    assert _outcome(RootSystem.from_dict, data) == want


@pytest.mark.parametrize("family, rank", _EDITED_SYSTEMS)
def test_from_dict_accepts_a_record_with_its_coordinates_permuted(family, rank):
    data = build_root_system(family, rank).to_dict()
    order = list(range(data["ambient_dim"]))[::-1]
    for key in ("simple", "positive", "roots"):
        data[key] = [[v[c] for c in order] for v in data[key]]
    rs = RootSystem.from_dict(data)
    assert rs == _reference_from_dict(data)
    assert [list(alpha.scaled) for alpha in rs.simple] == data["simple"]


def test_membership_is_membership_of_the_root_set():
    rs = build_root_system("B", 2)
    assert all(lam in rs for lam in rs.roots)
    assert Root((4, 0)) not in rs and Root((2, 2, 0)) not in rs


def test_simple_coefficients_rejects_non_roots():
    rs = build_root_system("A", 3)
    with pytest.raises(LieFoliateError):
        rs.simple_coefficients(Root((2, 2, 2, 2)))


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_length_classes(family, rank):
    rs = build_root_system(family, rank)
    k = len({inner(root, root) for root in rs.roots})
    if family == "BC":
        assert k == (3 if rank >= 2 else 2)
    else:
        assert k <= 2


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_doubled_roots_only_in_bc(family, rank):
    rs = build_root_system(family, rank)
    doubled = {r for r in rs.roots if r.double() in rs.roots}
    if family == "BC":
        # exactly the +-e_i
        assert len(doubled) == 2 * rank
        assert all(sum(1 for c in r.scaled if c) == 1 for r in doubled)
    else:
        assert not doubled


def test_g2_positive_roots_match_listed_vectors():
    rs = build_root_system("G2", 2)
    listed = {
        (2, -2, 0), (-4, 2, 2), (-2, 0, 2), (0, -2, 2), (2, -4, 2), (-2, -2, 4),
    }
    assert {r.scaled for r in rs.positive} == listed
    assert rs.simple[0].scaled == (2, -2, 0)
    assert rs.simple[1].scaled == (-4, 2, 2)


def test_bc1_explicit():
    rs = build_root_system("BC", 1)
    assert {r.scaled for r in rs.roots} == {(2,), (-2,), (4,), (-4,)}


def test_e_series_roots_lie_in_defining_subspace():
    e7 = build_root_system("E7", 7)
    for r in e7.roots:
        assert r.scaled[6] + r.scaled[7] == 0
    e6 = build_root_system("E6", 6)
    for r in e6.roots:
        assert r.scaled[5] == r.scaled[6] == -r.scaled[7]


def test_root_system_json_round_trip():
    for family, rank in [("A", 3), ("BC", 2), ("E6", 6), ("G2", 2)]:
        rs = build_root_system(family, rank)
        from liefoliate.roots import RootSystem

        again = RootSystem.from_dict(rs.to_dict())
        assert again == rs


@pytest.mark.parametrize("family, rank", [("A", 5), ("D", 6), ("BC", 3), ("E7", 7)])
def test_from_dict_checks_the_cartan_matrix_against_the_diagram_not_a_built_system(family, rank):
    rs = build_root_system(family, rank)
    data = rs.to_dict()
    clear_caches()
    assert RootSystem.from_dict(data) == rs
    assert build_root_system.cache_info().misses == 0


def test_a_built_system_keeps_the_diagram_of_its_cartan_matrix(monkeypatch):
    from liefoliate import rootsystem

    calls = []

    def counting(family, rank):
        calls.append((family, rank))
        return family_diagram(family, rank)

    monkeypatch.setattr(rootsystem, "family_diagram", counting)
    clear_caches()
    rs = build_root_system("E6", 6)
    assert rootsystem.dynkin_diagram(rs) is rootsystem.dynkin_diagram(rs) == family_diagram("E6", 6)
    assert len(calls) == 1
    again = RootSystem.from_dict(rs.to_dict())
    assert rootsystem.dynkin_diagram(again) == rootsystem.dynkin_diagram(rs)
    assert len(calls) == 2
    assert rootsystem.dynkin_diagram(again._replace()) == rootsystem.dynkin_diagram(rs)  # built by hand: made on use


def test_format_root():
    from liefoliate.roots import format_root

    assert format_root(Root((2, -2, 0))) == "e1-e2"
    assert format_root(Root((4,))) == "2e1"
    assert format_root(Root((1, -1, -1, 1))) == "(e1-e2-e3+e4)/2"


def test_family_enum_accepts_strings():
    assert build_root_system("A", 2) is build_root_system(Family.A, 2)
