"""Matrix model: bracket, Killing form, decompositions, Lie triple systems."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefoliate import slmodel
from liefoliate.catalog import catalog_lookup
from liefoliate.errors import LieFoliateError
from liefoliate.parabolic import parabolic_data, phi_subset
from liefoliate.roots import Root
from liefoliate.slmodel import (
    MatrixElement,
    TAU_ALG,
    a_phi_subspace,
    a_subspace,
    ad_matrix,
    as_element,
    bracket,
    bracket_closure_residual,
    build_s_phi_v,
    cartan_involution,
    cartan_split,
    default_rng,
    e_matrix,
    h_matrix,
    is_lie_triple,
    iwasawa_group,
    killing_form,
    metric_inner,
    moebius,
    n_phi_subspace,
    n_subspace,
    p_phi_s_subspace,
    p_phi_subspace,
    q_phi_block_dimension,
    q_phi_subspace,
    random_sl,
    restricted_root_decompose,
    sl_basis,
    subspace,
)
from test_cli import MALFORMED_MATRICES


def traceless(rng, n):
    x = rng.standard_normal((n, n))
    return x - np.eye(n) * (np.trace(x) / n)


def integer_traceless(draw_matrix, n):
    """Scale an integer matrix to an exactly traceless integer matrix."""
    a = np.array(draw_matrix, dtype=float)
    return a * n - np.trace(a) * np.eye(n)


# --- MatrixElement ------------------------------------------------------------


def test_matrix_element_requires_traceless():
    with pytest.raises(LieFoliateError, match="traceless"):
        MatrixElement(np.eye(2))


@pytest.mark.parametrize("x", [
    1e-13 * np.diag([1.0, 0.0]),  # tiny, so a tolerance of at least 1e-12 would pass it
    1e-20 * np.diag([1.0, 0.0]),
    1e20 * np.diag([1.0, -1.0, 1e-6]),
])
def test_trace_tolerance_is_relative_to_the_matrix(x):
    with pytest.raises(LieFoliateError, match="traceless"):
        MatrixElement(x)
    with pytest.raises(LieFoliateError, match="traceless"):
        restricted_root_decompose(x)


def test_decompose_tests_the_trace_of_its_diagonal_part():
    # Traceless relative to X, but the diagonal part it returns would not be.
    x = np.array([[1e-13, 1.0], [1.0, 0.0]])
    MatrixElement(x)
    with pytest.raises(LieFoliateError, match="traceless"):
        restricted_root_decompose(x)


def test_shifted_random_matrices_are_traceless_at_every_scale():
    rng = default_rng(5)
    for n in range(2, 9):
        x = traceless(rng, n)
        for scale in (1e-20, 1e-8, 1.0, 1e8, 1e20):
            MatrixElement(scale * x)
            restricted_root_decompose(scale * x)


@pytest.mark.parametrize("call", [
    MatrixElement,
    restricted_root_decompose,
    iwasawa_group,
    lambda x: killing_form(x, x),
    lambda x: bracket(x, x),
])
def test_empty_matrix_is_a_domain_error(call):
    with pytest.raises(LieFoliateError, match="nonempty"):
        call(np.zeros((0, 0)))


# --- reading matrix arguments -------------------------------------------------

_OK = [[1.0, 0.0], [0.0, -1.0]]

# Each public function, with the matrix m in one argument position.
MATRIX_CALLS = {
    "MatrixElement": MatrixElement,
    "as_element": as_element,
    "subspace": lambda m: subspace([m]),
    "bracket x": lambda m: bracket(m, _OK),
    "bracket y": lambda m: bracket(_OK, m),
    "ad_matrix": ad_matrix,
    "killing_form x": lambda m: killing_form(m, _OK),
    "killing_form y": lambda m: killing_form(_OK, m),
    "cartan_involution": cartan_involution,
    "cartan_split": cartan_split,
    "metric_inner x": lambda m: metric_inner(m, _OK),
    "metric_inner y": lambda m: metric_inner(_OK, m),
    "restricted_root_decompose": restricted_root_decompose,
    "iwasawa_group": iwasawa_group,
    "moebius": lambda m: moebius(m, 1j),
}

# The Python values of the CLI's malformed matrices, each with the fragment the
# CLI prints for it ("deep nesting" parses to no value, so it has none), and
# ndarrays whose dtype holds no numbers.
MALFORMED_VALUES = {
    name: (json.loads(text), says)
    for name, (text, says) in MALFORMED_MATRICES.items() if says != "cannot parse"
} | {
    "bool dtype": (np.array([[True, False], [False, True]]), "numbers"),
    "str dtype": (np.array([["1", "0"], ["0", "-1"]]), "numbers"),
}


@pytest.mark.parametrize("value, says", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES.keys())
@pytest.mark.parametrize("call", MATRIX_CALLS.values(), ids=MATRIX_CALLS.keys())
def test_malformed_matrix_gets_the_cli_message(call, value, says):
    # numpy's float conversion read "1" and True as 1 and raised its own ValueError for ragged rows
    with pytest.raises(LieFoliateError, match=says):
        call(value)


@pytest.mark.parametrize("call", [
    lambda m: bracket(np.eye(2), m),
    lambda m: killing_form(m, np.zeros((2, 2))),
    lambda m: metric_inner([[1.0]], m),  # broadcast to 6.0
], ids=["bracket", "killing_form", "metric_inner"])
def test_mixed_size_pair_is_a_size_mismatch(call):
    with pytest.raises(LieFoliateError, match="size mismatch"):
        call(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [5, None, 1.5])
def test_a_basis_that_is_not_iterable_is_refused_by_subspace(bad):
    # iterating raised TypeError: 'int' object is not iterable
    with pytest.raises(LieFoliateError, match="not an iterable of matrices"):
        subspace(bad)


def test_mixed_size_basis_is_refused_by_subspace():
    # np.stack raised its own ValueError
    with pytest.raises(LieFoliateError, match="same size"):
        subspace([h_matrix(2, 0), h_matrix(3, 0)])


@pytest.mark.parametrize("array", [
    np.zeros((0, 0)), np.zeros((2, 0)), np.zeros(4), np.zeros((2, 3)), np.zeros((2, 2, 2)),
    np.array(1.0), np.array([[np.nan, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, -np.inf]]),
], ids=["0x0", "2x0", "vector", "2x3", "2x2x2", "scalar", "NaN", "-inf"])
def test_float_array_and_its_list_get_one_message(array):
    for call in MATRIX_CALLS.values():
        messages = []
        for value in (array, array.tolist()):
            with pytest.raises(LieFoliateError) as exc:
                call(value)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("form", [
    lambda rows: np.array(rows, dtype=np.int64),
    lambda rows: rows,
    lambda rows: tuple(tuple(map(float, row)) for row in rows),
    lambda rows: [[np.float64(rows[0][0]), np.int64(rows[0][1])], [np.float32(rows[1][0]), np.int8(rows[1][1])]],
], ids=["int array", "int list", "float tuple", "numpy scalars"])
def test_every_form_of_a_valid_matrix_reads_as_its_float_array(form):
    x, g = [[1, 2], [3, -1]], [[2, 1], [1, 1]]
    fx, fg = np.array(x, dtype=float), np.array(g, dtype=float)
    assert np.array_equal(MatrixElement(form(x)).entries, fx)
    assert killing_form(form(x), form(x)) == killing_form(fx, fx)
    assert metric_inner(form(x), form(g)) == metric_inner(fx, fg)
    assert np.array_equal(bracket(form(x), form(g)).entries, bracket(fx, fg).entries)
    assert np.array_equal(iwasawa_group(form(g)).n, iwasawa_group(fg).n)
    assert moebius(form(g), 1j) == moebius(fg, 1j)


def test_each_matrix_is_read_once_per_call(monkeypatch):
    # the reads of one call are its arguments, each once: no read of a copy made from one
    reads = []
    read = slmodel._read
    monkeypatch.setattr(slmodel, "_read", lambda x: reads.append(x) or read(x))
    g = [[2.0, 1.0], [1.0, 1.0]]
    for name, call, mats in (
        ("as_element", as_element, ([[1, 0], [0, -1]],)),
        ("killing_form", killing_form, ([[1, 2], [3, -1]], np.array([[0.0, 1.0], [1.0, 0.0]]))),
        ("subspace", lambda *m: subspace(m), ([[0, 1], [1, 0]], [[1, 0], [0, -1]])),
        ("iwasawa_group", iwasawa_group, (g,)),
        ("moebius", lambda m: moebius(m, 1j), (np.array(g),)),
    ):
        reads.clear()
        call(*mats)
        assert sorted(map(id, reads)) == sorted(map(id, mats)), name


def test_matrix_element_tags_enforced():
    MatrixElement(np.array([[0.0, 1.0], [-1.0, 0.0]]), tag="k")
    with pytest.raises(LieFoliateError, match="skew"):
        MatrixElement(np.array([[0.0, 1.0], [0.0, 0.0]]), tag="k")
    with pytest.raises(LieFoliateError, match="symmetric"):
        MatrixElement(np.array([[0.0, 1.0], [-1.0, 0.0]]), tag="p")
    with pytest.raises(LieFoliateError, match="diagonal"):
        MatrixElement(np.array([[0.0, 1.0], [0.0, 0.0]]), tag="a")
    with pytest.raises(LieFoliateError, match="upper"):
        MatrixElement(np.array([[0.0, 0.0], [1.0, 0.0]]), tag="n")
    for tag in ("z", "g", "q_phi", "s_phi_v"):
        with pytest.raises(LieFoliateError, match="unknown tag"):
            MatrixElement(np.zeros((2, 2)) + np.diag([1.0, -1.0]), tag=tag)


def test_tag_and_symmetry_tolerances_are_relative_to_the_matrix():
    tiny = 1e-13 * e_matrix(2, 0, 1)
    for tag, message in (("p", "symmetric"), ("k", "skew")):
        with pytest.raises(LieFoliateError, match=message):
            MatrixElement(tiny, tag=tag)
    with pytest.raises(LieFoliateError, match="symmetric basis elements"):
        is_lie_triple(subspace([tiny]))


def test_matrix_element_is_immutable():
    el = as_element(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        el.entries[0, 0] = 5.0


# --- bracket and Killing form ---------------------------------------------------


def test_bracket_examples():
    h = np.diag([1.0, -1.0])
    e12, e21 = e_matrix(2, 0, 1), e_matrix(2, 1, 0)
    assert np.array_equal(bracket(h, e12).entries, 2.0 * e12)
    assert np.array_equal(bracket(e12, e21).entries, h)
    assert np.abs(bracket(e12, e12).entries).max() == 0.0


def test_bracket_of_commuting_matrices_is_traceless():
    # The computed [x, p(x)] is rounding error alone; its trace is removed.
    rng = default_rng(11)
    for n in range(2, 9):
        for _ in range(50):
            x = 10.0 ** rng.uniform(-8, 8) * traceless(rng, n)
            for y in (x @ x, x @ x @ x + 3.0 * x):
                z = bracket(x, y).entries
                assert abs(np.trace(z)) <= TAU_ALG * n * np.abs(z).max()


def test_bracket_size_mismatch():
    with pytest.raises(LieFoliateError, match="size mismatch"):
        bracket(np.zeros((2, 2)), np.zeros((3, 3)))


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            *[
                st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                for _ in range(3 * n)
            ],
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry_and_jacobi(data):
    n, *rows = data
    x = integer_traceless(rows[:n], n)
    y = integer_traceless(rows[n:2 * n], n)
    z = integer_traceless(rows[2 * n:], n)
    # small integer matrices: all products are exact in floating point
    xy = bracket(x, y).entries
    assert np.abs(xy + bracket(y, x).entries).max() <= TAU_ALG
    jac = (
        bracket(xy, z).entries
        + bracket(bracket(y, z).entries, x).entries
        + bracket(bracket(z, x).entries, y).entries
    )
    assert np.abs(jac).max() <= TAU_ALG


def test_killing_sl2_value():
    h = np.diag([1.0, -1.0])
    assert killing_form(h, h) == pytest.approx(8.0, abs=1e-12)


def test_killing_closed_form_random():
    rng = default_rng(42)
    for r in range(1, 7):
        n = r + 1
        for _ in range(25):
            x, y = traceless(rng, n), traceless(rng, n)
            assert killing_form(x, y) == pytest.approx(2.0 * n * np.trace(x @ y), abs=1e-9)


@pytest.mark.parametrize("x", [
    [[1.0, 2.0], [3.0, 4.0]],
    np.eye(3),
    1e-20 * np.diag([1.0, 0.0]),  # tiny, so an absolute tolerance would pass it
    1e20 * np.diag([1.0, -1.0, 1e-6]),
])
def test_killing_rejects_a_matrix_outside_sl_n(x):
    traceless_y = np.diag([1.0, -1.0, 0.0])[:len(x), :len(x)]
    with pytest.raises(LieFoliateError, match="trace"):
        killing_form(x, traceless_y)
    with pytest.raises(LieFoliateError, match="trace"):
        killing_form(traceless_y, x)


def test_killing_trace_tolerance_is_scale_invariant():
    rng = default_rng(5)
    for n in range(2, 9):
        x, y = traceless(rng, n), traceless(rng, n)
        for scale in (1e-20, 1e-8, 1.0, 1e8, 1e20):
            value = killing_form(scale * x, y)
            assert value == pytest.approx(scale * 2.0 * n * np.trace(x @ y), rel=1e-9)


def test_killing_accepts_every_shifted_random_matrix():
    # x - tr(x)/n I, as the verify criterion and the benchmark build them
    rng = default_rng(1729)
    for n in range(2, 9):
        for _ in range(200):
            x, y = traceless(rng, n), traceless(rng, n)
            killing_form(x, y)


def test_killing_symmetric_bilinear_ad_invariant():
    rng = default_rng(3)
    n = 4
    x, y, z = (traceless(rng, n) for _ in range(3))
    assert killing_form(x, y) == pytest.approx(killing_form(y, x), abs=1e-9)
    assert killing_form(x + 2.0 * z, y) == pytest.approx(
        killing_form(x, y) + 2.0 * killing_form(z, y), abs=1e-8
    )
    # B([z,x],y) + B(x,[z,y]) = 0
    lhs = killing_form(bracket(z, x).entries, y) + killing_form(x, bracket(z, y).entries)
    assert lhs == pytest.approx(0.0, abs=1e-8)


def test_killing_definiteness_on_k_and_p():
    rng = default_rng(11)
    for n in (2, 3, 5):
        x = traceless(rng, n)
        k, p = cartan_split(x)
        assert killing_form(k.entries, k.entries) < 0
        assert killing_form(p.entries, p.entries) > 0
        assert metric_inner(x, x) > 0


def test_killing_definiteness_on_standard_bases():
    n = 4
    k_basis = [e_matrix(n, i, j) - e_matrix(n, j, i) for i in range(n) for j in range(i + 1, n)]
    p_basis = [e_matrix(n, i, j) + e_matrix(n, j, i) for i in range(n) for j in range(i + 1, n)]
    p_basis += [h_matrix(n, i) for i in range(n - 1)]
    for k in k_basis:
        assert killing_form(k, k) < 0
    for p in p_basis:
        assert killing_form(p, p) > 0


def test_ad_matrix_dimensions_and_zero_on_center_directions():
    n = 3
    d = n * n - 1
    assert ad_matrix(np.diag([1.0, 0.0, -1.0])).shape == (d, d)
    assert len(sl_basis(n)) == d


# --- Cartan split and involution -------------------------------------------------


def test_cartan_split_examples():
    sym = np.array([[1.0, 2.0], [2.0, -1.0]])
    k, p = cartan_split(sym)
    assert np.abs(k.entries).max() == 0.0 and np.array_equal(p.entries, sym)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    k, p = cartan_split(skew)
    assert np.array_equal(k.entries, skew) and np.abs(p.entries).max() == 0.0
    e12 = e_matrix(2, 0, 1)
    k, p = cartan_split(e12)
    assert np.array_equal(k.entries, (e12 - e12.T) / 2)
    assert np.array_equal(p.entries, (e12 + e12.T) / 2)


def test_cartan_involution_fixes_k_negates_p():
    rng = default_rng(5)
    x = traceless(rng, 4)
    k, p = cartan_split(x)
    assert np.allclose(cartan_involution(k.entries).entries, k.entries)
    assert np.allclose(cartan_involution(p.entries).entries, -p.entries)
    assert np.allclose(k.entries + p.entries, x)


# --- restricted root space decomposition ----------------------------------------


def test_decompose_diagonal_gives_zero_part_only():
    x = np.diag([2.0, -1.0, -1.0])
    parts = restricted_root_decompose(x)
    assert set(parts) == {None}
    assert np.array_equal(parts[None].entries, x)


def test_decompose_single_matrix_unit():
    x = e_matrix(4, 0, 2)
    parts = restricted_root_decompose(x)
    root = Root((2, 0, -2, 0))
    assert set(parts) == {root}
    assert np.array_equal(parts[root].entries, x)


def test_decompose_generic_reassembles_exactly():
    rng = default_rng(9)
    x = traceless(rng, 5)
    parts = restricted_root_decompose(x)
    assert len(parts) == 21  # 20 root components and the diagonal
    total = sum(p.entries for p in parts.values())
    assert np.array_equal(total, x)


def test_decompose_components_are_simultaneous_eigenvectors():
    rng = default_rng(10)
    n = 4
    x = traceless(rng, n)
    parts = restricted_root_decompose(x)
    for i in range(n - 1):
        h = h_matrix(n, i)
        h_root = Root(tuple(int(2 * h[j, j]) for j in range(n)))
        for root, comp in parts.items():
            lam = 0.0 if root is None else float(
                sum(a * b for a, b in zip(root.coords, np.diag(h)))
            )
            assert np.allclose(
                bracket(h, comp.entries).entries, lam * comp.entries, atol=1e-12
            )


def test_root_space_bracket_grading():
    # [g_lam, g_mu] lies in g_{lam+mu}, or vanishes when lam+mu is not a root
    n = 4
    units = {(i, j): e_matrix(n, i, j) for i in range(n) for j in range(n) if i != j}
    for (i, j), x in units.items():
        for (k, l), y in units.items():
            br = bracket(x, y).entries
            expected = np.zeros((n, n))
            if j == k and i != l:
                expected += units[(i, l)]
            if l == i and k != j:
                expected -= units[(k, j)]
            if j == k and i == l:
                continue  # lands in the zero space (diagonal)
            assert np.array_equal(br, expected)


# --- Iwasawa group factorization -------------------------------------------------


def test_iwasawa_identity_and_n_fixed_points():
    f = iwasawa_group(np.eye(4))
    assert np.allclose(f.k, np.eye(4)) and np.allclose(f.a, np.eye(4)) and np.allclose(f.n, np.eye(4))
    g = np.array([[1.0, 3.0, -2.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    f = iwasawa_group(g)
    assert np.allclose(f.k, np.eye(3), atol=1e-14)
    assert np.allclose(f.a, np.eye(3), atol=1e-14)
    assert np.allclose(f.n, g, atol=1e-14)


def test_iwasawa_spec_example():
    g = np.array([[1.0, 0.0], [1.0, 1.0]])
    f = iwasawa_group(g)
    s2 = np.sqrt(2.0)
    assert np.allclose(f.k, np.array([[1.0, -1.0], [1.0, 1.0]]) / s2)
    assert np.allclose(f.a, np.diag([s2, 1.0 / s2]))
    assert np.allclose(f.n, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_iwasawa_factor_shapes():
    rng = default_rng(1)
    g = random_sl(5, rng)
    f = iwasawa_group(g)
    assert np.allclose(f.k @ f.k.T, np.eye(5), atol=1e-12)
    assert np.linalg.det(f.k) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(f.a, np.diag(np.diag(f.a)))
    assert np.all(np.diag(f.a) > 0)
    assert np.prod(np.diag(f.a)) == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(np.tril(f.n, -1), np.zeros((5, 5)))
    assert np.array_equal(np.diag(f.n), np.ones(5))


def test_iwasawa_round_trip_and_uniqueness():
    rng = default_rng(2024)
    for r in range(1, 7):
        n = r + 1
        for _ in range(100):
            g = random_sl(n, rng)
            f = iwasawa_group(g)
            assert np.abs(f.reassemble() - g).max() < 1e-10
            f2 = iwasawa_group(f.reassemble())
            assert np.abs(f2.k - f.k).max() < 1e-9
            assert np.abs(f2.a - f.a).max() < 1e-9
            assert np.abs(f2.n - f.n).max() < 1e-9


def test_iwasawa_rejects_wrong_determinant():
    with pytest.raises(LieFoliateError, match="determinant"):
        iwasawa_group(2.0 * np.eye(2))


def test_iwasawa_determinant_tolerance_does_not_grow_with_the_entries():
    # det = 2; a tolerance scaled by max|a|^n = 1e18 would let it through.
    with pytest.raises(LieFoliateError, match="determinant"):
        iwasawa_group(np.diag([1e3, 1e3, 1e3, 1e-3, 1e-3, 2e-3]))
    f = iwasawa_group(np.diag([1e3, 1e3, 1e3, 1e-3, 1e-3, 1e-3]))
    assert np.allclose(np.diag(f.a), [1e3, 1e3, 1e3, 1e-3, 1e-3, 1e-3])


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_non_finite_entries_are_rejected(bad):
    g = np.eye(2)
    g[0, 0] = bad
    with pytest.raises(LieFoliateError, match="finite"):
        iwasawa_group(g)
    with pytest.raises(LieFoliateError, match="finite"):
        MatrixElement(np.array([[bad, 0.0], [0.0, 0.0]]))


def test_random_sl_has_unit_determinant():
    rng = default_rng(77)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            g = random_sl(n, rng)
            assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("env_seed", ["555", "not-a-number"])
def test_default_seed_is_fixed_whatever_the_environment(monkeypatch, env_seed):
    monkeypatch.setenv("LIEFOLIATE_SEED", env_seed)
    assert np.array_equal(random_sl(3, default_rng()), random_sl(3, default_rng(1729)))


# --- derived subalgebra and subspaces --------------------------------------------


def test_derived_algebra_of_a_plus_n_is_n():
    r = 3
    n_dim = r + 1
    a_basis = [b.entries for b in a_subspace(r).basis]
    n_basis = [b.entries for b in n_subspace(r).basis]
    brackets = [
        bracket(x, y).entries
        for x in a_basis + n_basis
        for y in a_basis + n_basis
    ]
    flat = np.stack([b.ravel() for b in brackets])
    n_flat = np.stack([b.ravel() for b in n_basis])
    assert np.linalg.matrix_rank(flat) == len(n_basis)
    combined = np.vstack([flat, n_flat])
    assert np.linalg.matrix_rank(combined) == len(n_basis)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(LieFoliateError, match="dependent"):
        subspace([np.diag([1.0, -1.0]), np.diag([2.0, -2.0])])


def test_subspace_dims():
    assert a_subspace(4).dim == 4
    assert n_subspace(4).dim == 10
    assert a_phi_subspace(4, [1, 3]).dim == 2
    assert n_phi_subspace(4, [1, 3]).dim == 8
    assert p_phi_subspace(4, [1, 3]).dim == 4 + 2
    assert p_phi_s_subspace(4, [1, 3]).dim == 2 + 2
    assert q_phi_subspace(4, [1, 3]).dim == 16


# --- Lie triple systems -----------------------------------------------------------


def test_lie_triple_a_is_abelian():
    res = is_lie_triple(a_subspace(5))
    assert res.holds and res.residual == 0.0


def test_lie_triple_p_phi_for_sl5_phi1():
    res = is_lie_triple(p_phi_subspace(4, [1]))
    assert res.holds and res.residual < 1e-12


def test_lie_triple_exhaustive_small_ranks():
    for r in range(1, 6):
        for k in range(r + 1):
            for phi in itertools.combinations(range(1, r + 1), k):
                for builder in (p_phi_subspace, p_phi_s_subspace, a_phi_subspace):
                    res = is_lie_triple(builder(r, phi))
                    assert res.holds, (r, phi, builder.__name__)
                    assert res.residual < 1e-12


def _offdiagonal_sl3():
    return [(e_matrix(3, i, j) + e_matrix(3, j, i)) / 2.0 for i, j in ((0, 1), (0, 2), (1, 2))]


# 1e-170 and 1e170 square to below and above the float range.
SCALES = [10.0 ** k for k in range(-6, 7)] + [1e-170, 1e170]


@pytest.mark.parametrize("scale", SCALES)
def test_lie_triple_verdict_does_not_depend_on_the_scale_of_the_basis(scale):
    res = is_lie_triple(subspace([scale * m for m in _offdiagonal_sl3()]))
    assert not res.holds and res.residual > 0.1
    good = subspace([scale * b.entries for b in p_phi_subspace(3, (1, 2)).basis])
    res = is_lie_triple(good)
    assert res.holds and res.residual < 1e-12
    assert bracket_closure_residual(good) == pytest.approx(bracket_closure_residual(p_phi_subspace(3, (1, 2))))


def test_lie_triple_two_plane_closes():
    # span{(E12+E21)/2, (E13+E31)/2} is closed: [[X,Y],X] = -Y/4, [[X,Y],Y] = X/4,
    # verified here by brute-force triple brackets (it spans a geodesic RH^2).
    x = (e_matrix(3, 0, 1) + e_matrix(3, 1, 0)) / 2.0
    y = (e_matrix(3, 0, 2) + e_matrix(3, 2, 0)) / 2.0
    xy = bracket(x, y).entries
    assert np.allclose(bracket(xy, x).entries, -y / 4.0)
    assert np.allclose(bracket(xy, y).entries, x / 4.0)
    res = is_lie_triple(subspace([x, y]))
    assert res.holds and res.residual < 1e-12


def test_lie_triple_non_example_all_offdiagonal():
    mats = [
        (e_matrix(3, i, j) + e_matrix(3, j, i)) / 2.0
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    res = is_lie_triple(subspace(mats))
    assert not res.holds
    assert res.residual > 0.1
    # the escaping direction is diagonal: [[X,Y],Z] = diag(0, 1/4, -1/4)
    x, y, z = mats
    esc = bracket(bracket(x, y).entries, z).entries
    assert np.allclose(esc, np.diag([0.0, 0.25, -0.25]))


def test_lie_triple_rejects_non_symmetric_basis():
    with pytest.raises(LieFoliateError, match="symmetric"):
        is_lie_triple(subspace([e_matrix(3, 0, 1)]))


# --- foliation subalgebras --------------------------------------------------------


def test_s_phi_v_spec_examples():
    sl2 = catalog_lookup("sl(2,R)")
    s = build_s_phi_v(sl2, [], 0)
    assert s.dim == 1
    assert np.array_equal(s.basis[0].entries, e_matrix(2, 0, 1))  # the horocycle algebra n
    s = build_s_phi_v(sl2, [], 1)
    assert s.dim == 2  # all of a + n
    s = build_s_phi_v(sl2, [1], 0)
    assert s.dim == 1
    assert np.array_equal(s.basis[0].entries, h_matrix(2, 0))  # geodesic-and-equidistants


def test_s_phi_v_dimension_and_closure():
    # every enumerated (Phi, dim V) class gives an accepted, bracket-closed
    # subalgebra of matching dimension, across the ranks of the matrix model
    from liefoliate.foliations import enumerate_foliations

    for r in range(1, 6):
        space = catalog_lookup(f"SL{r + 1}")
        for c in enumerate_foliations(space, include_trivial=True):
            s = build_s_phi_v(space, c.phi, c.dim_v)
            assert s.dim == space.dimension - c.codim
            assert bracket_closure_residual(s) < 1e-12


def test_s_phi_v_validation():
    sl5 = catalog_lookup("SL5")
    with pytest.raises(LieFoliateError, match="orthogonal"):
        build_s_phi_v(sl5, [1, 2], 0)
    with pytest.raises(LieFoliateError, match="dim_v"):
        build_s_phi_v(sl5, [1, 3], 3)
    su = catalog_lookup("su(4,2)")
    with pytest.raises(LieFoliateError, match="sl\\(n,R\\)"):
        build_s_phi_v(su, [1], 0)


def test_q_phi_block_dimension_matches_parabolic():
    for r in range(1, 6):
        space = catalog_lookup(f"SL{r + 1}")
        for k in range(r + 1):
            for phi in itertools.combinations(range(1, r + 1), k):
                d = parabolic_data(space, phi_subset(space, phi))
                assert d.dim_q_phi == q_phi_block_dimension(r, phi)
                assert d.dim_q_phi == q_phi_subspace(r, phi).dim
                assert d.dim_n_phi == n_phi_subspace(r, phi).dim
                assert d.dim_p_phi == p_phi_subspace(r, phi).dim
                assert d.dim_p_phi_s == p_phi_s_subspace(r, phi).dim
