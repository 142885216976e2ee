"""SL_2 action on the upper half plane."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefoliate import slmodel
from liefoliate.errors import LieFoliateError
from liefoliate.slmodel import MAX_ORBIT_SAMPLES, a_factor, halfplane_orbit, k_factor, linspace, moebius, n_factor, random_sl
from matrices import diag, eye, matmul, scale

params = st.floats(-3.0, 3.0, allow_nan=False)
upper_half = st.tuples(st.floats(-5.0, 5.0), st.floats(0.05, 10.0)).map(
    lambda t: complex(t[0], t[1])
)


def test_k_fixes_i():
    for s in linspace(0.0, 2.0 * math.pi, 17):
        assert abs(moebius(k_factor(s), 1j) - 1j) < 1e-12


def test_a_orbit_is_the_exponential_geodesic():
    for t in linspace(-3.0, 3.0, 13):
        assert abs(moebius(a_factor(t), 1j) - math.exp(2.0 * t) * 1j) < 1e-12


def test_n_translates_horizontally():
    z = 0.4 + 2.5j
    for u in linspace(-3.0, 3.0, 13):
        w = moebius(n_factor(u), z)
        assert abs(w - (z + u)) < 1e-12


def test_moebius_preserves_upper_half_plane():
    g = matmul(matmul(k_factor(0.7), a_factor(0.4)), n_factor(-1.2))
    z = -1.5 + 0.25j
    assert moebius(g, z).imag > 0


@given(params, params, params, upper_half)
@settings(max_examples=60, deadline=None)
def test_moebius_group_action(s, t, u, z):
    g1 = matmul(k_factor(s), a_factor(t))
    g2 = n_factor(u)
    lhs = moebius(matmul(g1, g2), z)
    rhs = moebius(g1, moebius(g2, z))
    assert abs(lhs - rhs) < 1e-9


def test_moebius_rejects_bad_inputs():
    with pytest.raises(LieFoliateError, match="determinant"):
        moebius(scale(2.0, eye(2)), 1j)
    with pytest.raises(LieFoliateError, match="upper half plane"):
        moebius(eye(2), 1.0 - 1j)
    with pytest.raises(LieFoliateError, match="2x2"):
        moebius(eye(3), 1j)
    with pytest.raises(LieFoliateError, match="determinant"):
        moebius(diag([1e6, 2e-6]), 1j)
    with pytest.raises(LieFoliateError, match="upper half plane"):
        moebius(eye(2), complex(math.nan, 1.0))
    # a_factor(3) scales by e^6, past the largest float: the image was nan+infj
    with pytest.raises(LieFoliateError, match=r"the image \(nan\+infj\) of the point 1e\+308j is not finite"):
        moebius(a_factor(3.0), 1e308j)
    # cz+d = 1e-300 * 1e-300j underflows to 0: raised ZeroDivisionError
    with pytest.raises(LieFoliateError, match=r"^the image \(inf\+0j\) of the point 1e-300j is not finite$"):
        moebius([[0.0, -1e300], [1e-300, 0.0]], 1e-300j)


def test_moebius_reads_the_point_before_the_matrix():
    # the point's "upper half plane" came after the matrix's checks
    with pytest.raises(LieFoliateError, match="upper half plane"):
        moebius(eye(3), 1.0 - 1j)
    with pytest.raises(LieFoliateError, match="upper half plane"):
        moebius(scale(2.0, eye(2)), 1.0 - 1j)


@pytest.mark.parametrize("point", ["2j", "abc", True, None, [1j], object()])
def test_moebius_and_halfplane_orbit_refuse_a_point_that_is_no_number(point):
    # complex() read "2j" as a point, and raised ValueError or TypeError for the others
    with pytest.raises(LieFoliateError, match="not a number"):
        moebius(eye(2), point)
    with pytest.raises(LieFoliateError, match="not a number"):
        halfplane_orbit("K", 2, point)


def test_kan_decomposition_of_sl2_matches_generators():
    # every K(s) A(t) N(u) product has determinant one
    for s, t, u in [(0.3, -0.5, 2.0), (1.2, 1.0, -0.7)]:
        g = matmul(matmul(k_factor(s), a_factor(t)), n_factor(u))
        assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == pytest.approx(1.0, abs=1e-12)


def test_halfplane_orbit_kinds():
    pts = halfplane_orbit("K", 8)
    assert len(pts) == 8
    assert all(abs(p - 1j) < 1e-9 for p in pts)  # K stabilizes the base point i
    pts = halfplane_orbit("K", 8, base=2j)
    assert any(abs(p - 2j) > 0.1 for p in pts)  # circles around i, not through it
    pts = halfplane_orbit("A", 9)
    assert all(abs(p.real) < 1e-12 for p in pts)
    assert pts[0].imag < pts[-1].imag
    pts = halfplane_orbit("N", 9, base=0.5 + 1.5j)
    assert all(abs(p.imag - 1.5) < 1e-12 for p in pts)


def test_halfplane_orbit_validation():
    for kind in ("Q", 5, None):  # 5 raised AttributeError
        with pytest.raises(LieFoliateError, match="orbit kind"):
            halfplane_orbit(kind, 5)
    for samples in (0, -1, True, 2.5, "3", None):  # True gave [1j]; 2.5 and "3" raised TypeError
        with pytest.raises(LieFoliateError, match="samples"):
            halfplane_orbit("K", samples)
    for base in (1.0 - 1.0j, 2.0, complex(math.inf, 1.0), complex(0.0, math.nan)):
        with pytest.raises(LieFoliateError, match="upper half plane"):
            halfplane_orbit("K", 5, base=base)
    with pytest.raises(LieFoliateError, match="is not finite"):  # gave [nan+infj, ...]
        halfplane_orbit("A", 2, base=1e308j)


@pytest.mark.parametrize("kind", ["K", "A", "N"])
def test_halfplane_orbit_refuses_samples_above_its_ceiling_before_building_a_matrix(monkeypatch, kind):
    assert len(halfplane_orbit(kind, MAX_ORBIT_SAMPLES)) == MAX_ORBIT_SAMPLES

    def built(*args):
        raise AssertionError("a matrix was built")

    for name in ("k_factor", "a_factor", "n_factor", "linspace"):
        monkeypatch.setattr(slmodel, name, built)
    with pytest.raises(LieFoliateError, match=f"ceiling MAX_ORBIT_SAMPLES = {MAX_ORBIT_SAMPLES}"):
        halfplane_orbit(kind, MAX_ORBIT_SAMPLES + 1)


def test_linspace_spaces_as_numpy_does():
    assert linspace(-3.0, 3.0, 0) == []  # was [-3.0]
    assert linspace(-3.0, 3.0, 1) == [-3.0]
    assert linspace(-3.0, 3.0, 5) == [-3.0, -1.5, 0.0, 1.5, 3.0]
    np = pytest.importorskip("numpy")
    for num in (0, 2, 3, 13, 25, 64):
        assert linspace(0.0, 2.0 * math.pi, num) == np.linspace(0.0, 2.0 * math.pi, num).tolist()


@pytest.mark.parametrize("num", [-1, -5, 2.5, "3", True, None])
def test_linspace_refuses_a_count_that_is_negative_or_no_int(num):
    # a negative count gave [0.0], and 2.5 and "3" raised TypeError
    with pytest.raises(LieFoliateError, match=r"must be an int >= 0"):
        linspace(0.0, 1.0, num)


@pytest.mark.parametrize("n", [0, -2, True, 2.0, "3"])
def test_random_sl_size_validation(n):
    # random_sl(0) raised ZeroDivisionError
    with pytest.raises(LieFoliateError, match="int >= 1"):
        random_sl(n)
