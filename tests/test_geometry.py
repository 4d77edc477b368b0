"""Geometry oracles: closed forms, metric axioms, isometry invariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hypersample import geometry as geo
from hypersample.bandlimited import synthesize
from hypersample.spectral import build_grid


def sphere_area(r) -> np.ndarray:
    """Circumference S(r) = 2 pi sinh r of the geodesic sphere of radius r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return 2.0 * np.pi * np.sinh(r)


def test_distance_origin_closed_form():
    # the point at Euclidean radius tanh(s/2) sits at hyperbolic distance s
    for s in (0.25, 1.0, 3.0, 7.0):
        z = math.tanh(s / 2.0)
        assert geo.distance(0.0, z) == pytest.approx(s, abs=1e-13)


def test_distance_matches_arccosh_form():
    rng = np.random.default_rng(7)
    x = geo.random_ball_points(4.0, 64, rng)
    y = geo.random_ball_points(4.0, 64, rng)
    d1 = geo.distance(x, y)
    d2 = np.arccosh(
        1.0 + 2.0 * np.abs(x - y) ** 2 / ((1.0 - np.abs(x) ** 2) * (1.0 - np.abs(y) ** 2))
    )
    assert np.max(np.abs(d1 - d2)) < 1e-10


def test_metric_axioms():
    rng = np.random.default_rng(11)
    x = geo.random_ball_points(3.0, 200, rng)
    y = geo.random_ball_points(3.0, 200, rng)
    z = geo.random_ball_points(3.0, 200, rng)
    dxy = geo.distance(x, y)
    assert np.all(dxy >= 0)
    assert np.max(np.abs(geo.distance(x, x))) == 0.0
    assert np.max(np.abs(dxy - geo.distance(y, x))) < 1e-13
    assert np.all(geo.distance(x, z) <= dxy + geo.distance(y, z) + 1e-12)


def test_sphere_and_ball_closed_forms():
    assert sphere_area(1.0) == pytest.approx(2.0 * math.pi * math.sinh(1.0), rel=1e-14)
    assert geo.ball_volume(1.0) == pytest.approx(2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-14)
    assert geo.ball_volume(0.0) == 0.0


def test_ball_volume_integrates_sphere_area():
    for R in (0.5, 2.0, 5.0):
        val, _ = quad(lambda s: float(sphere_area(s)), 0.0, R)
        assert val == pytest.approx(float(geo.ball_volume(R)), rel=1e-10)


def test_small_radius_euclidean_limit():
    # curvature corrections are O(r^2): B(r) ~ pi r^2, S(r) ~ 2 pi r
    r = 1e-4
    assert geo.ball_volume(r) == pytest.approx(math.pi * r * r, rel=1e-7)
    assert sphere_area(r) == pytest.approx(2.0 * math.pi * r, rel=1e-7)


def test_poisson_kernel_normalization():
    # exp(2 rho A(x, b)) = P(x, b) integrates to 1 in db = dtheta / (2 pi)
    n = 4096
    theta = 2.0 * np.pi * np.arange(n) / n
    for z in (0.0, 0.3 + 0.4j, -0.85j, 0.97):
        p = np.exp(2.0 * geo.RHO * geo.busemann(z, theta))
        assert p.mean() == pytest.approx(1.0, abs=1e-10)


def test_space_params_carry_only_the_density_scale():
    # rho is fixed by the plane (geo.RHO), not a setting
    with pytest.raises(TypeError):
        geo.SpaceParams(rho=0.7)
    with pytest.raises(ValueError):
        geo.SpaceParams(plancherel_scale=0.0)
    assert geo.SpaceParams().with_scale(2.0).plancherel_scale == 2.0


def test_busemann_origin_and_signs():
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    assert np.max(np.abs(geo.busemann(0.0, theta))) == 0.0
    # moving straight toward b increases A like +distance
    s = 2.0
    z = math.tanh(s / 2.0)
    assert geo.busemann(z, 0.0) == pytest.approx(s, abs=1e-12)
    assert geo.busemann(z, math.pi) == pytest.approx(-s, abs=1e-12)


def test_busemann_stable_near_alignment():
    # at r = 12 toward b the Poisson kernel is ~e^12; the naive |x-b|^2 form
    # loses most digits, the stable form must not
    s = 12.0
    z = math.tanh(s / 2.0)
    assert geo.busemann(z, 0.0) == pytest.approx(s, rel=1e-12)


def test_mobius_translate_is_isometry():
    rng = np.random.default_rng(3)
    x = geo.random_ball_points(2.5, 128, rng)
    y = geo.random_ball_points(2.5, 128, rng)
    a = 0.37 - 0.52j
    d0 = geo.distance(x, y)
    d1 = geo.distance(geo.mobius_translate(a, x), geo.mobius_translate(a, y))
    assert np.max(np.abs(d0 - d1)) < 1e-12


def _disk_point(s, theta):
    # the point at hyperbolic radius s and angle theta
    return math.tanh(s / 2.0) * complex(math.cos(theta), math.sin(theta))


_radius = st.floats(0.0, 3.0)
_angle = st.floats(-math.pi, math.pi)


@settings(max_examples=80, deadline=None)
@given(sx=_radius, tx=_angle, sy=_radius, ty=_angle, sa=st.floats(0.0, 2.0),
       ta=_angle, phi=_angle)
def test_distance_invariant_under_mobius_maps_and_rotations(sx, tx, sy, ty,
                                                            sa, ta, phi):
    x, y, a = _disk_point(sx, tx), _disk_point(sy, ty), _disk_point(sa, ta)
    rot = complex(math.cos(phi), math.sin(phi))
    d0 = float(geo.distance(x, y))
    d_mob = float(geo.distance(geo.mobius_translate(a, x),
                               geo.mobius_translate(a, y)))
    d_rot = float(geo.distance(rot * x, rot * y))
    assert d_mob == pytest.approx(d0, rel=1e-10, abs=1e-10)
    assert d_rot == pytest.approx(d0, rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(s=_radius, theta=_angle, b=_angle, phi=_angle)
def test_busemann_invariant_under_rotation(s, theta, b, phi):
    # A(e^{i phi} x, b + phi) = A(x, b)
    x = _disk_point(s, theta)
    rot = complex(math.cos(phi), math.sin(phi))
    a0 = float(geo.busemann(x, b))
    assert float(geo.busemann(rot * x, b + phi)) == pytest.approx(
        a0, rel=1e-11, abs=1e-11)


@settings(max_examples=80, deadline=None)
@given(s=_radius, theta=_angle, b=_angle, sa=st.floats(0.0, 2.0), ta=_angle)
def test_busemann_covariant_under_mobius_maps(s, theta, b, sa, ta):
    # the cocycle A(g x, g b) = A(x, b) + A(g 0, g b) for g = mobius(a, .)
    x, a = _disk_point(s, theta), _disk_point(sa, ta)
    b_img = float(np.angle(geo.mobius_translate(a, complex(math.cos(b),
                                                           math.sin(b)))))
    lhs = float(geo.busemann(geo.mobius_translate(a, x), b_img))
    rhs = float(geo.busemann(x, b)) + float(geo.busemann(a, b_img))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_mobius_translate_moves_origin():
    a = 0.3 + 0.1j
    assert geo.mobius_translate(a, 0.0) == pytest.approx(a)


def test_circle_points_radius_and_spacing():
    c, tau, m = 0.5 + 0.2j, 1.3, 48
    pts = geo.circle_points(c, tau, m)
    d = geo.distance(c, pts)
    assert np.max(np.abs(d - tau)) < 1e-12
    gaps = geo.distance(pts, np.roll(pts, -1))
    assert np.max(np.abs(gaps - gaps[0])) < 1e-12


def test_circle_points_zero_radius():
    pts = geo.circle_points(0.2j, 0.0, 5)
    assert np.all(pts == 0.2j)


def _coercion_cases():
    grid = build_grid(geo.SpaceParams(), 8.0, 24, 16, omega=2.0)
    f = synthesize(grid, seed=3)
    return {
        "distance": lambda z: geo.distance(z, 0.4 - 0.1j),
        "busemann": lambda z: geo.busemann(z, 0.7),
        "mobius_translate": lambda z: geo.mobius_translate(z, 0.2 + 0.3j),
        "mobius_translate_z": lambda z: geo.mobius_translate(0.2 + 0.3j, z),
        # one center: the one-point list gives the same circle
        "circle_points": lambda z: geo.circle_points(z, 0.8, 7),
        "evaluate": f.evaluate,
    }


@pytest.mark.parametrize("name", list(_coercion_cases()))
def test_points_coerce_bit_identically(name):
    # a Python complex, a list and an array of the same points give the same
    # bits; np.asarray(..., dtype=complex) is the one coercion
    fn = _coercion_cases()[name]
    pts = [0.3 + 0.1j, -0.2 + 0.5j, 0.05j]
    one = fn(np.asarray(pts[0]))
    assert np.array_equal(fn(pts[0]), one)
    assert np.array_equal(fn([pts[0]]), one if name == "circle_points"
                          else one[None])
    if name != "circle_points":
        want = fn(np.array(pts))
        assert np.array_equal(fn(pts), want)
        assert np.array_equal(fn(tuple(pts)), want)


@pytest.mark.parametrize("edge", [1.0, 1.0 - 1e-13, -0.6 + 0.8j])
def test_boundary_points_are_rejected(edge):
    # within 1e-12 of the unit circle busemann and circle_points refuse
    with pytest.raises(ValueError, match="boundary"):
        geo.busemann(edge, 0.3)
    with pytest.raises(ValueError, match="boundary"):
        geo.circle_points(edge, 0.5, 4)
    with pytest.raises(ValueError, match="boundary"):
        geo.busemann([0.1, edge], 0.3)


def test_multiplicity_bound_finite_and_monotone_frame():
    # small-r limit is B(3r)/B(r/4) -> 144; the bound grows with r and stays
    # below 300 up to r = 1
    bounds = [geo.multiplicity_bound(r) for r in np.linspace(1e-4, 1.0, 64)]
    assert np.all(np.diff(bounds) > 0)
    assert geo.multiplicity_bound(1e-6) == pytest.approx(144.0, rel=1e-6)
    assert 144.0 < bounds[-1] < 300.0


def test_random_ball_points_distribution():
    rng = np.random.default_rng(19)
    R = 2.0
    pts = geo.random_ball_points(R, 20000, rng)
    s = geo.distance(0.0, pts)
    assert np.max(s) <= R + 1e-12
    # fraction inside radius r estimates B(r)/B(R)
    frac = np.mean(s <= 1.0)
    expect = float(geo.ball_volume(1.0) / geo.ball_volume(R))
    assert frac == pytest.approx(expect, abs=0.02)


def test_random_ball_points_rejects_a_negative_radius():
    # cosh is even: a negative radius would sample the ball of |radius|
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="negative ball radius"):
        geo.random_ball_points(-0.1, 10, rng)
    assert not np.any(geo.random_ball_points(0.0, 10, rng))


def test_euclidean_radius_roundtrip():
    tau = 3.7
    assert geo.distance(0.0, geo.euclidean_radius(tau)) == pytest.approx(tau, abs=1e-12)
