"""Unit tests for normal-family population depth and its constants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from halfdepth.geometry import sample_directions
from halfdepth.population import (
    DistributionSpec,
    affine_reduce,
    cdf_projected_many,
    elliptical_normal,
    population_depth,
    standard_normal,
    tail_probability_bound,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_standard_normal_constants():
    dist = standard_normal(3)
    assert dist.family == "standard_normal"
    assert dist.d == 3
    assert dist.lam == 1.0
    assert dist.ltheta == 0.0
    assert dist.lpi == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)
    np.testing.assert_array_equal(dist.mu_array, np.zeros(3))
    np.testing.assert_array_equal(dist.sigma_array, np.eye(3))
    with pytest.raises(ValueError):
        standard_normal(0)


def test_spec_dict_round_trip():
    dist = elliptical_normal([1.0, -2.0], [[4.0, 1.0], [1.0, 2.0]])
    data = dist.to_dict()
    assert set(data) == {"family", "d", "mu", "sigma", "lambda", "C1", "Lpi", "Ltheta"}
    back = DistributionSpec.from_dict(data)
    assert back == dist
    # int() and float() would take d=2.5 for 2 and a bool for 1; both
    # families refuse them, and a spec's d must match its mu.
    for spec in (data, standard_normal(2).to_dict()):
        for key, value, message in (
            ("d", 2.5, "d must be an integer, got 2.5"),
            ("d", True, "d must be a number, got True"),
            ("lambda", True, "lam must be a number, got True"),
        ):
            with pytest.raises(ValueError) as exc:
                DistributionSpec.from_dict({**spec, key: value})
            assert exc.value.args == (message,)
    with pytest.raises(ValueError, match="^mu has 2 coordinates, expected 3$"):
        DistributionSpec.from_dict({**data, "d": 3})


def test_elliptical_rejects_bad_covariance():
    with pytest.raises(ValueError):
        elliptical_normal([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        elliptical_normal([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(ValueError):
        elliptical_normal([0.0], [[1.0, 0.0], [0.0, 1.0]])  # dim mismatch


def test_elliptical_default_constants():
    sigma = np.diag([4.0, 1.0])
    dist = elliptical_normal([3.0, 0.0], sigma)
    assert dist.lam == pytest.approx(0.25)
    assert dist.lpi == pytest.approx(1.0 / SQRT_2PI)  # sigma_min = 1
    expected_ltheta = (3.0 + 3.0 / math.sqrt(math.e)) / SQRT_2PI
    assert dist.ltheta == pytest.approx(expected_ltheta, rel=1e-12)
    # explicit overrides win
    custom = elliptical_normal([3.0, 0.0], sigma, lam=0.1, lpi=0.2, ltheta=0.3, c1=7.0)
    assert (custom.lam, custom.lpi, custom.ltheta, custom.c1) == (0.1, 0.2, 0.3, 7.0)


def test_affine_reduce_round_trip():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    sigma = a @ a.T + 0.5 * np.eye(3)
    mu = rng.normal(size=3)
    red = affine_reduce(sigma, mu)
    x = rng.normal(size=(20, 3))
    np.testing.assert_allclose(red.from_reduced(red.to_reduced(x)), x, atol=1e-10)
    # decomposition reconstructs the covariance
    recon = red.rotation @ np.diag(red.scales ** 2) @ red.rotation.T
    np.testing.assert_allclose(recon, sigma, atol=1e-10)
    # scales sorted decreasing
    assert np.all(np.diff(red.scales) <= 1e-15)


def test_affine_reduce_whitens():
    sigma = np.array([[4.0, 1.0], [1.0, 2.0]])
    mu = np.array([1.0, -1.0])
    red = affine_reduce(sigma, mu)
    rng = np.random.default_rng(0)
    x = rng.multivariate_normal(mu, sigma, size=200_000)
    y = red.to_reduced(x)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(np.cov(y.T), np.eye(2), atol=0.02)


def test_affine_reduce_is_deterministic():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    a = affine_reduce(sigma, np.zeros(2))
    b = affine_reduce(sigma, np.zeros(2))
    np.testing.assert_array_equal(a.rotation, b.rotation)
    np.testing.assert_array_equal(a.scales, b.scales)


def test_distribution_keeps_its_reduction():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    dist = elliptical_normal([1.0, -0.5], sigma)
    red = dist.reduction
    assert dist.reduction is red
    fresh = affine_reduce(sigma, [1.0, -0.5])
    for name in ("rotation", "scales", "mu"):
        np.testing.assert_array_equal(getattr(red, name), getattr(fresh, name))
    # the kept map is read-only, so no caller can change it for the others
    with pytest.raises(ValueError):
        red.scales[0] = 1.0


def test_affine_reduce_rejects_singular():
    with pytest.raises(ValueError):
        affine_reduce(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2))


def test_cdf_projected_standard_normal():
    dist = standard_normal(2)
    theta = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
    for t in (-2.0, -0.3, 0.0, 1.7):
        got = cdf_projected_many(dist, theta, np.array([t]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(float(ndtr(t)), rel=1e-14)


def test_cdf_projected_elliptical_matches_norm():
    dist = elliptical_normal([1.0, 2.0], [[4.0, 1.0], [1.0, 2.0]])
    u = np.array([0.6, 0.8])
    mean = u @ dist.mu_array
    sd = math.sqrt(u @ dist.sigma_array @ u)
    for t in (-1.0, 0.5, 3.0):
        expected = norm.cdf(t, loc=mean, scale=sd)
        assert cdf_projected_many(dist, u[None, :], np.array([t]))[0] == pytest.approx(expected, rel=1e-12)


def test_cdf_projected_many_rejects_wrong_dimension():
    for dist in (standard_normal(2), elliptical_normal([1.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])):
        with pytest.raises(ValueError, match="direction has dimension 3, distribution has 2"):
            cdf_projected_many(dist, [[0.0, 0.0, 1.0]], [0.5])


def test_cdf_projected_many_matches_loop():
    dist = elliptical_normal([0.5, -0.5, 1.0], np.diag([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(4)
    dirs = sample_directions(3, 7, rng)
    t = rng.normal(size=7)
    got = cdf_projected_many(dist, dirs, t)
    expected = [cdf_projected_many(dist, u[None, :], np.array([tv]))[0] for u, tv in zip(dirs, t)]
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_population_depth_standard_normal_values():
    dist = standard_normal(2)
    assert population_depth(dist, [0.0, 0.0]) == 0.5
    assert population_depth(dist, [1.0, 0.0]) == pytest.approx(0.15865525393145707, rel=1e-12)
    assert population_depth(dist, [0.0, -1.0]) == pytest.approx(0.15865525393145707, rel=1e-12)
    # radial symmetry
    q = np.array([0.3, 0.4])
    assert population_depth(dist, q) == pytest.approx(float(ndtr(-0.5)), rel=1e-12)


def test_population_depth_elliptical_is_whitened_norm():
    sigma = np.array([[4.0, 1.0], [1.0, 2.0]])
    mu = np.array([1.0, -1.0])
    dist = elliptical_normal(mu, sigma)
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.normal(size=2) * 2.0
        w = np.linalg.solve(np.linalg.cholesky(sigma), q - mu)
        expected = float(ndtr(-np.linalg.norm(w)))
        assert population_depth(dist, q) == pytest.approx(expected, rel=1e-10)


def test_population_depth_affine_invariance():
    rng = np.random.default_rng(21)
    base = standard_normal(2)
    a = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    b = rng.normal(size=2)
    dist = elliptical_normal(b, a @ a.T)
    for _ in range(10):
        q = rng.normal(size=2)
        assert population_depth(dist, a @ q + b) == pytest.approx(
            population_depth(base, q), rel=1e-10
        )


def test_population_depth_one_dimensional():
    dist = standard_normal(1)
    assert population_depth(dist, [0.0]) == 0.5
    assert population_depth(dist, [2.0]) == pytest.approx(float(ndtr(-2.0)), rel=1e-12)


def test_population_depth_rejects_non_finite_query():
    sigma = np.array([[4.0, 1.0], [1.0, 2.0]])
    for dist in (standard_normal(2), elliptical_normal(np.zeros(2), sigma)):
        for q in ([np.nan, 0.0], [0.0, -np.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                population_depth(dist, q)


def test_tail_probability_bound_formula():
    dist = standard_normal(3)  # 3d - 5 = 4
    r = 2.5
    expected = r ** 4 * math.exp(-(r ** 2) / 2.0)
    assert tail_probability_bound(dist, r) == pytest.approx(expected, rel=1e-12)
    scaled = replace(standard_normal(3), c1=3.0)
    assert tail_probability_bound(scaled, r) == pytest.approx(3.0 * expected, rel=1e-12)
    with pytest.raises(ValueError):
        tail_probability_bound(dist, 1.0)


def test_tail_probability_bound_negative_power_d2():
    # 3d - 5 = 1 at d=2
    dist = standard_normal(2)
    r = 3.0
    assert tail_probability_bound(dist, r) == pytest.approx(r * math.exp(-4.5), rel=1e-12)


def test_tail_bound_dominates_empirical_tail():
    dist = standard_normal(2)
    rng = np.random.default_rng(123)
    x = rng.standard_normal((200_000, 2))
    norms = np.linalg.norm(x, axis=1)
    for r in (1.5, 2.0, 2.5):
        empirical = float(np.mean(norms > r))
        # exact tail for d=2 is e^(-r^2/2); the envelope is r * that
        assert empirical == pytest.approx(math.exp(-(r ** 2) / 2.0), abs=3e-3)
        assert tail_probability_bound(dist, r) >= empirical
