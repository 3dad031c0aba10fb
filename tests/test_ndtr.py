"""population._ndtr, Cephes' ndtr in Python floats, against scipy.special.ndtr.

scipy is the oracle here: the package computes Phi without it, and must
get the same double from every input, bit for bit. The table that
sup_deviation scores its KS terms with must stay within its margin.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from halfdepth.population import _TABLE_MARGIN, _TABLE_NODES, _ndtr, _phi, _phi_interpolated


def same_bits(got, want):
    """Equal as doubles, bit for bit (signed zeros told apart), or both nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    both_nan = np.isnan(got) & np.isnan(want)
    return bool(np.all(both_nan | (got.view(np.int64) == want.view(np.int64))))


def test_ndtr_equals_scipy_on_a_million_seeded_points():
    # Standard normal points at log-uniform scales from 0.5 to 30, which
    # reach every branch: erf, erfc by P/Q and by R/S, and the underflow.
    rng = np.random.default_rng(20240)
    x = rng.standard_normal(10**6) * np.exp(rng.uniform(math.log(0.5), math.log(30.0), 10**6))
    assert np.abs(x).max() > 40.0
    assert same_bits(_phi(x), ndtr(x))


def _edges():
    lo, hi = 37.0, 38.0
    for _ in range(80):
        # the underflow edge: the smallest a with (a / sqrt 2)^2 past MAXLOG
        mid = 0.5 * (lo + hi)
        z = mid * 0.70710678118654752440
        lo, hi = (lo, mid) if -z * z < -7.09782712893383996843e2 else (mid, hi)
    return [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), hi, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300]


def test_ndtr_equals_scipy_at_every_branch_edge_and_its_neighbours():
    points = []
    for edge in _edges():
        for a in (edge, -edge):
            below = above = a
            points.append(a)
            for _ in range(6):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                points += [float(below), float(above)]
    points += [math.inf, -math.inf, math.nan, -0.0]
    for a in points:
        assert type(_ndtr(a)) is float
        assert same_bits(_ndtr(a), ndtr(a)), a
    assert _ndtr(math.inf) == 1.0 and _ndtr(-math.inf) == 0.0 and math.isnan(_ndtr(math.nan))
    assert _ndtr(-40.0) == 0.0 and _ndtr(-37.0) > 0.0


@settings(max_examples=2000)
@given(a=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_ndtr_equals_scipy_on_any_float(a):
    assert same_bits(_ndtr(a), ndtr(a))


@pytest.mark.parametrize(
    "x", [0.3, np.float64(-1.7), np.array(2.5), np.linspace(-9, 9, 7), np.arange(12.0).reshape(3, 4) - 6.0],
    ids=["float", "numpy-scalar", "0-d", "1-d", "2-d"],
)
def test_phi_keeps_the_shape_of_its_input(x):
    got = _phi(x)
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.shape == np.shape(x)
    assert same_bits(got, ndtr(x))


def test_table_interpolant_is_within_its_margin_of_ndtr():
    # A million points on [-12, 12], past both ends of the table, plus the
    # nodes and the midpoints between them, where the error peaks.
    x = np.random.default_rng(7).uniform(-12.0, 12.0, 10**6)
    nodes = _TABLE_NODES
    assert nodes[0] == -9.0 and nodes[-1] == 9.0 and np.all(np.diff(nodes) == 1.0 / 64.0)
    x = np.concatenate((x, nodes, 0.5 * (nodes[:-1] + nodes[1:])))
    error = np.abs(_phi_interpolated(x) - _phi(x))
    assert error.max() <= _TABLE_MARGIN
    # The bound is tight: the midpoints next to |t| = 1 reach 0.9999 of it,
    # so a margin looser than the interpolation bound fails here.
    assert error.max() > 0.999 * _TABLE_MARGIN
