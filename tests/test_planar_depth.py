"""The planar sweep against an exact rational oracle, under exact maps and ties."""

from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfdepth.sample_depth import (
    Sample,
    _planar_depth_counts,
    depth_brute,
    depth_exact_2d,
    depth_exact_2d_many,
)


def _half(v):
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def _by_angle(v, w):
    if _half(v) != _half(w):
        return _half(v) - _half(w)
    cross = v[0] * w[1] - v[1] * w[0]
    return -1 if cross > 0 else int(cross < 0)


def oracle_depth(points, q) -> int:
    """Exact planar depth of q by the critical-direction definition, in rationals.

    With y = x - q, the closed count #{y : y.u >= 0} changes only at the
    critical directions u perpendicular to some y != 0, and there it is
    no smaller than on the open arcs beside it. So the depth is the least
    count at one direction inside each open arc between angularly
    consecutive critical directions.
    """
    qx, qy = Fraction(q[0]), Fraction(q[1])
    ys = [(Fraction(a) - qx, Fraction(b) - qy) for a, b in points]
    critical = set()
    for a, b in ys:
        if a or b:
            # dividing by max(|a|, |b|) gives one key per direction
            scale = max(abs(a), abs(b))
            critical |= {(-b / scale, a / scale), (b / scale, -a / scale)}
    if not critical:
        return len(ys)
    ordered = sorted(critical, key=cmp_to_key(_by_angle))
    inside = []
    for v, w in zip(ordered, ordered[1:] + ordered[:1]):
        if v[0] * w[1] - v[1] * w[0] > 0:
            inside.append((v[0] + w[0], v[1] + w[1]))
        else:
            # w = -v: the open arc is a half-circle, centred on v turned by pi/2
            inside.append((-v[1], v[0]))
    return min(sum(a * u + b * v >= 0 for a, b in ys) for u, v in inside)


# Maps that are exact in floating point on half-integer grids and keep depth.
EXACT_MAPS = {
    "identity": lambda p: p,
    "scale 2^-40": lambda p: p * 2.0**-40,
    "scale 2^30": lambda p: p * 2.0**30,
    "shift 2^20": lambda p: p + np.array([2.0**20, -(2.0**20)]),
    "scale 2^30, shift 2^20": lambda p: p * 2.0**30 + 2.0**20,
    "rotate 90": lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1),
    "rotate 180": lambda p: -p,
    "swap": lambda p: p[:, ::-1],
    "flip x": lambda p: p * np.array([-1.0, 1.0]),
}


def _assert_agrees(points, queries):
    points, queries = np.asarray(points, dtype=float), np.asarray(queries, dtype=float)
    want = [oracle_depth(points, q) for q in queries]
    for name, f in EXACT_MAPS.items():
        s, qs = Sample(f(points)), f(queries)
        assert depth_exact_2d_many(qs, s).tolist() == want, name
        assert [depth_brute(q, s).count for q in qs] == want, name


def test_oracle_on_hand_counted_cases():
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert oracle_depth(square, (0, 0)) == 2
    assert oracle_depth(square, (1, 0)) == 1
    assert oracle_depth(square, (2, 0)) == 0
    assert oracle_depth([(1, 1)] * 3, (1, 1)) == 3
    assert oracle_depth([(0, 0), (1, 0), (2, 0), (3, 0)], (1.5, 0)) == 2
    assert oracle_depth([(1, 0), (-1, 0)], (0, 0)) == 1


@st.composite
def grid_cases(draw):
    cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    base = draw(st.lists(cell, min_size=1, max_size=7))
    repeats = draw(st.lists(st.sampled_from(base), max_size=4))
    points = base + repeats
    on_grid = st.sampled_from(points)
    half_grid = st.tuples(st.integers(-7, 7), st.integers(-7, 7)).map(lambda t: (t[0] / 2, t[1] / 2))
    queries = draw(st.lists(st.one_of(on_grid, half_grid), min_size=1, max_size=4))
    return points, queries


@settings(max_examples=80)
@given(grid_cases())
def test_exact_2d_equals_brute_and_rational_oracle_under_exact_maps(case):
    _assert_agrees(*case)


# Directions v for which the rounded antipode of one of q +- v's angles,
# theta -+ pi or theta + pi reduced mod 2 pi, misses the other's rounded
# angle by an ulp.
ANTIPODAL_MISSES = [(4, 1), (3, 2), (-3, 2), (5, 4), (2, 1), (4, 5)]


@pytest.mark.parametrize("q", [(0.0, 0.0), (0.0, 1.5)])
@pytest.mark.parametrize("direction", ANTIPODAL_MISSES, ids=str)
def test_antipodal_pairs_count_on_the_boundary(direction, q):
    v, q = np.asarray(direction, dtype=float), np.asarray(q)
    pair = [q + v, q - v]
    assert depth_exact_2d(q, Sample(pair)).count == 1
    _assert_agrees(pair + [q + 2 * v, q + (1, 0)], [q, q + v])


@pytest.mark.parametrize("q", [(0.0, 0.0), (0.0, 1.5)])
def test_all_antipodal_misses_together(q):
    q = np.asarray(q)
    pairs = [q + s * np.asarray(v, dtype=float) for v in ANTIPODAL_MISSES for s in (1, -1)]
    assert depth_exact_2d(q, Sample(pairs)).count == len(ANTIPODAL_MISSES)
    _assert_agrees(pairs, [q, pairs[0], (q + pairs[0]) / 2])


def test_tie_run_across_the_seam():
    # (1, -2^-60) has angle 2 pi after rounding, the same direction as
    # (1, 0) at angle 0: the run crosses the seam.
    pts = [(1.0, 0.0), (1.0, -(2.0**-60)), (-1.0, 0.0), (2.0, 0.0)]
    assert depth_exact_2d((0.0, 0.0), Sample(pts)).count == depth_brute((0.0, 0.0), Sample(pts)).count == 1
    # (1, -4e-15) at angle 2 pi - 4e-15 and (1, 0) at 0 are one tie run, so
    # the half-circle opens before both and holds (-1, 9.1e-15), whose
    # angle is pi - 9.1e-15: 2e-15 inside the window that opens on (1, 0),
    # 2e-15 outside the one that opens on (1, -4e-15). No closed halfplane
    # through the origin misses all three; depth_brute, whose tie
    # tolerance is 1e-12 R_q, puts them on one line and counts 1. Windows
    # open counterclockwise, so a reflection, which turns them clockwise,
    # may count this straddle of TIE_ANGLE differently; rotations may not.
    pts = np.array([(1.0, 0.0), (1.0, -4e-15), (-1.0, 9.1e-15)])
    assert oracle_depth(pts, (0, 0)) == 0
    for name in ("identity", "scale 2^-40", "rotate 90", "rotate 180"):
        assert depth_exact_2d((0.0, 0.0), Sample(EXACT_MAPS[name](pts))).count == 0, name


@pytest.mark.parametrize("grid", [False, True], ids=["normal", "integer-grid"])
def test_stack_kernel_equals_single_query_calls(grid):
    rng = np.random.default_rng(91 + grid)
    for n in (1, 2, 7, 60):
        if grid:
            stack = rng.integers(-2, 3, size=(12, n, 2)).astype(float)
        else:
            stack = rng.normal(size=(12, n, 2))
        counts = _planar_depth_counts(stack[..., 0], stack[..., 1])
        assert counts.tolist() == [depth_exact_2d((0.0, 0.0), Sample(pts)).count for pts in stack]
        if grid and n <= 7:
            assert counts.tolist() == [oracle_depth(pts, (0, 0)) for pts in stack]


def test_empty_query_block_returns_empty_integer_array():
    counts = depth_exact_2d_many(np.empty((0, 2)), Sample(np.ones((3, 2))))
    assert counts.shape == (0,)
    assert counts.dtype.kind == "i"
