"""Unit tests for sample halfspace depth: exact, brute-force, and certified."""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import kstest

from halfdepth.geometry import SphericalCover, build_cover
from halfdepth.population import standard_normal
from halfdepth.sample_depth import (
    DepthInterval,
    DepthValue,
    Sample,
    depth_1d,
    depth_approx,
    depth_brute,
    depth_certified,
    depth_certified_many,
    depth_exact_2d,
    depth_exact_2d_many,
    ks_statistic,
    sup_deviation,
)


# ---------------------------------------------------------------- containers


def test_depth_value_fields():
    v = DepthValue(count=2, n=8)
    assert v.value == 0.25
    assert v.to_dict() == {"count": 2, "n": 8, "value": 0.25}
    with pytest.raises(ValueError):
        DepthValue(count=9, n=8)
    with pytest.raises(ValueError):
        DepthValue(count=-1, n=8)


def test_depth_interval_fields():
    iv = DepthInterval(lower=0.1, upper=0.3, psi=0.05, radius=2.0)
    assert iv.to_dict() == {"lower": 0.1, "upper": 0.3, "psi": 0.05, "R": 2.0}
    with pytest.raises(ValueError):
        DepthInterval(lower=0.4, upper=0.3, psi=0.05, radius=2.0)


def test_sample_promotes_1d_input():
    s = Sample(np.array([3.0, 1.0, 2.0]))
    assert s.points.shape == (3, 1)
    assert s.n == 3
    assert s.dim == 1


def test_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        Sample(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        Sample(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        Sample(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Sample(np.zeros((2, 2, 2)))


def test_sample_points_read_only():
    s = Sample(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        s.points[0, 0] = 9.0


def test_sample_from_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    s = Sample.from_csv(path)
    np.testing.assert_array_equal(s.points, [[1.0, 2.0], [3.0, 4.0]])


def test_sample_from_csv_error_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match=r"row 2.*column 2"):
        Sample.from_csv(path)
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match=r"row 2"):
        Sample.from_csv(path)


def test_sample_from_json(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": [[0.0, 1.0], [1.0, 0.0]]}))
    s = Sample.from_json(path)
    assert s.n == 2
    path.write_text(json.dumps({"data": []}))
    with pytest.raises(ValueError):
        Sample.from_json(path)


# ------------------------------------------------------------------ depth 1d


def test_depth_1d_interior_point():
    s = Sample(np.array([1.0, 2.0, 3.0]))
    assert depth_1d(2.0, s).to_dict() == {"count": 2, "n": 3, "value": 2.0 / 3.0}
    assert depth_1d(1.5, s).count == 1
    assert depth_1d(0.0, s).count == 0
    assert depth_1d(9.0, s).count == 0


def test_depth_1d_boundary_counts_both_sides():
    s = Sample(np.array([0.0, 1.0, 1.0, 2.0]))
    # at q=1: two points <= on the left side are {0,1,1}=3, right {1,1,2}=3
    assert depth_1d(1.0, s).count == 3
    assert depth_1d(0.0, s).count == 1


def test_depth_1d_matches_counting_oracle():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        pts = np.round(rng.normal(size=n), 2)
        s = Sample(pts)
        q = float(np.round(rng.normal(), 2))
        left = int(np.sum(pts <= q))
        right = int(np.sum(pts >= q))
        assert depth_1d(q, s).count == min(left, right)


def test_depth_1d_tie_tolerance():
    # a point within relative 1e-12 of q counts as on the boundary
    s = Sample(np.array([1.0, 1.0 + 1e-13, 2.0]))
    assert depth_1d(1.0, s).count == 2


# ------------------------------------------------------------ depth exact 2d


def test_depth_exact_2d_square_center():
    s = Sample(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    assert depth_exact_2d([0.0, 0.0], s).count == 2
    assert depth_exact_2d([2.0, 0.0], s).count == 0
    assert depth_exact_2d([1.0, 0.0], s).count == 1


def test_depth_exact_2d_query_on_sample_point():
    # a sample point coincident with q lies in every closed halfplane
    s = Sample(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert depth_exact_2d([0.0, 0.0], s).count == 1
    assert depth_exact_2d([1.0, 0.0], s).count == 2


def test_depth_exact_2d_all_points_coincident():
    s = Sample(np.array([[1.0, 1.0]] * 4))
    assert depth_exact_2d([1.0, 1.0], s).count == 4
    assert depth_exact_2d([0.0, 0.0], s).count == 0


def test_depth_exact_2d_collinear():
    s = Sample(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    assert depth_exact_2d([1.5, 0.0], s).count == 2
    assert depth_exact_2d([1.5, 0.5], s).count == 0
    assert depth_exact_2d([0.0, 0.0], s).count == 1


def test_depth_exact_2d_matches_brute_random():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(3, 13))
        pts = rng.normal(size=(n, 2))
        s = Sample(pts)
        q = rng.normal(size=2) * 0.5
        assert depth_exact_2d(q, s).count == depth_brute(q, s).count


def test_depth_exact_2d_matches_brute_with_ties():
    # duplicated points and queries on grid vertices exercise tie handling
    rng = np.random.default_rng(5150)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        pts = rng.integers(-2, 3, size=(n, 2)).astype(float)
        s = Sample(pts)
        q = rng.integers(-2, 3, size=2).astype(float)
        assert depth_exact_2d(q, s).count == depth_brute(q, s).count


def test_depth_exact_2d_max_depth_bound():
    # halfspace depth never exceeds ceil(n/2) for points in general position
    rng = np.random.default_rng(31)
    for _ in range(20):
        pts = rng.normal(size=(15, 2))
        s = Sample(pts)
        q = pts.mean(axis=0)
        assert depth_exact_2d(q, s).count <= math.ceil(15 / 2) + 1


def test_depth_zero_iff_outside_hull_2d():
    # removal characterization: depth 0 exactly when q is outside the hull
    from scipy.spatial import ConvexHull, QhullError

    rng = np.random.default_rng(88)
    hits = 0
    for _ in range(120):
        n = int(rng.integers(3, 10))
        pts = rng.normal(size=(n, 2))
        q = rng.normal(size=2)
        s = Sample(pts)
        depth = depth_exact_2d(q, s).count
        try:
            hull = ConvexHull(np.vstack([pts, q]))
            inside = len(hull.vertices) == len(ConvexHull(pts).vertices) and (
                n not in hull.vertices
            )
        except QhullError:
            continue
        if depth == 0:
            assert not inside
        else:
            hits += 1
            assert inside or depth > 0  # boundary cases carry positive depth
    assert hits > 10


# --------------------------------------------------------------- depth brute


def test_depth_brute_1d_agrees_with_exact():
    rng = np.random.default_rng(404)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        pts = rng.normal(size=(n, 1))
        s = Sample(pts)
        q = rng.normal(size=1)
        assert depth_brute(q, s).count == depth_1d(float(q[0]), s).count


def test_depth_brute_3d_simplex():
    s = Sample(
        np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]]
        )
    )
    centroid = s.points.mean(axis=0)
    assert depth_brute(centroid, s).count == 1
    assert depth_brute([5.0, 5.0, 5.0], s).count == 0


def test_depth_brute_3d_coordinate_cross():
    # every closed halfspace through the origin keeps at least one of each
    # antipodal pair, so the center's depth is exactly 3
    pts = np.vstack([np.eye(3), -np.eye(3)])
    s = Sample(pts)
    assert depth_brute([0.0, 0.0, 0.0], s).count == 3
    assert depth_brute([1.0, 0.0, 0.0], s).count == 1


def test_depth_brute_all_coincident_with_query():
    s = Sample(np.array([[2.0, 2.0, 2.0]] * 3))
    assert depth_brute([2.0, 2.0, 2.0], s).count == 3


def test_depth_brute_zero_iff_outside_hull_3d():
    from scipy.spatial import ConvexHull, QhullError

    rng = np.random.default_rng(99)
    zero_seen = 0
    pos_seen = 0
    for _ in range(40):
        pts = rng.normal(size=(10, 3))
        q = rng.normal(size=3) * 0.4
        depth = depth_brute(q, Sample(pts)).count
        try:
            base = ConvexHull(pts)
            with_q = ConvexHull(np.vstack([pts, q]))
        except QhullError:
            continue
        outside = 10 in with_q.vertices and with_q.volume > base.volume * (1 + 1e-12)
        if outside:
            assert depth == 0
            zero_seen += 1
        else:
            assert depth > 0
            pos_seen += 1
    assert zero_seen > 5 and pos_seen > 5


# --------------------------------------------------- approx / certified depth


def test_depth_certified_contains_exact_2d():
    rng = np.random.default_rng(7)
    cover = build_cover(2, 0.05)
    for _ in range(50):
        pts = rng.normal(size=(40, 2))
        s = Sample(pts)
        q = rng.normal(size=2)
        exact = depth_exact_2d(q, s).value
        iv = depth_certified(q, s, cover)
        assert iv.lower <= exact <= iv.upper
        assert iv.psi == 0.05
        assert iv.radius == pytest.approx(np.linalg.norm(pts - q, axis=1).max())


def test_depth_certified_width_shrinks_with_psi():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(200, 2))
    s = Sample(pts)
    q = np.array([0.2, -0.1])
    widths = []
    for psi in (0.3, 0.1, 0.03):
        iv = depth_certified(q, s, build_cover(2, psi))
        widths.append(iv.upper - iv.lower)
    assert widths[0] >= widths[1] >= widths[2]


def test_depth_approx_equals_certified_upper():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(30, 2))
    s = Sample(pts)
    cover = build_cover(2, 0.1)
    for _ in range(10):
        q = rng.normal(size=2)
        assert depth_approx(q, s, cover).value == depth_certified(q, s, cover).upper


def test_depth_approx_upper_bounds_exact():
    # restricting the direction search can only raise the minimum
    rng = np.random.default_rng(16)
    cover = build_cover(2, 0.2)
    for _ in range(30):
        pts = rng.normal(size=(25, 2))
        s = Sample(pts)
        q = rng.normal(size=2) * 0.5
        assert depth_approx(q, s, cover).count >= depth_exact_2d(q, s).count


def test_depth_certified_3d_contains_brute():
    # On the integer grid, duplicated points and queries on sample points
    # put projections exactly on the thresholds.
    rng = np.random.default_rng(23)
    cover = build_cover(3, 0.1, rng=np.random.default_rng(1))
    for grid in (False, True):
        for _ in range(15):
            if grid:
                pts = rng.integers(-1, 2, size=(10, 3)).astype(float)
                qs = np.vstack([pts[:3], rng.integers(-1, 2, size=(3, 3))])
            else:
                pts = rng.normal(size=(12, 3))
                qs = rng.normal(size=(3, 3)) * 0.5
            s = Sample(pts)
            lower, upper, _ = depth_certified_many(qs, s, cover)
            for q, lo, up in zip(qs, lower, upper):
                assert lo <= depth_brute(q, s).count <= up


def _grid_or_normal(rng, n, d, grid):
    if grid:
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
        return pts, np.vstack([pts[:4], rng.integers(-4, 5, size=(4, d)) / 2.0])
    return rng.normal(size=(n, d)), rng.normal(size=(8, d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("grid", [False, True], ids=["normal", "integer-grid"])
def test_batched_depth_equals_single_query(d, grid):
    rng = np.random.default_rng(100 * d + grid)
    cover = build_cover(d, 0.2, rng=np.random.default_rng(3))
    for _ in range(10):
        pts, qs = _grid_or_normal(rng, int(rng.integers(5, 40)), d, grid)
        s = Sample(pts)
        if d == 2:
            assert depth_exact_2d_many(qs, s).tolist() == [depth_exact_2d(q, s).count for q in qs]
        lower, upper, radius = depth_certified_many(qs, s, cover)
        for j, q in enumerate(qs):
            iv = depth_certified(q, s, cover)
            assert (iv.lower, iv.upper, iv.radius) == (lower[j] / s.n, upper[j] / s.n, radius[j])
            assert depth_approx(q, s, cover).count == upper[j]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_depth_counts_invariant_under_exact_scale_and_shift(d):
    # Scaling by 2^-40 and shifting a dyadic grid by 2^20 are both exact in
    # floating point, so no count may change: ties are relative to the
    # sample's spread about the query, not to 1 or to the offset.
    rng = np.random.default_rng(77 + d)
    pts = rng.integers(-8, 9, size=(30, d)) / 4.0
    qs = np.vstack([pts[:6], rng.integers(-16, 17, size=(6, d)) / 8.0])
    cover = build_cover(d, 0.2, rng=np.random.default_rng(3)) if d >= 2 else None

    def counts(scale, shift):
        s = Sample(pts * scale + shift)
        out = []
        for q in qs * scale + shift:
            if d == 1:
                out.append(depth_1d(q[0], s).count)
                continue
            if d == 2:
                out.append(depth_exact_2d(q, s).count)
            iv = depth_certified(q, s, cover)
            out += [iv.lower, iv.upper, depth_approx(q, s, cover).count]
        return out

    base = counts(1.0, 0.0)
    assert counts(2.0**-40, 0.0) == base
    assert counts(1.0, 2.0**20) == base


def test_certified_counts_keep_fine_spread_far_from_origin():
    # Nine points lie 2^-10 above the line through q, five well below it.
    # Along the center (0, 1) the closed count is 5, the least of the four
    # centers. Shifting everything by 2^40 is exact; if x.c and q.c were
    # projected about the origin, their rounding slack (about 1e-2 here)
    # would pull the nine points into that count.
    pts = [(k / 4, 2.0**-10) for k in range(-4, 5)] + [(k / 4, -1.0) for k in range(-2, 3)]
    cover = SphericalCover(np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]), 0.78)
    for shift in (0.0, 2.0**40):
        s = Sample(np.array(pts) + shift)
        q = np.array([shift, shift])
        iv = depth_certified(q, s, cover)
        assert (iv.lower * s.n, iv.upper * s.n) == (0, 5)
        assert depth_approx(q, s, cover).count == 5
        assert depth_exact_2d(q, s).count == 5


def test_depth_cover_dimension_mismatch():
    s = Sample(np.zeros((3, 3)) + np.arange(3)[:, None])
    cover = build_cover(2, 0.2)
    with pytest.raises(ValueError):
        depth_approx([0.0, 0.0, 0.0], s, cover)


# ------------------------------------------------------------- ks / sup stats


def test_ks_statistic_single_point():
    assert ks_statistic(np.array([0.0]), np.array([0.3])) == pytest.approx(0.7)
    assert ks_statistic(np.array([0.0]), np.array([0.9])) == pytest.approx(0.9)


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(6)
    from scipy.special import ndtr

    for n in (1, 2, 10, 100, 999):
        x = rng.standard_normal(n)
        expected = kstest(x, "norm").statistic
        got = ks_statistic(np.sort(x), ndtr(np.sort(x)))
        assert got == pytest.approx(expected, rel=1e-12)


def test_ks_statistic_requires_sorted_consistency():
    # a uniform grid hitting exact quantiles gives the textbook 1/(2n) gap
    n = 10
    grid = (np.arange(n) + 0.5) / n
    assert ks_statistic(grid, grid) == pytest.approx(0.05)


def test_sup_deviation_1d_is_ks():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(500)
    s = Sample(x)
    dist = standard_normal(1)
    expected = kstest(x, "norm").statistic
    assert sup_deviation(s, dist, None) == pytest.approx(expected, rel=1e-12)


def test_sup_deviation_monotone_under_refinement():
    # a sub-cover restricts the maximization, so its sup cannot exceed the
    # full cover's sup
    from halfdepth.geometry import SphericalCover

    rng = np.random.default_rng(3)
    pts = rng.standard_normal((300, 2))
    s = Sample(pts)
    dist = standard_normal(2)
    fine = build_cover(2, 0.02)
    coarse = SphericalCover(fine.centers[::4], 0.1)
    assert sup_deviation(s, dist, coarse) <= sup_deviation(s, dist, fine) + 1e-15


def test_sup_deviation_requires_cover_for_d2():
    s = Sample(np.zeros((3, 2)) + np.arange(3)[:, None])
    with pytest.raises(ValueError):
        sup_deviation(s, standard_normal(2), None)
    with pytest.raises(ValueError):
        sup_deviation(s, standard_normal(3), build_cover(2, 0.1))


def test_sup_deviation_shrinks_with_n():
    rng = np.random.default_rng(10)
    dist = standard_normal(2)
    cover = build_cover(2, 0.05)
    small = np.median(
        [
            sup_deviation(Sample(rng.standard_normal((50, 2))), dist, cover)
            for _ in range(20)
        ]
    )
    big = np.median(
        [
            sup_deviation(Sample(rng.standard_normal((2000, 2))), dist, cover)
            for _ in range(20)
        ]
    )
    assert big < small
