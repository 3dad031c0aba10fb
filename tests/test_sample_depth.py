"""Unit tests for sample halfspace depth: exact, brute-force, and certified."""

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations
from threading import Barrier

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from halfdepth.experiments import auto_queries, draw_sample, split_seed
from halfdepth.geometry import SphericalCover, build_cover
from halfdepth.population import standard_normal
from halfdepth.sample_depth import (
    _BOUND_STRIDE,
    TIE_RTOL,
    DepthInterval,
    DepthValue,
    Sample,
    _certified_counts,
    depth_1d,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_depth_methods_reject_non_finite_queries(bad):
    # A NaN or infinite query used to compare false against every point
    # and come out with maximal depth.
    line, plane = Sample(np.array([1.0, 2.0, 3.0])), Sample(np.eye(2) - 0.25)
    cover = build_cover(2, 0.3)
    calls = [
        lambda: depth_1d(bad, line),
        lambda: depth_brute([bad], line),
        lambda: depth_exact_2d([bad, 0.0], plane),
        lambda: depth_exact_2d_many([[0.0, 0.0], [0.0, bad]], plane),
        lambda: depth_brute([0.0, bad], plane),
        lambda: depth_certified_many([[bad, 0.0]], plane, cover),
        lambda: depth_certified([0.0, bad], plane, cover),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call()


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


# ---------------------------------------------------------- certified depth


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


def test_certified_upper_bounds_exact():
    # restricting the direction search can only raise the minimum
    rng = np.random.default_rng(16)
    cover = build_cover(2, 0.2)
    for _ in range(30):
        pts = rng.normal(size=(25, 2))
        s = Sample(pts)
        q = rng.normal(size=2) * 0.5
        assert depth_certified(q, s, cover).upper >= depth_exact_2d(q, s).value


def test_depth_certified_3d_contains_brute():
    # On the integer grid, duplicated points and queries on sample points
    # put projections exactly on the thresholds.
    rng = np.random.default_rng(23)
    cover = build_cover(3, 0.1)
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


@pytest.mark.parametrize("d, psi", [(3, 0.1), (4, 0.5)])
def test_shuffled_centers_record_no_mirror_and_their_intervals_contain_brute(d, psi):
    # The centers of a mirrored cover, shuffled, record no mirror, so every
    # projection is multiplied; each interval still holds the exact depth.
    # Integer grids put projections on the thresholds.
    rng = np.random.default_rng(31 + d)
    mirrored = build_cover(d, psi)
    shuffled = SphericalCover(rng.permutation(mirrored.centers), psi)
    assert mirrored.mirror == mirrored.n_centers // 2 and shuffled.mirror == 0
    for grid in (False, True):
        for _ in range(8):
            pts, qs = _grid_or_normal(rng, int(rng.integers(5, 12)), d, grid)
            s = Sample(pts)
            lower, upper, _ = depth_certified_many(qs, s, shuffled)
            for q, lo, up in zip(qs, lower, upper):
                assert lo <= depth_brute(q, s).count <= up


@pytest.mark.parametrize("grid", [False, True], ids=["normal", "integer-grid"])
def test_depth_certified_4d_contains_brute(grid):
    # The cube-face cover of d=4; on the integer grid, repeated rows and
    # queries on sample points put projections exactly on the thresholds.
    rng = np.random.default_rng(44 + grid)
    cover = build_cover(4, 0.5)
    for _ in range(8):
        n = int(rng.integers(8, 13))
        if grid:
            base = rng.integers(-1, 2, size=(n - 3, 4)).astype(float)
            pts = np.vstack([base, base[:3]])
            qs = np.vstack([pts[:3], rng.integers(-2, 3, size=(3, 4)) / 2.0])
        else:
            pts = rng.normal(size=(n, 4))
            qs = np.vstack([pts[:1], rng.normal(size=(3, 4)) * 0.5])
        s = Sample(pts)
        lower, upper, _ = depth_certified_many(qs, s, cover)
        for q, lo, up in zip(qs, lower, upper):
            brute = depth_brute(q, s)
            assert lo <= brute.count <= up
            iv = depth_certified(q, s, cover)
            assert iv.lower <= brute.value <= iv.upper


@lru_cache(maxsize=None)
def _property_cover(d):
    """83 centers in d=3 at psi=0.3; the 512-center cube-face grid in d=4 at psi=0.5."""
    return build_cover(d, 0.3 if d == 3 else 0.5)


@settings(max_examples=80)
@given(
    d=st.sampled_from([3, 4]),
    n=st.integers(min_value=1, max_value=10),
    grid=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_certified_contains_brute_and_approx_bounds_it(d, n, grid, seed):
    # Queries: a sample point and a point off the sample. On the integer
    # grid a duplicated row and half-integer queries put projections
    # exactly on the thresholds.
    rng = np.random.default_rng(seed)
    cover = _property_cover(d)
    if grid:
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
        pts[n // 2] = pts[0]
        qs = np.vstack([pts[:1], rng.integers(-4, 5, size=(1, d)) / 2.0])
    else:
        pts = rng.normal(size=(n, d))
        qs = np.vstack([pts[:1], rng.normal(size=(1, d)) * 0.5])
    s = Sample(pts)
    for q in qs:
        brute = depth_brute(q, s)
        iv = depth_certified(q, s, cover)
        assert iv.lower <= brute.value <= iv.upper


def _random_rotation(rng, d):
    """A uniformly random rotation of R^d (determinant +1)."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@lru_cache(maxsize=None)
def _rotation_cover(d):
    return build_cover(d, 0.3)


@settings(max_examples=60)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=10),
    big_n=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_depth_counts_invariant_under_random_rotations(d, n, big_n, seed):
    # A rotation by an arbitrary angle is not exact in floating point, so
    # the data are Gaussian, where no ties occur. The query at a sample
    # point is the rotated point itself.
    rng = np.random.default_rng(seed)
    rot = _random_rotation(rng, d)

    def rotated(pts, qs):
        moved = pts @ rot.T
        return Sample(pts), Sample(moved), np.vstack([moved[:1], qs @ rot.T])

    pts = rng.normal(size=(n, d))
    qs = np.vstack([pts[:1], rng.normal(size=(2, d))])
    s, rs, rqs = rotated(pts, qs[1:])
    cover = _rotation_cover(d)
    lower, upper, _ = depth_certified_many(rqs, rs, cover)
    for j, (q, rq) in enumerate(zip(qs, rqs)):
        count = depth_brute(q, s).count
        assert depth_brute(rq, rs).count == count
        assert lower[j] <= count <= upper[j]
    if d == 2:
        pts = rng.normal(size=(big_n, 2))
        qs = np.vstack([pts[:1], rng.normal(size=(5, 2))])
        s, rs, rqs = rotated(pts, qs[1:])
        assert depth_exact_2d_many(rqs, rs).tolist() == depth_exact_2d_many(qs, s).tolist()


def _grid_or_normal(rng, n, d, grid):
    if grid:
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
        return pts, np.vstack([pts[:4], rng.integers(-4, 5, size=(4, d)) / 2.0])
    return rng.normal(size=(n, d)), rng.normal(size=(8, d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("grid", [False, True], ids=["normal", "integer-grid"])
def test_batched_depth_equals_single_query(d, grid):
    rng = np.random.default_rng(100 * d + grid)
    cover = build_cover(d, 0.2)
    for _ in range(10):
        pts, qs = _grid_or_normal(rng, int(rng.integers(5, 40)), d, grid)
        s = Sample(pts)
        if d == 2:
            assert depth_exact_2d_many(qs, s).tolist() == [depth_exact_2d(q, s).count for q in qs]
        lower, upper, radius = depth_certified_many(qs, s, cover)
        for j, q in enumerate(qs):
            iv = depth_certified(q, s, cover)
            assert (iv.lower, iv.upper, iv.radius) == (lower[j] / s.n, upper[j] / s.n, radius[j])


@lru_cache(maxsize=None)
def _kernel_covers(d):
    """Two covers per dimension: the one a case scores against and a second one."""
    psis = {3: (0.3, 0.5), 4: (0.5, 0.7)}[d]
    return tuple(build_cover(d, psi) for psi in psis)


def _kernel_case(d, data):
    """A sample and queries for the certified kernel: Gaussian, an integer grid
    with duplicated points, or Gaussian data scaled by 2^20 or 2^-20 and
    shifted by 2^30 (far from the origin, at either spread)."""
    rng = np.random.default_rng(40 + d)
    if data == "grid":
        pts = rng.integers(-2, 3, size=(40, d)).astype(float)
        pts[20:30] = pts[:10]
        qs = np.vstack([pts[:5], rng.integers(-4, 5, size=(5, d)) / 2.0])
    else:
        pts, qs = rng.normal(size=(60, d)), np.vstack([rng.normal(size=(5, d)) * 0.7, np.zeros((1, d))])
        if data != "normal":
            scale = 2.0**20 if data == "wide-far" else 2.0**-20
            pts, qs = pts * scale + 2.0**30, qs * scale + 2.0**30
    return pts, qs


_KERNEL_CASES = pytest.mark.parametrize(
    "d, data", [(d, data) for d in (3, 4) for data in ("normal", "grid", "wide-far", "narrow-far")]
)


@_KERNEL_CASES
def test_certified_many_on_an_empty_block_returns_empty_arrays(d, data):
    # On the main thread and off it, where the kernel takes its other path.
    pts, _ = _kernel_case(d, data)

    def call():
        return depth_certified_many(np.empty((0, d)), Sample(pts), _kernel_covers(d)[0])

    with ThreadPoolExecutor(max_workers=1) as pool:
        off_main = pool.submit(call).result(timeout=60)
    for lower, upper, radius in (call(), off_main):
        assert lower.shape == upper.shape == radius.shape == (0,)
        assert lower.dtype == upper.dtype == np.intp
        assert radius.dtype == float


@_KERNEL_CASES
def test_kept_keys_equal_a_plain_row_sort(d, data):
    pts, _ = _kernel_case(d, data)
    s = Sample(pts)
    # Only the unmirrored centers are multiplied and sorted: their rows
    # equal a plain row sort, and each mirrored row is its twin negated and
    # reversed, bit for bit. Every build_cover cover in d >= 3 is a mirror;
    # the first one is also taken shuffled (no mirror) and with one
    # unpaired center after its mirror.
    first = _kernel_covers(d)[0]
    extra = np.zeros((1, d))
    extra[0, 0] = 1.0
    shapes = (
        SphericalCover(np.random.default_rng(d).permutation(first.centers), first.psi),
        SphericalCover(np.vstack([first.centers, extra]), first.psi),
    )
    for cover, h in [(c, c.n_centers // 2) for c in _kernel_covers(d)] + [(shapes[0], 0), (shapes[1], first.mirror)]:
        _, columns, keys, template, offsets = s._projection(cover)
        m = cover.centers.shape[0]
        assert cover.mirror == h
        plain = np.sort(cover.unmirrored @ (s.points - s.points[0]).T, axis=1)
        keys = keys.reshape(m, s.n)
        assert np.array_equal(keys.imag[:h].view(np.uint64), plain[:h].view(np.uint64))
        assert np.array_equal(keys.imag[h:2 * h].view(np.uint64), (-plain[:h, ::-1]).view(np.uint64))
        assert np.array_equal(keys.imag[2 * h:].view(np.uint64), plain[h:].view(np.uint64))
        assert (keys.real == np.arange(m)[:, None]).all()
        assert np.array_equal(columns, s.points.T) and columns.flags.c_contiguous
        assert (template.real == np.arange(m)).all() and template.shape == (2, m)
        assert offsets.tolist() == [s.n * j for j in range(m)]


def _intervals(qs, s, cover):
    return [depth_certified(q, s, cover).to_dict() for q in qs]


@_KERNEL_CASES
def test_one_sample_scored_from_four_threads_gives_the_serial_intervals(d, data):
    # The threads race to build the kept projection; it may be built more
    # than once, but every thread must read a whole one. A short switch
    # interval makes the threads interleave inside the build.
    pts, qs = _kernel_case(d, data)
    cover = _kernel_covers(d)[0]
    serial = _intervals(qs, Sample(pts), cover)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared, start = Sample(pts), Barrier(4, timeout=30)

            def score(_):
                start.wait()
                return _intervals(qs, shared, cover)

            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(score, range(4), timeout=60)) == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


@_KERNEL_CASES
def test_a_sample_alternating_between_covers_gives_each_covers_counts(d, data):
    pts, qs = _kernel_case(d, data)
    first, second = _kernel_covers(d)
    fresh = {id(c): [a.tolist() for a in depth_certified_many(qs, Sample(pts), c)] for c in (first, second)}
    s = Sample(pts)
    for cover in (first, second, first, second):
        assert [a.tolist() for a in depth_certified_many(qs, s, cover)] == fresh[id(cover)]
        assert _intervals(qs, s, cover) == _intervals(qs, Sample(pts), cover)
    assert fresh[id(first)] != fresh[id(second)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_depth_counts_invariant_under_exact_scale_and_shift(d):
    # Scaling by 2^-40 and shifting a dyadic grid by 2^20 are both exact in
    # floating point, so no count may change: ties are relative to the
    # sample's spread about the query, not to 1 or to the offset.
    rng = np.random.default_rng(77 + d)
    pts = rng.integers(-8, 9, size=(30, d)) / 4.0
    qs = np.vstack([pts[:6], rng.integers(-16, 17, size=(6, d)) / 8.0])
    cover = build_cover(d, 0.2) if d >= 2 else None

    def counts(scale, shift):
        s = Sample(pts * scale + shift)
        out = []
        for q in qs * scale + shift:
            if d == 1:
                out.append(depth_1d(q[0], s).count)
                continue
            if d == 2:
                out.append(depth_exact_2d(q, s).count)
            out.append(depth_brute(q, s).count)
            iv = depth_certified(q, s, cover)
            out += [iv.lower, iv.upper]
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
        assert depth_exact_2d(q, s).count == 5


def test_depth_cover_dimension_mismatch():
    s = Sample(np.zeros((3, 3)) + np.arange(3)[:, None])
    cover = build_cover(2, 0.2)
    with pytest.raises(ValueError):
        depth_certified([0.0, 0.0, 0.0], s, cover)


# ---------------------------------------------------- pruned certified minimum


def _full_search(q, sample, cover):
    """The unpruned certified kernel, kept as the reference: both thresholds
    of every center searched into the kept keys. Returns the (2, m) counts,
    whose row minima are (lower, upper), and R."""
    _, columns, keys, template, offsets = sample._projection(cover)
    squares = columns - q[:, None]
    squares *= squares
    for row in squares[1:]:
        squares[0] += row
    radius = math.sqrt(squares[0].max())
    offset = q - sample.points[0]
    distance = math.sqrt(np.add.reduce(offset * offset))
    slack = 2.0 * (sample.dim + 4) * float(np.finfo(float).eps) * (radius + 2.0 * distance)
    at = cover.centers @ offset
    thresholds = template.copy()
    np.subtract(at, radius * cover.psi + slack, out=thresholds.imag[0])
    np.add(at, TIE_RTOL * radius + slack, out=thresholds.imag[1])
    return np.searchsorted(keys, thresholds, side="right") - offsets, radius


def _pruned_searches(counts, n):
    """Thresholds the pruned kernel searches, given the full (2, m) counts:
    every _BOUND_STRIDE-th center's, then, outside those, every center whose
    count is at most min(U, n - 1), U the row's minimum over the stride."""
    bound = counts[:, ::_BOUND_STRIDE].min(axis=1, keepdims=True)
    survive = counts <= np.minimum(bound, n - 1)
    survive[:, ::_BOUND_STRIDE] = False
    return counts[:, ::_BOUND_STRIDE].size + int(np.count_nonzero(survive))


def _spy_on_searchsorted(monkeypatch):
    """A list that gathers the number of keys of every np.searchsorted call."""
    searched, search = [], np.searchsorted

    def spy(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return searched


@lru_cache(maxsize=None)
def _oracle_covers(d):
    """The harness-sized covers (159 centers in d=2 at psi=0.02, 162 in d=3 at
    psi=0.2, 512 in d=4 at psi=0.5) and, in d=2, the 4 axes at psi=0.78,
    fewer centers than one stride."""
    cover = build_cover(d, {2: 0.02, 3: 0.2, 4: 0.5}[d])
    if d > 2:
        return (cover,)
    return cover, SphericalCover(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), 0.78)


def _oracle_case(rng, d, n, data):
    """Points and queries: up to three sample points, the mean, two points
    far outside (where U reaches 0) and two near the data. A coincident
    sample queried at its point, and n=1, put U at n."""
    if data == "grid":
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
        pts[n // 2] = pts[0]
    elif data == "coincident":
        pts = np.tile(rng.integers(-3, 4, size=(1, d)).astype(float), (n, 1))
    else:
        pts = rng.normal(size=(n, d))
    scale, shift = {"wide-far": (2.0**20, 2.0**30), "narrow-far": (2.0**-20, 2.0**30)}.get(data, (1.0, 0.0))
    pts = pts * scale + shift
    mean = pts.mean(axis=0)
    away = rng.normal(size=(2, d))
    away *= 1e3 * scale / np.linalg.norm(away, axis=1, keepdims=True)
    near = mean + rng.normal(size=(2, d)) * scale
    return pts, np.vstack([pts[:3], mean, mean + away, near])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("data", ["normal", "grid", "coincident", "wide-far", "narrow-far"])
def test_certified_counts_equal_the_full_search(d, data, monkeypatch):
    # Equal (lower, upper, R) bit for bit, and exactly the thresholds that
    # the probe at min(U, n - 1) leaves are searched: a probe one index off,
    # a >= for its >, or a missing clamp changes what is searched, where it
    # changes no count.
    rng = np.random.default_rng(1000 * d + len(data))
    searched = _spy_on_searchsorted(monkeypatch)
    reached = set()
    for cover in _oracle_covers(d):
        for n in (1, 2, 3, 10, 300) * 3:
            pts, qs = _oracle_case(rng, d, n, data)
            s = Sample(pts)
            for q in qs:
                counts, radius = _full_search(q, s, cover)
                lower, upper = counts.min(axis=1).tolist()
                searched.clear()
                assert [a.tolist() for a in _certified_counts(q[None], s, cover)] == [[lower], [upper], [radius]]
                assert sum(searched) == _pruned_searches(counts, n)
                bound = counts[:, ::_BOUND_STRIDE].min(axis=1)
                reached.update("0" if u == 0 else "n" for u in bound.tolist() if u in (0, n))
    assert {"0", "n"} <= reached


def test_certified_counts_search_few_thresholds(monkeypatch):
    # The harness's d=3 case: n=300 against the 162 centers at psi=0.2, the
    # 25 auto queries, 20 seeded samples. A query searches at most a third
    # of its 2m thresholds on average, and its counts equal the full search.
    dist = standard_normal(3)
    cover = build_cover(3, 0.2)
    queries = auto_queries(dist)
    samples = [draw_sample(dist, 300, np.random.default_rng(split_seed(4242, k))) for k in range(20)]
    want = [[_full_search(q, s, cover) for q in queries] for s in samples]
    searched = _spy_on_searchsorted(monkeypatch)
    for s, rows in zip(samples, want):
        for q, (counts, radius) in zip(queries, rows):
            expected = [[c] for c in counts.min(axis=1).tolist()] + [[radius]]
            assert [a.tolist() for a in _certified_counts(q[None], s, cover)] == expected
    per_query = sum(searched) / (len(samples) * len(queries))
    assert 0 < per_query <= 2 * cover.centers.shape[0] / 3


def test_certified_counts_search_every_threshold_in_one_call_off_the_main_thread(monkeypatch):
    # On a worker thread, as on the harness's pool, a query makes one search
    # of all 2m thresholds, so numpy's release of the GIL is long enough for
    # the other threads to run; the counts are the same.
    cover = build_cover(3, 0.2)
    queries = auto_queries(standard_normal(3))
    samples = [draw_sample(standard_normal(3), 300, np.random.default_rng(split_seed(4242, k))) for k in range(3)]
    want = [[_full_search(q, s, cover) for q in queries] for s in samples]
    searched = _spy_on_searchsorted(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        got = pool.submit(
            lambda: [[[a.tolist() for a in _certified_counts(q[None], s, cover)] for q in queries] for s in samples]
        )
        expected = [[[[c] for c in counts.min(axis=1).tolist()] + [[r]] for counts, r in rows] for rows in want]
        assert got.result(timeout=60) == expected
    assert searched == [2 * cover.centers.shape[0]] * (len(samples) * len(queries))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("data", ["normal", "grid", "coincident", "wide-far", "narrow-far"])
def test_certified_counts_of_a_block_equal_the_full_search_row_by_row(d, data, monkeypatch):
    # One block holds a case's queries and a duplicate of its first one.
    # Every row is the full search's (lower, upper, R) bit for bit. On the
    # main thread the block makes two searches, the stride's and the
    # candidates', which together search exactly the thresholds its rows
    # would alone; on a worker thread it makes one search of all 2Qm.
    rng = np.random.default_rng(2000 * d + len(data))
    searched = _spy_on_searchsorted(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:
        for cover in _oracle_covers(d):
            for n in (1, 2, 3, 10, 300):
                pts, qs = _oracle_case(rng, d, n, data)
                s = Sample(pts)
                block = np.vstack([qs, qs[:1]])
                full = [_full_search(q, s, cover) for q in block]
                expected = [[c[0].min() for c, _ in full], [c[1].min() for c, _ in full], [r for _, r in full]]
                searched.clear()
                got = _certified_counts(block, s, cover)
                assert [a.dtype for a in got] == [np.intp, np.intp, np.float64]
                assert [a.tolist() for a in got] == expected
                assert len(searched) == 2
                assert sum(searched) == sum(_pruned_searches(counts, n) for counts, _ in full)
                searched.clear()
                got = pool.submit(_certified_counts, block, s, cover).result(timeout=60)
                assert [a.tolist() for a in got] == expected
                assert searched == [2 * len(block) * cover.centers.shape[0]]


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
    from scipy.special import ndtr

    assert sup_deviation(s, dist, None) == ks_statistic(x, ndtr(x))


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
