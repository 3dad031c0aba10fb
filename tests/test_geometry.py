"""Unit tests for direction sampling, spherical covers, and cover verification."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import halfdepth.geometry as geometry
from halfdepth.cli import _load_cover, main
from halfdepth.geometry import (
    CoverCheck,
    SphericalCover,
    build_cover,
    cover_radius,
    max_cover_radius,
    sample_directions,
    verify_cover,
)


def fibonacci_sphere(count):
    """Fibonacci lattice on S^2: a near-uniform deterministic point set."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    lon = 2.0 * math.pi * i / golden
    pts = np.column_stack([r * np.cos(lon), r * np.sin(lon), z])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def test_max_cover_radius_values():
    assert max_cover_radius(2) == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert max_cover_radius(3) == pytest.approx(math.acos(3 ** -0.5), rel=1e-15)
    # radius shrinks with dimension but stays below pi/2
    prev = max_cover_radius(2)
    for d in range(3, 12):
        cur = max_cover_radius(d)
        assert cur > prev
        assert cur < math.pi / 2.0
        prev = cur


def test_max_cover_radius_rejects_d1():
    with pytest.raises(ValueError):
        max_cover_radius(1)


def test_cover_validation():
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    cover = SphericalCover(centers, 0.5)
    assert cover.d == 2
    assert cover.n_centers == 2
    with pytest.raises(ValueError):
        SphericalCover(centers, 0.0)
    with pytest.raises(ValueError):
        SphericalCover(centers, max_cover_radius(2))
    with pytest.raises(ValueError):
        SphericalCover(np.array([[1.0, 1.0]]), 0.5)
    with pytest.raises(ValueError):
        SphericalCover(np.zeros((0, 2)), 0.5)


def test_direction_requires_unit_norm():
    # Directions are rows of a cover's centers; each must have unit norm and
    # at least one coordinate.
    SphericalCover(np.array([[1.0, 0.0]]), 0.5)
    with pytest.raises(ValueError):
        SphericalCover(np.array([[1.0, 1.0]]), 0.5)
    with pytest.raises(ValueError):
        SphericalCover(np.array([[1.0 + 1e-11, 0.0]]), 0.5)
    with pytest.raises(ValueError):
        SphericalCover(np.zeros((1, 0)), 0.5)


def test_cover_centers_are_read_only():
    cover = build_cover(2, 0.3)
    with pytest.raises(ValueError):
        cover.centers[0, 0] = 5.0


def test_cover_dict_round_trip():
    cover = build_cover(2, 0.2)
    data = cover.to_dict()
    assert set(data) == {"d", "psi", "centers"}
    back = SphericalCover.from_dict(data)
    assert back.psi == cover.psi
    np.testing.assert_array_equal(back.centers, cover.centers)
    for d in (3, 2.5):
        with pytest.raises(ValueError, match=f"^cover dictionary says d={d} but centers have 2 coordinates$"):
            SphericalCover.from_dict({**data, "d": d})
    with pytest.raises(ValueError, match="^psi must be a number, got True$"):
        SphericalCover.from_dict({**data, "psi": True})


def test_cover_check_dict_uses_pass_key():
    check = CoverCheck(max_gap=0.1, passed=True, trials=10, psi=0.2)
    assert check.to_dict() == {
        "max_gap": 0.1, "pass": True, "trials": 10, "psi": 0.2,
        "exact_radius": None, "method": "sampled",
    }


def test_sample_directions_unit_norm():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3, 6):
        dirs = sample_directions(d, 500, rng)
        assert dirs.shape == (500, d)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)


def test_sample_directions_roughly_uniform_2d():
    rng = np.random.default_rng(3)
    dirs = sample_directions(2, 20000, rng)
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    counts, _ = np.histogram(angles, bins=8, range=(-math.pi, math.pi))
    # 8 bins, expected 2500 each; 5 sigma is ~240
    assert counts.min() > 2500 - 300
    assert counts.max() < 2500 + 300


def test_build_cover_2d_count_and_coverage():
    for psi in (0.5, 0.3, 0.1, 0.05, 0.02):
        cover = build_cover(2, psi)
        assert cover.n_centers == math.ceil(math.pi / psi) + 1
        # equally spaced centers: true covering radius is pi/m <= psi
        m = cover.n_centers
        assert math.pi / m <= psi
        angles = np.sort(np.arctan2(cover.centers[:, 1], cover.centers[:, 0]))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * math.pi]]))
        np.testing.assert_allclose(gaps, 2.0 * math.pi / m, atol=1e-9)


def test_build_cover_2d_is_deterministic():
    a = build_cover(2, 0.07)
    b = build_cover(2, 0.07)
    np.testing.assert_array_equal(a.centers, b.centers)


def test_build_cover_3d_verified():
    cover = build_cover(3, 0.3)
    check = verify_cover(cover, 20000, rng=np.random.default_rng(5))
    assert check.passed
    assert check.max_gap <= 0.3


def test_build_cover_3d_zonal_counts():
    for psi, count in ((0.3, 72), (0.2, 162), (0.1, 640)):
        cover = build_cover(3, psi, rng=np.random.default_rng(1))
        assert cover.n_centers == count
        # no randomness is consumed: every rng gives the same centers
        other = build_cover(3, psi, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(other.centers, cover.centers)


def _rings(centers):
    """(colatitude, longitudes) of each ring of a zonal cover, north to
    south, and the number of poles. The middle ring's halves, at heights
    within rounding of 0 and of opposite signs, are one ring; a ring's
    colatitude is that of its first center."""
    z = centers[:, 2]
    poles = np.abs(z) == 1.0
    level = np.round(z, 12)
    rings = []
    for zc in np.unique(level[~poles])[::-1]:
        ring = centers[~poles & (level == zc)]
        rings.append((math.acos(ring[0, 2]), np.arctan2(ring[:, 1], ring[:, 0])))
    return rings, int(poles.sum())


@pytest.mark.parametrize("psi", [0.05, 0.1, 0.2, 0.3, 0.6, 0.95])
def test_build_cover_3d_cell_corners_within_psi(psi):
    # The closed form: B bands of height h span [psi', pi - psi'], and every
    # corner of a ring's cells (band edge, +-pi/k about a center) lies
    # within psi' of the center, which bounds the whole cell. A northern
    # ring starts at longitude 0 and a southern one, the antipodes of its
    # northern twin, at pi; the middle ring of an odd B has an even k, so
    # its centers and their antipodes are one ring from longitude 0.
    radius = psi - 1e-12
    bands = math.ceil((math.pi - 2.0 * radius) / (math.sqrt(2.0) * radius))
    height = (math.pi - 2.0 * radius) / bands
    rings, poles = _rings(build_cover(3, psi).centers)
    assert poles == 2 and len(rings) == bands
    for j, (c, lon) in enumerate(rings):
        k = lon.size
        assert k >= 2
        if 2 * j + 1 == bands:
            assert k % 2 == 0
        start = math.pi if 2 * j + 1 > bands else 0.0
        turned = np.mod(lon - start + 1e-9, 2.0 * math.pi) - 1e-9
        np.testing.assert_allclose(np.sort(turned), 2.0 * math.pi * np.arange(k) / k, atol=1e-12)
        for t in (radius + j * height, radius + (j + 1) * height):
            corner = math.cos(t) * math.cos(c) + math.sin(t) * math.sin(c) * math.cos(math.pi / k)
            assert math.acos(min(corner, 1.0)) <= radius


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([3, 4, 5]), fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_build_cover_is_an_exact_mirror_in_d3_and_above(d, fraction):
    # psi from 0.05 (d=3), 0.15 (d=4) or 0.3 (d=5) up to the largest admissible.
    low = {3: 0.05, 4: 0.15, 5: 0.3}[d]
    psi = low + fraction * (max_cover_radius(d) - low)
    cover = build_cover(d, psi)
    h = cover.n_centers // 2
    assert cover.n_centers == 2 * h and cover.mirror == h
    assert np.array_equal(cover.centers[h:], -cover.centers[:h])
    assert np.array_equal(cover.unmirrored, cover.centers[:h])


def test_a_mirrored_cover_loaded_from_a_file_keeps_its_mirror(tmp_path):
    path = tmp_path / "cover.json"
    assert main(["cover", "--d", "3", "--psi", "0.2", "--out", str(path)]) == 0
    cover, built = _load_cover(str(path)), build_cover(3, 0.2)
    assert cover.mirror == built.mirror == 81
    assert np.array_equal(cover.centers, built.centers)


def test_shuffled_or_extended_centers_record_what_they_mirror():
    centers = build_cover(3, 0.2).centers
    shuffled = SphericalCover(np.random.default_rng(3).permutation(centers), 0.2)
    assert shuffled.mirror == 0 and shuffled.unmirrored is shuffled.centers
    # one unpaired center after the mirror: h = m // 2 still pairs
    extended = SphericalCover(np.vstack([centers, [[0.0, 0.6, 0.8]]]), 0.2)
    assert extended.mirror == 81
    assert np.array_equal(extended.unmirrored, np.vstack([centers[:81], [[0.0, 0.6, 0.8]]]))
    # the circle cover at an odd count, and a near-mirror off by one ulp
    assert build_cover(2, 0.02).mirror == 0
    near = centers.copy()
    near[100, 0] = np.nextafter(near[100, 0], 2.0)
    assert SphericalCover(near, 0.2).mirror == 0


@given(st.floats(min_value=0.05, max_value=math.acos(3 ** -0.5), exclude_max=True))
def test_build_cover_3d_exact_radius_within_psi(psi):
    assert cover_radius(build_cover(3, psi).centers) <= psi - 1e-12


def test_cover_radius_closed_forms():
    for m in (3, 4, 7, 50):
        angles = 2.0 * math.pi * np.arange(m) / m
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        assert cover_radius(circle) == pytest.approx(math.pi / m, rel=1e-12)
    for d, radius in ((3, math.acos(3 ** -0.5)), (4, math.pi / 3.0)):
        cross = np.vstack([np.eye(d), -np.eye(d)])
        assert cover_radius(cross) == pytest.approx(radius, rel=1e-12)
    # an antipodal pair leaves a whole great circle pi/2 away
    assert cover_radius(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])) >= math.pi / 2.0
    # a hemisphere's worth of centers leaves the opposite pole uncovered
    upper = fibonacci_sphere(200)
    assert cover_radius(upper[upper[:, 2] > 0]) >= math.pi / 2.0
    with pytest.raises(ValueError):
        cover_radius(np.eye(5))


def test_verify_cover_sampled_gap_stays_below_exact_radius():
    for d, m, seed in ((3, 150, 3), (3, 600, 4), (4, 400, 5), (4, 1500, 6)):
        centers = sample_directions(d, m, np.random.default_rng(seed))
        exact = cover_radius(centers)
        check = verify_cover(SphericalCover(centers, 0.5), 20_000, rng=np.random.default_rng(seed))
        assert check.method == "hull" and check.exact_radius == exact
        assert check.max_gap <= exact
        assert check.passed == (exact <= 0.5)


def test_build_cover_high_d_needs_more_centers():
    for d, psi, side in ((4, 0.5, 4), (4, 0.4, 5), (4, 0.3, 6), (5, 0.5, 4), (6, 0.6, 4)):
        cover = build_cover(d, psi)
        assert side == math.ceil(math.sqrt(d - 1) / (2.0 * math.tan((psi - 1e-12) / 2.0)))
        assert cover.n_centers == 2 * d * side ** (d - 1)
        # every center is a normalised cell centre of a cube face
        scaled = cover.centers / np.abs(cover.centers).max(axis=1)[:, None]
        cells = (scaled + 1.0) * side / 2.0
        on_face = np.isclose(np.abs(scaled), 1.0, rtol=0.0, atol=1e-12)
        assert (on_face.sum(axis=1) == 1).all()
        np.testing.assert_allclose(cells[~on_face] % 1.0, 0.5, atol=1e-9)
        assert len(np.unique(cover.centers.round(12), axis=0)) == cover.n_centers
    assert build_cover(4, 0.3).n_centers > build_cover(4, 0.5).n_centers


@settings(max_examples=30)
@given(st.floats(min_value=0.15, max_value=1.04))
def test_build_cover_4d_exact_radius_within_psi(psi):
    assert cover_radius(build_cover(4, psi).centers) <= psi - 1e-12


@pytest.mark.parametrize("d, psi", [(5, 0.5), (6, 0.6)])
def test_build_cover_high_d_sampled_gap_within_psi(d, psi):
    check = verify_cover(build_cover(d, psi), 20_000, rng=np.random.default_rng(d))
    assert check.method == "sampled"
    assert check.passed and check.max_gap <= psi


def test_build_cover_high_d_consumes_no_randomness():
    for d, psi in ((4, 0.4), (5, 0.5)):
        a = build_cover(d, psi, rng=np.random.default_rng(1))
        b = build_cover(d, psi, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.centers, build_cover(d, psi).centers)


@pytest.mark.parametrize("d, psi", [(2, 1e-7), (3, 1e-4), (3, 1e-300), (4, 0.0063), (6, 0.05)])
def test_build_cover_rejects_oversized_before_allocating(monkeypatch, d, psi):
    def refuse(*args):
        raise AssertionError("a cover array was allocated")

    monkeypatch.setattr(geometry, "_cube_face_grid", refuse)
    monkeypatch.setattr(geometry.np, "column_stack", refuse)
    message = rf"\(d={d}\) at psi={psi} would need .* centers, more than the cap of 1000000"
    with pytest.raises(ValueError, match=message):
        build_cover(d, psi)


def test_build_cover_rejects_bad_psi():
    with pytest.raises(ValueError):
        build_cover(2, 1.0)
    with pytest.raises(ValueError):
        build_cover(3, -0.1)


def test_verify_cover_flags_sparse_cover():
    # two antipodal centers cannot cover S^2 at radius 0.4
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    cover = SphericalCover(centers, 0.4)
    check = verify_cover(cover, 5000, rng=np.random.default_rng(0))
    assert not check.passed
    assert check.max_gap > 0.4


def test_verify_cover_default_rng_is_reproducible():
    cover = build_cover(2, 0.25)
    a = verify_cover(cover, 3000)
    b = verify_cover(cover, 3000)
    assert a.max_gap == b.max_gap
    assert a.passed and b.passed


def test_verify_cover_gap_matches_exact_2d_geometry():
    # equally spaced centers have covering radius exactly pi/m
    cover = build_cover(2, 0.2)
    check = verify_cover(cover, 200_000, rng=np.random.default_rng(8))
    exact = math.pi / cover.n_centers
    assert check.max_gap <= exact + 1e-12
    assert check.max_gap > exact - 0.01


def test_verify_cover_gap_survives_rounding():
    # Every sampled direction is also a center, so each best dot product is a
    # squared norm that rounds to within a few ulps of 1, some of them above
    # it; the gap must come out as a few 1e-8 at most, not NaN.
    trials = 2000
    centers = sample_directions(3, trials, np.random.default_rng(6))
    assert (np.einsum("ij,ij->i", centers, centers) > 1.0).any()
    check = verify_cover(SphericalCover(centers, 0.5), trials, rng=np.random.default_rng(6))
    assert 0.0 <= check.max_gap < 1e-7
    assert check.passed


def test_verify_cover_gap_is_the_geodesic_distance():
    # One center on the circle: the farthest direction is its antipode, pi away,
    # and the gap is measured along the circle, not as a chord.
    cover = SphericalCover(np.array([[1.0, 0.0]]), 0.5)
    check = verify_cover(cover, 20_000, rng=np.random.default_rng(9))
    assert math.pi - 0.01 < check.max_gap <= math.pi
    assert not check.passed
