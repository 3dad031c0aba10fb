"""sup_deviation's KS maximum from per-rank extremes against the plain formula.

sup_deviation evaluates Phi only at each rank's largest and smallest
standardised projection, exactly only where the table's bracket says a
term can attain the maximum, and projects only the unmirrored half of a
mirrored cover. The reference here evaluates the projected CDF at every
one of the n*m sorted projections, the -c columns built as exact
negations of the c columns, and takes every column's KS statistic; the
two must agree exactly, not approximately.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from halfdepth import population, sample_depth
from halfdepth.experiments import draw_sample, split_seed
from halfdepth.geometry import SphericalCover, build_cover
from halfdepth.population import elliptical_normal, standard_normal
from halfdepth.sample_depth import Sample, sup_deviation

ELLIPTICAL = {
    1: elliptical_normal([2.0], [[3.0]]),
    2: elliptical_normal([1.5, -2.0], [[2.0, 0.7], [0.7, 0.5]]),
    3: elliptical_normal([1.0, 0.0, -3.0], [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.4]]),
    4: elliptical_normal([0.5, -1.0, 2.0, 0.0], np.diag([3.0, 1.0, 0.5, 2.0]) + 0.2),
}


@lru_cache(maxsize=None)
def cover_for(d):
    """The harness covers: psi=0.02 in the plane (159 centers), psi=0.2 in d=3
    (162 centers, a mirror); in d=4 the mirrored 512 centers at psi=0.5."""
    return build_cover(d, {2: 0.02, 3: 0.2, 4: 0.5}[d])


def reference(sample, dist, cover):
    """The full (n, m) CDF matrix at the sorted projections, then its largest
    KS. The projections onto -c are the exact negations of those onto c,
    and the moments of -c come from its own row of the centers. Phi is
    scipy's ndtr over the whole matrix in one call, which test_ndtr pins
    equal to population._ndtr bit for bit."""
    centers = np.array([[1.0]]) if sample.dim == 1 else cover.centers
    h = 0 if sample.dim == 1 else cover.mirror
    z = sample.points @ centers.T
    z[:, h:2 * h] = -z[:, :h]
    z.sort(axis=0)
    f = ndtr(population._standardised(dist, centers, z))
    n = sample.n
    i = np.arange(1, n + 1, dtype=float)[:, None]
    return float(np.maximum(f - (i - 1.0) / n, i / n - f).max())


def make_sample(d, dist, n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "grid":
        # Integer grid in [-3, 3]^d with the first point repeated.
        x = rng.integers(-3, 4, size=(n, d)).astype(float)
        x[n // 2] = x[0]
        return Sample(x)
    sample = draw_sample(dist, n, rng)
    if kind == "gaussian":
        return sample
    # About 40 sigma off the mean: Phi saturates at 0 or 1 in most
    # directions.
    shift = rng.standard_normal(d)
    shift *= 40.0 * np.sqrt(np.max(dist.sigma_array)) / np.linalg.norm(shift)
    return Sample(sample.points + shift)


@settings(max_examples=150)
@given(
    d=st.sampled_from([1, 2, 3, 4]),
    family=st.sampled_from(["standard_normal", "elliptical_normal"]),
    n=st.sampled_from([1, 2, 3, 50, 300]),
    kind=st.sampled_from(["gaussian", "grid", "shifted"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sup_deviation_equals_the_full_maximum(d, family, n, kind, seed):
    dist = standard_normal(d) if family == "standard_normal" else ELLIPTICAL[d]
    cover = cover_for(d) if d > 1 else None
    sample = make_sample(d, dist, n, kind, seed)
    assert sup_deviation(sample, dist, cover) == reference(sample, dist, cover)


@pytest.mark.parametrize("shape", ["mirror", "mirror-and-rest", "shuffled"])
@pytest.mark.parametrize("family", ["standard_normal", "elliptical_normal"])
def test_sup_deviation_equals_the_full_maximum_on_every_cover_shape(shape, family):
    # The d=3 harness cover, the same with one unpaired center after its
    # mirror, and its centers shuffled, which records no mirror.
    dist = standard_normal(3) if family == "standard_normal" else ELLIPTICAL[3]
    centers = cover_for(3).centers
    if shape == "mirror-and-rest":
        centers = np.vstack([centers, [[0.6, 0.0, 0.8]]])
    elif shape == "shuffled":
        centers = np.random.default_rng(5).permutation(centers)
    cover = SphericalCover(centers, 0.2)
    assert cover.mirror == {"mirror": 81, "mirror-and-rest": 81, "shuffled": 0}[shape]
    for k in range(30):
        for kind in ("gaussian", "grid", "shifted"):
            sample = make_sample(3, dist, (1, 2, 50, 300)[k % 4], kind, split_seed(78, k))
            assert sup_deviation(sample, dist, cover) == reference(sample, dist, cover)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family", ["standard_normal", "elliptical_normal"])
def test_sup_deviation_equals_the_full_maximum_on_harness_samples(d, family):
    # The harness's own case: n=300 Gaussian samples, 100 seeds.
    dist = standard_normal(d) if family == "standard_normal" else ELLIPTICAL[d]
    cover = cover_for(d)
    for k in range(100):
        sample = draw_sample(dist, 300, np.random.default_rng(split_seed(77, k)))
        assert sup_deviation(sample, dist, cover) == reference(sample, dist, cover)


def test_sup_deviation_takes_the_maximum_where_the_table_misorders_two_terms():
    # Two points on the line. x2 is mid-cell, where the interpolant lies
    # furthest below the concave Phi; x1 puts rank 2's D+ term a hair,
    # half that gap, above rank 1's. The table scores rank 1's pair higher,
    # so only the 2-margin window puts rank 2's pair among those taken.
    step = population._TABLE_NODES[1] - population._TABLE_NODES[0]
    x2 = 0.8671875
    assert (x2 + 9.0) / step % 1.0 == 0.5
    gap = ndtr(x2) - population._phi_interpolated(x2)
    assert 0.5 * population._TABLE_MARGIN < gap < population._TABLE_MARGIN
    x1 = float(ndtri(ndtr(x2) - 0.5 - 0.5 * gap))
    dist = standard_normal(1)
    sample = Sample(np.array([[x1], [x2]]))
    assert population._phi_interpolated(x1) > population._phi_interpolated(x2) - 0.5
    assert ndtr(x2) - 0.5 > ndtr(x1)
    assert sup_deviation(sample, dist, None) == reference(sample, dist, None) == ndtr(x2) - 0.5


def test_sup_deviation_evaluates_phi_at_few_projections(monkeypatch):
    # The benchmark's cases: n=300 against the 159 directions at psi=0.02
    # and the mirrored 162 at psi=0.2, and a large sample. Once the table
    # exists, exact Phi is evaluated only at the few rank pairs (a D+ and a
    # D- term each) whose table score is within twice its margin of the
    # largest.
    population._phi_table()
    evaluated = []

    def counting_ndtr(x):
        evaluated.append(x)
        return population._ndtr(x)

    for d, n in ((2, 300), (3, 300), (2, 10_000)):
        dist = standard_normal(d)
        cover = cover_for(d)
        assert cover.mirror == {2: 0, 3: 81}[d]
        sample = draw_sample(dist, n, np.random.default_rng(split_seed(4242, 0)))
        want = reference(sample, dist, cover)
        evaluated.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sample_depth, "_ndtr", counting_ndtr)
            assert sup_deviation(sample, dist, cover) == want
        assert 2 <= len(evaluated) <= 8, (d, n)
        assert all(type(x) is float for x in evaluated)
