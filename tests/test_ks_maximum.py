"""sup_deviation's pruned KS maximum against the plain formula.

sup_deviation evaluates Phi only at the ranks whose projections can beat a
lower bound. The reference here evaluates the projected CDF at every one
of the n*m sorted projections and takes every column's KS statistic; the
two must agree exactly, not approximately.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from halfdepth.experiments import draw_sample, split_seed
from halfdepth.geometry import build_cover
from halfdepth.population import cdf_projected_many, elliptical_normal, standard_normal
from halfdepth.sample_depth import Sample, _ks_per_column, sup_deviation

ELLIPTICAL = {
    1: elliptical_normal([2.0], [[3.0]]),
    2: elliptical_normal([1.5, -2.0], [[2.0, 0.7], [0.7, 0.5]]),
    3: elliptical_normal([1.0, 0.0, -3.0], [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.4]]),
}


@lru_cache(maxsize=None)
def cover_for(d):
    """The harness covers: psi=0.02 in the plane (159 centers), psi=0.2 in d=3."""
    return build_cover(d, 0.02 if d == 2 else 0.2)


def reference(sample, dist, cover):
    """The full (n, m) CDF matrix at the sorted projections, then its largest KS."""
    centers = np.array([[1.0]]) if sample.dim == 1 else cover.centers
    z = np.sort(sample.points @ centers.T, axis=0)
    return float(_ks_per_column(cdf_projected_many(dist, centers, z)).max())


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
    # directions, and the thresholds reach +-inf.
    shift = rng.standard_normal(d)
    shift *= 40.0 * np.sqrt(np.max(dist.sigma_array)) / np.linalg.norm(shift)
    return Sample(sample.points + shift)


@settings(max_examples=150)
@given(
    d=st.sampled_from([1, 2, 3]),
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


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family", ["standard_normal", "elliptical_normal"])
def test_sup_deviation_equals_the_full_maximum_on_harness_samples(d, family):
    # The harness's own case: n=300 Gaussian samples, 100 seeds.
    dist = standard_normal(d) if family == "standard_normal" else ELLIPTICAL[d]
    cover = cover_for(d)
    for k in range(100):
        sample = draw_sample(dist, 300, np.random.default_rng(split_seed(77, k)))
        assert sup_deviation(sample, dist, cover) == reference(sample, dist, cover)


def test_sup_deviation_evaluates_phi_at_few_projections(monkeypatch):
    # The benchmark's d=2 case: n=300 against the 159 directions at psi=0.02.
    dist = standard_normal(2)
    cover = cover_for(2)
    sample = draw_sample(dist, 300, np.random.default_rng(split_seed(4242, 0)))
    want = reference(sample, dist, cover)
    ndtr = scipy.special.ndtr
    evaluated = []

    def counting_ndtr(x):
        evaluated.append(np.size(x))
        return ndtr(x)

    monkeypatch.setattr(scipy.special, "ndtr", counting_ndtr)
    assert sup_deviation(sample, dist, cover) == want
    assert 0 < sum(evaluated) <= sample.n * cover.centers.shape[0] / 4
