"""One check for every point array: geometry._points.

Samples, query blocks, cover centers, the raw-array oracles and a law's
mean and covariance each meet it once, where they enter, so a non-finite
entry in any of them raises a ValueError that names the array, and a
wrong width names the coordinate count expected.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfdepth.bounds import halfplane_subset_count, regular_polygon
from halfdepth.experiments import ExperimentConfig
from halfdepth.geometry import SphericalCover, build_cover, cover_radius
from halfdepth.population import affine_reduce, elliptical_normal, population_depth, standard_normal
from halfdepth.sample_depth import (
    Sample,
    depth_brute,
    depth_certified,
    depth_certified_many,
    depth_exact_2d,
    depth_exact_2d_many,
)

_PLANE = Sample(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5]]))
_COVER = build_cover(2, 0.3)
_SIGMA = [[2.0, 0.5], [0.5, 1.0]]
_SPEC = elliptical_normal([1.0, -1.0], _SIGMA)
_QUERIES = [[0.0, 0.0], [0.2, -0.1], [1.5, 2.0]]

# (the name an error gives, a valid array, a call that takes it)
_ENTRIES = [
    ("sample", _PLANE.points, Sample),
    ("sample", [1.0, 2.0, 3.0], Sample),
    ("centers", build_cover(3, 0.5).centers, lambda a: SphericalCover(a, 0.5)),
    ("centers", build_cover(5, 0.9).centers, lambda a: SphericalCover(a, 0.9)),
    ("centers", build_cover(3, 0.5).centers, cover_radius),
    ("queries", _QUERIES, lambda a: depth_exact_2d_many(a, _PLANE)),
    ("queries", _QUERIES[1], lambda a: depth_exact_2d(a, _PLANE)),
    ("queries", _QUERIES, lambda a: depth_certified_many(a, _PLANE, _COVER)),
    ("queries", _QUERIES[2], lambda a: depth_certified(a, _PLANE, _COVER)),
    ("queries", _QUERIES, lambda a: ExperimentConfig(dist=_SPEC, n=5, eps=0.3, trials=1, seed=0, queries=a)),
    ("query", _QUERIES[1], lambda a: depth_brute(a, _PLANE)),
    ("query", _QUERIES[1], lambda a: population_depth(standard_normal(2), a)),
    ("query", _QUERIES[1], lambda a: population_depth(_SPEC, a)),
    ("points", regular_polygon(5), halfplane_subset_count),
    ("mu", [1.0, -1.0], lambda a: elliptical_normal(a, _SIGMA)),
    ("mu", [1.0, -1.0], lambda a: affine_reduce(_SIGMA, a)),
    ("mu", [1.0, -1.0], lambda a: dataclasses.replace(_SPEC, mu=a)),
    ("sigma", _SIGMA, lambda a: elliptical_normal([1.0, -1.0], a)),
    ("sigma", _SIGMA, lambda a: affine_reduce(a, [1.0, -1.0])),
    ("sigma", _SIGMA, lambda a: dataclasses.replace(_SPEC, sigma=a)),
]


@pytest.mark.parametrize("name, valid, call", _ENTRIES)
def test_every_point_entry_takes_its_valid_array(name, valid, call):
    call(valid)
    call(np.asarray(valid).tolist())


@given(
    entry=st.sampled_from(_ENTRIES),
    data=st.data(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    as_list=st.booleans(),
)
def test_a_non_finite_entry_in_any_point_array_is_refused_by_name(entry, data, bad, as_list):
    name, valid, call = entry
    arr = np.array(valid, dtype=float)
    arr.flat[data.draw(st.integers(0, arr.size - 1), label="index")] = bad
    with pytest.raises(ValueError, match=f"^{name} has a non-finite coordinate"):
        call(arr.tolist() if as_list else arr)


def test_the_message_names_the_array_the_width_and_what_was_given():
    for call, message in (
        (lambda: depth_exact_2d_many(np.zeros((1, 3)), _PLANE), r"^queries has 3 coordinates, expected 2$"),
        (lambda: depth_brute([0.0, 0.0, 0.0], _PLANE), r"^query has 3 coordinates, expected 2$"),
        (lambda: population_depth(_SPEC, [0.0]), r"^query has 1 coordinates, expected 2$"),
        (lambda: Sample(np.zeros((0, 2))),
         r"^sample must be an \(n, d >= 1\) array of numbers with n >= 1, got shape \(0, 2\)$"),
        (lambda: SphericalCover([[1.0, 0.0], [math.nan, 0.0]], 0.5),
         r"^centers has a non-finite coordinate in row 1: \[nan, 0.0\]$"),
        (lambda: elliptical_normal([math.inf, 0.0], _SIGMA), r"^mu has a non-finite coordinate: \[inf, 0.0\]$"),
        (lambda: elliptical_normal([0.0, 0.0], [[1.0, 0.0]]), r"^sigma must be 2x2, got shape \(1, 2\)$"),
        (lambda: halfplane_subset_count([[0.0, 0.0, 1.0]]), r"^points has 3 coordinates, expected 2$"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_nan_center_is_refused_in_every_dimension():
    # A NaN norm compares false against the unit-norm tolerance, so the
    # norm check alone cannot refuse such a center.
    for d, psi in ((2, 0.3), (3, 0.5), (5, 0.9)):
        centers = build_cover(d, psi).centers.copy()
        centers[1, 0] = math.nan
        with pytest.raises(ValueError, match="^centers has a non-finite coordinate in row 1"):
            SphericalCover(centers, psi)


def test_a_non_finite_covariance_entry_is_refused_by_name_without_a_warning():
    for bad in (math.inf, -math.inf, math.nan):
        sigma = [[2.0, bad], [bad, 1.0]]
        for call in (
            lambda: elliptical_normal([0.0, 0.0], sigma),
            lambda: affine_reduce(sigma, [0.0, 0.0]),
            lambda: dataclasses.replace(_SPEC, sigma=sigma),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^sigma has a non-finite coordinate in row 0"):
                    call()


def test_replace_meets_the_law_check():
    # The spec's constructor checks mu and sigma, so a replace cannot
    # carry in a NaN mean or an asymmetric covariance.
    with pytest.raises(ValueError, match=r"^mu has a non-finite coordinate: \[nan, 0.0\]$"):
        dataclasses.replace(_SPEC, mu=(math.nan, 0.0))
    with pytest.raises(ValueError, match="^sigma is not symmetric"):
        dataclasses.replace(_SPEC, sigma=((2.0, 0.5), (0.4, 1.0)))
    with pytest.raises(ValueError, match="^sigma is not positive definite"):
        dataclasses.replace(_SPEC, sigma=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(ValueError, match="^mu has a non-finite coordinate"):
        dataclasses.replace(standard_normal(2), mu=(0.0, math.inf))


def test_the_spec_carries_checked_tuples_of_floats():
    spec = dataclasses.replace(_SPEC, mu=np.array([1.0, -1.0]), sigma=np.array(_SIGMA))
    assert spec == _SPEC and hash(spec) == hash(_SPEC)
    assert all(type(x) is float for x in spec.mu + spec.sigma[0] + spec.sigma[1])
