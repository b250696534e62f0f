import math

import numpy as np
import pytest

from oracles import QuantileInterpolant, empirical_quantile
from property_suites import quantile_integral_suite, quantile_measure_suite


def test_empirical_quantile_sorts_and_interpolates():
    q = empirical_quantile([3.0, 1.0, 2.0])
    assert np.allclose(q.sorted_samples, [1.0, 2.0, 3.0])
    assert q(0.0) == 1.0
    assert q(0.5) == 2.0
    assert q(1.0) == 3.0


def test_empirical_quantile_constant_is_exact():
    q = empirical_quantile(np.full(17, 4.25))
    ys = np.linspace(0, 1, 101)
    assert np.all(q(ys) == 4.25)


def test_empirical_quantile_needs_two_samples():
    with pytest.raises(ValueError, match="need at least two samples"):
        empirical_quantile([1.0])


def test_cosine_samples_approach_rearranged_cosine():
    # samples of cos over {i*pi/(n+1)}: the limit quantile is -cos(pi*y)
    n = 100
    theta = np.arange(1, n + 1) * math.pi / (n + 1)
    q = empirical_quantile(np.cos(theta))
    ys = np.linspace(0.05, 0.95, 501)
    err = np.max(np.abs(q(ys) - (-np.cos(math.pi * ys))))
    assert err <= 0.05


def test_quantile_eval_first_segment_midpoint():
    q = empirical_quantile([0.0, 1.0, 2.0])
    assert q(0.25) == pytest.approx(0.5)


def test_quantile_eval_identity_at_midpoint():
    # 11 equispaced samples of the identity, endpoints included: the
    # interpolant is the identity itself
    q = empirical_quantile(np.linspace(0.0, 1.0, 11))
    assert q(0.5) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("samples,message", [
    ([0.0, 1.0, math.nan], "finite"),
    ([0.0, math.inf], "finite"),
    ([-math.inf, 0.0], "finite"),
    ([1.0, 0.0], "ascending"),
])
def test_quantile_interpolant_rejects_non_finite_or_unsorted_samples(samples, message):
    with pytest.raises(ValueError, match=message):
        QuantileInterpolant(np.array(samples))


def test_quantile_eval_domain_check():
    q = empirical_quantile([0.0, 1.0])
    with pytest.raises(ValueError):
        q(-0.01)
    with pytest.raises(ValueError):
        q(1.01)


def test_quantile_monotonicity_property():
    rng = np.random.default_rng(11)
    q = empirical_quantile(rng.normal(size=40))
    pairs = np.sort(rng.uniform(0, 1, size=(1000, 2)), axis=1)
    lo = q(pairs[:, 0])
    hi = q(pairs[:, 1])
    assert np.all(lo <= hi + 1e-15)


def test_quantile_eval_rejects_nan():
    q = empirical_quantile([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        q(math.nan)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        q(np.array([0.5, math.nan]))


def test_measure_preservation_property():
    quantile_measure_suite(trials=1000)


def test_integral_identity_property():
    quantile_integral_suite(trials=1000)
