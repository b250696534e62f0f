import math

import numpy as np
import pytest

from eigmatch.core import Rect, ScalarSymbol
from eigmatch.problems import c0_quadratic_branches, cosine_symbol, endpoint_indicator, half
from eigmatch.rearrange import empirical_quantile, essential_range, quantile_eval, quantile_oracle

from property_suites import quantile_integral_suite, quantile_measure_suite


def test_empirical_quantile_sorts_and_interpolates():
    q = empirical_quantile([3.0, 1.0, 2.0])
    assert np.allclose(q.sorted_samples, [1.0, 2.0, 3.0])
    assert quantile_eval(q, 0.0) == 1.0
    assert quantile_eval(q, 0.5) == 2.0
    assert quantile_eval(q, 1.0) == 3.0


def test_empirical_quantile_constant_is_exact():
    q = empirical_quantile(np.full(17, 4.25))
    ys = np.linspace(0, 1, 101)
    assert np.all(quantile_eval(q, ys) == 4.25)


def test_empirical_quantile_needs_two_samples():
    with pytest.raises(ValueError):
        empirical_quantile([1.0])


def test_cosine_samples_approach_rearranged_cosine():
    # samples of cos over {i*pi/(n+1)}: the limit quantile is -cos(pi*y)
    n = 100
    theta = np.arange(1, n + 1) * math.pi / (n + 1)
    q = empirical_quantile(np.cos(theta))
    ys = np.linspace(0.05, 0.95, 501)
    err = np.max(np.abs(quantile_eval(q, ys) - (-np.cos(math.pi * ys))))
    assert err <= 0.05


def test_quantile_eval_first_segment_midpoint():
    q = empirical_quantile([0.0, 1.0, 2.0])
    assert quantile_eval(q, 0.25) == pytest.approx(0.5)


def test_quantile_eval_identity_at_midpoint():
    # 11 equispaced samples of the identity, endpoints included: the
    # interpolant is the identity itself
    q = empirical_quantile(np.linspace(0.0, 1.0, 11))
    assert quantile_eval(q, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_quantile_eval_domain_check():
    q = empirical_quantile([0.0, 1.0])
    with pytest.raises(ValueError):
        quantile_eval(q, -0.01)
    with pytest.raises(ValueError):
        quantile_eval(q, 1.01)


def test_quantile_monotonicity_property():
    rng = np.random.default_rng(11)
    q = empirical_quantile(rng.normal(size=40))
    pairs = np.sort(rng.uniform(0, 1, size=(1000, 2)), axis=1)
    lo = quantile_eval(q, pairs[:, 0])
    hi = quantile_eval(q, pairs[:, 1])
    assert np.all(lo <= hi + 1e-15)


def test_quantile_oracle_increasing_symbol():
    f = ScalarSymbol(
        domain=Rect(np.array([2.0]), np.array([5.0])),
        eval=lambda x: x**3,
        declared_inf=8.0,
        declared_sup=125.0,
    )
    y = 0.37
    expected = (2.0 + y * 3.0) ** 3
    assert quantile_oracle(f, 10**5, y) == pytest.approx(expected, abs=1e-2)


def test_quantile_oracle_endpoint_indicator():
    assert quantile_oracle(endpoint_indicator(), 10**4, 0.5) == 0.0


def test_quantile_oracle_cosine():
    f = ScalarSymbol(
        domain=Rect(np.array([0.0]), np.array([math.pi])),
        eval=np.cos,
        declared_inf=-1.0,
        declared_sup=1.0,
    )
    assert quantile_oracle(f, 10**6, 0.25) == pytest.approx(-math.cos(math.pi / 4), abs=1e-3)


def test_quantile_oracle_validates_density():
    with pytest.raises(ValueError):
        quantile_oracle(endpoint_indicator(), 10, 0.5)


def test_quantile_eval_rejects_nan():
    q = empirical_quantile([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        quantile_eval(q, math.nan)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        quantile_eval(q, np.array([0.5, math.nan]))


def test_quantile_oracle_on_disk_domain():
    # on the unit disk r^2 is uniform on [0, 1], so its quantile is the identity
    disk = ScalarSymbol(
        domain=Rect(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        eval=lambda x, y: x**2 + y**2,
        declared_inf=0.0,
        declared_sup=2.0,
        membership=lambda x, y: x**2 + y**2 <= 1.0,
    )
    for y in (0.1, 0.5, 0.9):
        assert quantile_oracle(disk, 10**5, y) == pytest.approx(y, abs=6e-3)


def test_essential_range_rejects_nan_gap_tol():
    with pytest.raises(ValueError, match="gap_tol"):
        essential_range(half(cosine_symbol(1.5, -0.75)), 10**4, gap_tol=math.nan)


def test_essential_range_cosine_band():
    a, b = 1.5, -0.75
    rng = essential_range(half(cosine_symbol(a, b)), 10**4, gap_tol=None)
    assert len(rng.intervals) == 1
    assert rng.lo == pytest.approx(a - abs(b), abs=1e-3)
    assert rng.hi == pytest.approx(a + abs(b), abs=1e-3)


def test_essential_range_lower_branch():
    f1, _ = c0_quadratic_branches()
    sym = ScalarSymbol(
        domain=Rect(np.array([0.0]), np.array([math.pi])),
        eval=f1,
        declared_inf=0.0,
        declared_sup=4.0 / 3.0,
    )
    rng = essential_range(sym, 10**4, gap_tol=None)
    assert len(rng.intervals) == 1
    assert rng.lo == pytest.approx(0.0, abs=1e-3)
    assert rng.hi == pytest.approx(4.0 / 3.0, abs=1e-3)


def test_essential_range_degenerate_indicator():
    # the indicator of {1} is zero a.e.; interior sampling never sees the
    # boundary spike, leaving the single degenerate interval [0, 0]
    rng = essential_range(endpoint_indicator(), 10**4, gap_tol=None)
    assert rng.intervals == ((0.0, 0.0),)


def test_measure_preservation_property():
    quantile_measure_suite(trials=1000)


def test_integral_identity_property():
    quantile_integral_suite(trials=1000)
