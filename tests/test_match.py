import itertools
import math

import numpy as np
import pytest

from eigmatch.core import MatrixSymbol, Rect, ScalarSymbol, make_uniform_grid
from eigmatch.match import branch_match, min_perm_match, mn_curve, sorted_match
from eigmatch.problems import (
    cosine_eigs_exact,
    cosine_symbol,
    endpoint_indicator,
    eigen_angle_grid,
)

from property_suites import sorted_pair_suite, min_perm_suite, sorted_rearrangement_suite


def test_sorted_match_identical_multisets():
    rng = np.random.default_rng(0)
    v = rng.normal(size=23)
    assert sorted_match(v, rng.permutation(v)).m_n == 0.0


def test_sorted_match_small_example():
    res = sorted_match([0.0, 1.0, 2.0], [2.1, 0.05, 0.9])
    assert res.m_n == pytest.approx(0.1)
    assert np.allclose(np.abs(res.paired_diffs), [0.05, 0.1, 0.1])
    # brute force over all 6 pairings: the sorted pairing attains the minimum
    brute = min(
        max(abs(s - l) for s, l in zip([0.0, 1.0, 2.0], perm))
        for perm in itertools.permutations([2.1, 0.05, 0.9])
    )
    assert brute == pytest.approx(res.m_n)


def test_sorted_match_permutations_sort_inputs():
    s = np.array([3.0, 1.0, 2.0])
    t = np.array([0.3, 0.1, 0.2])
    res = sorted_match(s, t)
    assert np.all(np.diff(s[res.sigma]) >= 0)
    assert np.all(np.diff(t[res.tau]) >= 0)


def test_sorted_match_endpoint_indicator_stalls_at_one():
    n = 10
    samples = endpoint_indicator().sample(np.arange(1, n + 1) / n)
    assert sorted_match(samples, np.zeros(n)).m_n == 1.0


def test_sorted_match_is_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.normal(size=(2, 17))
        assert sorted_match(x, y).m_n == sorted_match(y, x).m_n


def test_sorted_match_size_validation():
    with pytest.raises(ValueError):
        sorted_match([1.0], [1.0, 2.0])


def test_min_perm_match_examples():
    assert min_perm_match([5.0, 1.0], [1.0, 5.0]) == 0.0
    assert min_perm_match([0.0, 1.0, 2.0], [2.1, 0.05, 0.9]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        min_perm_match(np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError, match="need at least one value per side"):
        min_perm_match([], [])


def test_min_perm_equals_sorted_on_random_sevens():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.normal(size=(2, 7))
        assert min_perm_match(x, y) == sorted_match(x, y).m_n


def test_min_perm_property_suite():
    min_perm_suite(trials=100)


def test_sorted_pair_inequality_property():
    sorted_pair_suite(trials=1000)


def test_sorted_rearrangement_deviation_property():
    sorted_rearrangement_suite(trials=1000)


def test_mn_curve_exact_cosine_family():
    a, b = 5.0, 3.0
    symbol = cosine_symbol(a, b)
    lambdas = {n: cosine_eigs_exact(a, b, n) for n in (4, 17, 60)}
    rows = mn_curve(symbol, eigen_angle_grid, lambdas, [4, 17, 60])
    for n, m in rows:
        assert m <= 1e-10 * (abs(a) + abs(b))


def test_mn_curve_size_mismatch_names_n():
    symbol = cosine_symbol(2.0, -2.0)
    with pytest.raises(ValueError, match="n=6"):
        mn_curve(symbol, eigen_angle_grid, {6: np.zeros(5)}, [6])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sorted_match_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        sorted_match([1.0, bad], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        sorted_match([1.0, 2.0], [bad, 2.0])


def test_mn_curve_rejects_non_finite_lambdas():
    symbol = cosine_symbol(2.0, -2.0)
    lam = cosine_eigs_exact(2.0, -2.0, 6)
    lam[3] = math.nan
    with pytest.raises(ValueError, match="finite"):
        mn_curve(symbol, eigen_angle_grid, {6: lam}, [6])


def disk_symbol():
    """x^2 + y^2 on [-1, 1]^2 restricted to the closed unit disk Omega."""
    return ScalarSymbol(
        domain=Rect(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        eval=lambda x, y: x**2 + y**2,
        membership=lambda x, y: x**2 + y**2 <= 1.0,
    )


def test_mn_curve_on_disk_domain_is_exact_against_restricted_samples():
    symbol = disk_symbol()
    grid_for_n = lambda n: make_uniform_grid(symbol.domain, (n, n))
    rng = np.random.default_rng(17)
    lambdas = {}
    for n, inside in [(10, 75), (41, 1304), (100, 7839)]:
        pts = grid_for_n(n).points
        restricted = symbol.sample(pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0])
        assert restricted.size == inside
        lambdas[n] = rng.permutation(restricted)
    assert mn_curve(symbol, grid_for_n, lambdas, [10, 41, 100]) == [(10, 0.0), (41, 0.0),
                                                                     (100, 0.0)]


def test_mn_curve_on_disk_domain_rejects_full_grid_size():
    symbol = disk_symbol()
    grid_for_n = lambda n: make_uniform_grid(symbol.domain, (n, n))
    with pytest.raises(ValueError, match="n=10: 75 grid samples inside the domain vs 100"):
        mn_curve(symbol, grid_for_n, {10: np.zeros(100)}, [10])


def _rounded_symbol(rng, k):
    """k x k symbol A + t B on [0, 1], entries rounded to 0.1, diagonal one time in two."""
    a, b = (np.round(rng.uniform(-1.0, 1.0, size=(k, k)), 1) for _ in range(2))
    if rng.integers(2):
        a, b = np.diag(np.diag(a)), np.diag(np.diag(b))
    a, b = a + a.T, b + b.T
    return MatrixSymbol(interval=(0.0, 1.0), k=k, eval=lambda t: a + t[:, None, None] * b)


def test_branch_match_groups_the_per_branch_sorted_matches():
    # the one sorted match of the stacked samples, restricted to branch j's
    # pairs, is the sorted match of branch j's samples against the values
    # paired with them, bit for bit; rounding to 0.1 forces ties
    rng = np.random.default_rng(27)
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        sizes = rng.integers(0, 6, size=k)
        sizes[rng.integers(k)] += 1
        sym = _rounded_symbol(rng, k)
        grids = [np.round(rng.uniform(0.0, 1.0, size=size), 1) for size in sizes]
        values = np.round(rng.uniform(-4.0, 4.0, size=sizes.sum()), 1)
        result, labels = branch_match(values, sym, grids)
        assert np.array_equal(np.bincount(labels, minlength=k), sizes)
        samples = sym.branch_samples(np.concatenate(grids))
        start = np.cumsum(sizes) - sizes
        for j in np.flatnonzero(sizes):
            own = samples[start[j]:start[j] + sizes[j], j]
            mine = labels == j
            expected = sorted_match(own, values[result.tau[mine]]).paired_diffs
            assert np.array_equal(result.paired_diffs[mine], expected)
