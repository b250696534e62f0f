import itertools
import math

import numpy as np
import pytest

from eigmatch.core import AUGrid, Rect, ScalarSymbol, grid_deviation, make_uniform_grid
from eigmatch.eig import eig_sym
from eigmatch.match import (
    MonotonePiece,
    NoPreimageError,
    min_perm_match,
    mn_curve,
    preimage_grid,
    sorted_match,
)
from eigmatch.problems import (
    cos_dip_argmin,
    cos_dip_ramp_symbol,
    cosine_eigs_exact,
    cosine_symbol,
    endpoint_indicator,
    eigen_angle_grid,
    half,
)
from eigmatch.toeplitz import fourier_coeffs, toeplitz_build

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
    symbol = half(cosine_symbol(a, b))
    lambdas = {n: cosine_eigs_exact(a, b, n) for n in (4, 17, 60)}
    rows = mn_curve(symbol, eigen_angle_grid, lambdas, [4, 17, 60])
    for n, m in rows:
        assert m <= 1e-10 * (abs(a) + abs(b))


def test_mn_curve_size_mismatch_names_n():
    symbol = half(cosine_symbol(2.0, -2.0))
    with pytest.raises(ValueError, match="n=6"):
        mn_curve(symbol, eigen_angle_grid, {6: np.zeros(5)}, [6])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sorted_match_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        sorted_match([1.0, bad], [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        sorted_match([1.0, 2.0], [bad, 2.0])


def test_mn_curve_rejects_non_finite_lambdas():
    symbol = half(cosine_symbol(2.0, -2.0))
    lam = cosine_eigs_exact(2.0, -2.0, 6)
    lam[3] = math.nan
    with pytest.raises(ValueError, match="finite"):
        mn_curve(symbol, eigen_angle_grid, {6: lam}, [6])


def disk_symbol():
    """x^2 + y^2 on [-1, 1]^2 restricted to the closed unit disk Omega."""
    return ScalarSymbol(
        domain=Rect(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        eval=lambda x, y: x**2 + y**2,
        declared_inf=0.0,
        declared_sup=2.0,
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


def _cosine_pieces(a, b):
    direction = "increasing" if b < 0 else "decreasing"
    return [MonotonePiece(0.0, math.pi, direction, lambda t: a + b * np.cos(t))]


def test_preimage_grid_recovers_cosine_angles():
    a, b, n = 2.0, -2.0, 40
    lam = cosine_eigs_exact(a, b, n)
    ref = make_uniform_grid(Rect(np.array([0.0]), np.array([math.pi])), (n,))
    g = preimage_grid(_cosine_pieces(a, b), lam, ref)
    expected = np.arange(1, n + 1) * math.pi / (n + 1)
    assert np.max(np.abs(g.points[:, 0] - expected)) <= 1e-10
    # deviation of the recovered grid, computed directly: max_i |i*pi/(n+1) - i*pi/n|
    assert grid_deviation(g) == pytest.approx(math.pi / (n + 1), abs=1e-10)


def test_preimage_grid_strictly_increasing_exact_samples():
    rng = np.random.default_rng(3)
    n = 25
    f = lambda x: x + 0.2 * np.sin(x)
    pts = np.sort(rng.uniform(0.0, math.pi, size=n))
    ref = AUGrid(rect=Rect(np.array([0.0]), np.array([math.pi])), dims=(n,),
                 points=pts.reshape(-1, 1))
    g = preimage_grid([MonotonePiece(0.0, math.pi, "increasing", f)], f(pts), ref)
    assert np.max(np.abs(g.points[:, 0] - pts)) <= 1e-10


def _cos_dip_pieces():
    dip = lambda t: np.cos(2.0 * t) + np.cos(3.0 * t)
    return [
        MonotonePiece(0.0, cos_dip_argmin, "decreasing", dip),
        MonotonePiece(cos_dip_argmin, math.pi / 2, "increasing", dip),
        MonotonePiece(math.pi / 2, math.pi, "increasing", lambda t: np.asarray(t, float)),
    ]


def test_preimage_grid_cos_dip_deviation_decreases():
    symbol = cos_dip_ramp_symbol()
    coeffs = fourier_coeffs(symbol, 255)
    rect = Rect(np.array([0.0]), np.array([math.pi]))
    devs = []
    for n in (64, 128, 256):
        lam = eig_sym(toeplitz_build(coeffs, n)).values
        ref = make_uniform_grid(rect, (n,))
        devs.append(grid_deviation(preimage_grid(_cos_dip_pieces(), lam, ref)))
    assert all(d <= 0.4 for d in devs)
    assert devs[0] > devs[1] > devs[2]


def test_preimage_grid_reports_unreachable_value():
    ref = make_uniform_grid(Rect(np.array([0.0]), np.array([math.pi])), (3,))
    with pytest.raises(NoPreimageError) as err:
        preimage_grid(_cosine_pieces(2.0, -2.0), [0.1, 2.0, 9.0], ref)
    assert err.value.value == 9.0
    assert 0 <= err.value.index < 3


def test_preimage_grid_snap_tolerance():
    # with snapping at 0, every recovered point collapses to its reference point
    a, b, n = 2.0, -2.0, 12
    lam = cosine_eigs_exact(a, b, n)
    ref = make_uniform_grid(Rect(np.array([0.0]), np.array([math.pi])), (n,))
    g = preimage_grid(_cosine_pieces(a, b), lam, ref, snap_tol=0.0)
    assert np.allclose(np.sort(g.points[:, 0]), np.sort(ref.points[:, 0]))
