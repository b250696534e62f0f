import functools
import math
import weakref

import numpy as np
import pytest

from eigmatch import toeplitz
from eigmatch.core import Rect, ScalarSymbol
from eigmatch.eig import eig_sym
from eigmatch.problems import (
    cos_dip_ramp_symbol,
    cosine_symbol,
    fd_coefficients,
    fd_symbol_2d,
    plateau_ramp_symbol,
)
from eigmatch.toeplitz import (
    FourierCoeffs,
    _LEGENDRE_TERMS,
    _filon_coeffs,
    _spherical_jn,
    fourier_coeffs,
    toeplitz_build,
    toeplitz_halves,
)

from oracles import cos_dip_min, cosine_eigs_exact


def _sin_half_pi(q):
    """sin(q*pi/2) for integer arrays q, exactly."""
    return np.array([0.0, 1.0, 0.0, -1.0])[np.asarray(q) % 4]


def _plateau_ramp_exact(order):
    """f_k = (cos(k pi) - cos(k pi/2)) / (pi k^2) for k >= 1, and 1 + pi/8 at k = 0."""
    k = np.arange(1, order + 1)
    rest = ((-1.0) ** k - _sin_half_pi(k + 1)) / (math.pi * k**2)
    return np.concatenate([[1.0 + math.pi / 8], rest])


def _cos_dip_ramp_exact(order):
    """(1/pi) [int_0^{pi/2} (cos 2t + cos 3t) cos kt dt + int_{pi/2}^{pi} t cos kt dt]."""
    k = np.arange(order + 1)
    head = np.zeros(order + 1)
    for q in (2 - k, 2 + k, 3 - k, 3 + k):  # int_0^{pi/2} cos(qt) dt, halved
        safe = np.where(q == 0, 1, q)
        head += 0.5 * np.where(q == 0, math.pi / 2, _sin_half_pi(q) / safe)
    kk = np.maximum(k, 1)
    tail = np.where(k == 0, 3 * math.pi**2 / 8,
                    (-1.0) ** kk / kk**2 - (math.pi / 2) * _sin_half_pi(kk) / kk
                    - _sin_half_pi(kk + 1) / kk**2)
    return (head + tail) / math.pi


def test_cosine_coefficients_by_orthogonality():
    a, b = 1.7, -0.4
    f = cosine_symbol(a, b)
    assert fourier_coeffs(f, 0).data[0] == pytest.approx(a, abs=1e-12)
    assert fourier_coeffs(f, 1).data[1] == pytest.approx(b / 2, abs=1e-12)
    assert abs(fourier_coeffs(f, 5).data[5]) <= 1e-12


def test_constant_symbol_coefficients():
    f = cosine_symbol(3.25, 0.0)
    assert fourier_coeffs(f, 0).data[0] == pytest.approx(3.25, abs=1e-13)
    assert abs(fourier_coeffs(f, 3).data[3]) <= 1e-13


def test_plateau_ramp_mean_value(monkeypatch):
    # closed form: (1/pi) * [pi/2 + int_{pi/2}^{pi} (t + 1 - pi/2) dt] = 1 + pi/8
    f0 = fourier_coeffs(plateau_ramp_symbol(), 0).data[0]
    assert f0 == pytest.approx(1.0 + math.pi / 8, abs=1e-12)
    monkeypatch.setattr(toeplitz, "_MAX_PANEL", math.pi / 4)  # twice the panels
    doubled = fourier_coeffs(plateau_ramp_symbol(), 0).data[0]
    assert abs(f0 - doubled) <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 5, 64, 511, 512])
def test_quadrature_node_doubling_converged(monkeypatch, k):
    symbols = (plateau_ramp_symbol(), cos_dip_ramp_symbol(), cosine_symbol(2.0, -2.0))
    once = [fourier_coeffs(symbol, k).data[k] for symbol in symbols]
    monkeypatch.setattr(toeplitz, "_MAX_PANEL", math.pi / 4)  # twice the panels
    twice = [fourier_coeffs(symbol, k).data[k] for symbol in symbols]
    assert np.max(np.abs(np.subtract(once, twice))) <= 1e-10


def test_coefficient_table_matches_single_path():
    symbol = cos_dip_ramp_symbol()
    table = fourier_coeffs(symbol, 40)
    exact = _cos_dip_ramp_exact(40)
    for k in (-40, -7, 0, 3, 40):
        assert table.data[abs(k)] == pytest.approx(exact[abs(k)], abs=1e-12)


@pytest.mark.parametrize("symbol,exact", [(plateau_ramp_symbol(), _plateau_ramp_exact),
                                          (cos_dip_ramp_symbol(), _cos_dip_ramp_exact)])
def test_coefficients_match_closed_forms_at_table_order(symbol, exact):
    # order 1023 builds T_1024, the largest section of the mn-table runs
    table = fourier_coeffs(symbol, 1023)
    assert np.max(np.abs(table.data - exact(1023))) <= 1e-14


def test_spherical_bessel_table_matches_scipy():
    spherical_jn = pytest.importorskip("scipy.special").spherical_jn
    m = np.arange(_LEGENDRE_TERMS)
    assert np.array_equal(_spherical_jn(np.zeros(1))[0], np.eye(_LEGENDRE_TERMS)[0])
    near = np.concatenate([m + d for d in (-1e-9, 0.0, 1e-9, 0.5)])  # both sides of omega = m
    grids = [np.arange(4096) * h for h in (math.pi / 8, math.pi / 4, math.pi / 2, math.pi)]
    for omega in [near[near > 0], np.geomspace(1e-300, 1.0, 50), *grids]:
        table = _spherical_jn(omega)
        assert np.max(np.abs(table - spherical_jn(m, omega[:, None]))) <= 4e-15


def test_spherical_bessel_forward_only_block_is_bit_identical():
    # with every omega >= 31 Miller's recurrence is skipped; an appended 0 forces it
    for omega in [np.array([31.0]), 31.0 + np.arange(128) * 0.37,
                  np.arange(128, 256) * math.pi / 8, np.arange(896, 1024) * math.pi / 4]:
        assert np.array_equal(_spherical_jn(omega), _spherical_jn(np.append(omega, 0.0))[:-1])


def test_real_even_symbol_coefficients_are_real_symmetric():
    table = fourier_coeffs(plateau_ramp_symbol(), 64)
    assert table.order == 64 and table.data.shape == (65,) and table.data.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        table.data[0] = 0.0


def test_fourier_coeffs_take_the_even_extension():
    # 1 + sin(theta) on [0, pi] stands for 1 + |sin(theta)| on [-pi, pi]
    sym = ScalarSymbol(domain=plateau_ramp_symbol().domain, eval=lambda t: 1.0 + np.sin(t))
    exact = np.zeros(65)
    exact[0] = 1.0 + 2.0 / math.pi
    exact[2::2] = -2.0 / (math.pi * (np.arange(2, 65, 2) ** 2 - 1.0))
    assert np.max(np.abs(fourier_coeffs(sym, 64).data - exact)) <= 1e-14


@pytest.mark.parametrize("domain", [Rect(np.array([-math.pi]), np.array([math.pi])),
                                    fd_symbol_2d(fd_coefficients["exp"]).domain])
def test_fourier_coeffs_reject_a_domain_other_than_zero_pi(domain):
    with pytest.raises(ValueError, match=r"given on \[0, pi\]"):
        fourier_coeffs(ScalarSymbol(domain=domain, eval=np.cos), 3)


def test_fourier_coeffs_report_a_nan_as_not_finite():
    nan = ScalarSymbol(domain=plateau_ramp_symbol().domain,
                       eval=lambda t: np.where(t > 1.0, np.nan, 1.0))
    with pytest.raises(ValueError, match="not finite"):
        fourier_coeffs(nan, 3)


def _jump_at_one(t):
    return np.where(t < 1.0, 1.0, 2.0 + t)


def test_fourier_coeffs_reject_an_undeclared_jump():
    # the jump at theta = 1 lies inside the panel [0, pi/2]: its Legendre
    # tail reads 0.2, and the coefficients would be off by up to 1.6e-2
    sym = ScalarSymbol(domain=plateau_ramp_symbol().domain, eval=_jump_at_one)
    with pytest.raises(ValueError, match=r"does not resolve the symbol on \[0, 1\.5708\].*"
                                         r"declare a breakpoint"):
        fourier_coeffs(sym, 64)


def test_fourier_coeffs_take_a_declared_jump():
    # f_0 = (1/pi) [1 + int_1^pi (2 + t) dt] = (1 + 2 (pi - 1) + (pi^2 - 1) / 2) / pi
    sym = ScalarSymbol(domain=plateau_ramp_symbol().domain, eval=_jump_at_one,
                       discontinuities=(1.0,))
    f0 = (1.0 + 2.0 * (math.pi - 1.0) + (math.pi**2 - 1.0) / 2.0) / math.pi
    assert fourier_coeffs(sym, 64).data[0] == pytest.approx(f0, abs=1e-14)


def test_fourier_coeffs_reject_a_symbol_too_oscillatory_for_the_panels():
    # cos(30 theta): a Legendre tail of 3e-2, coefficients off by 1.6e-4
    sym = ScalarSymbol(domain=plateau_ramp_symbol().domain, eval=lambda t: np.cos(30.0 * t))
    with pytest.raises(ValueError, match="does not resolve the symbol"):
        fourier_coeffs(sym, 64)


def test_fourier_coeffs_take_a_zero_symbol():
    # an all-zero panel has no tail to compare
    sym = ScalarSymbol(domain=plateau_ramp_symbol().domain, eval=lambda t: 0.0 * t)
    assert not fourier_coeffs(sym, 8).data.any()


@pytest.mark.parametrize("order", [0, 127, 128, 129, 300, 1023])
def test_order_blocks_give_the_one_block_coefficients(monkeypatch, order):
    symbols = (plateau_ramp_symbol(), cos_dip_ramp_symbol(), cosine_symbol(2.0, -2.0))
    blocked = [fourier_coeffs(symbol, order).data for symbol in symbols]
    monkeypatch.setattr(toeplitz, "_ORDER_BLOCK", order + 1)  # every order in one block
    for symbol, data in zip(symbols, blocked):
        assert np.array_equal(fourier_coeffs(symbol, order).data, data)


def test_coefficients_hold_one_block_of_moments_at_a_time():
    # one Bessel table over every order 0..1023 alone is 4 x 1024 x 32 x 8 B = 1 MiB
    import tracemalloc

    symbol = cos_dip_ramp_symbol()
    fourier_coeffs(symbol, 8)  # the Gauss table is built once, outside the trace
    tracemalloc.start()
    try:
        fourier_coeffs(symbol, 1023)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _full_period_plateau_ramp(t):
    t = np.abs(t)
    return np.where(t < math.pi / 2, 1.0, t + 1.0 - math.pi / 2)


def _full_period_cos_dip_ramp(t):
    t = np.abs(t)
    return np.where(t < math.pi / 2, np.cos(2.0 * t) + np.cos(3.0 * t), t)


_RAMP_BREAKS = [-math.pi, -math.pi / 2, math.pi / 2, math.pi]


@pytest.mark.parametrize("symbol,breaks,formula", [
    (plateau_ramp_symbol(), _RAMP_BREAKS, _full_period_plateau_ramp),
    (cos_dip_ramp_symbol(), _RAMP_BREAKS, _full_period_cos_dip_ramp),
    (cosine_symbol(2.0, -2.0), [-math.pi, math.pi], lambda t: 2.0 - 2.0 * np.cos(t)),
])
def test_even_extension_cuts_the_full_period_panels_bit_for_bit(symbol, breaks, formula):
    # the same panels and node values as the symbol written out on [-pi, pi]
    full = _filon_coeffs(np.array(breaks), 1023, formula).real
    assert np.array_equal(fourier_coeffs(symbol, 1023).data, full)


@pytest.mark.parametrize("symbol,inner", [(plateau_ramp_symbol(), (math.pi / 2,)),
                                          (cos_dip_ramp_symbol(), (math.pi / 2,)),
                                          (cosine_symbol(2.0, -1.0), ())])
def test_generating_functions_are_given_on_zero_pi(symbol, inner):
    assert (symbol.domain.d, symbol.domain.a[0], symbol.domain.b[0]) == (1, 0.0, math.pi)
    assert symbol.discontinuities == inner


def test_toeplitz_build_laplacian_stencil():
    T = toeplitz_build(fourier_coeffs(cosine_symbol(2.0, -2.0), 2), 3)
    assert T.dtype == np.float64 and np.array_equal(T, T.T)
    assert np.allclose(T, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], atol=1e-13)


def test_toeplitz_cosine_eigenvalue_formula():
    a, b, n = 2.0, -2.0, 24
    spec = eig_sym(toeplitz_build(fourier_coeffs(cosine_symbol(a, b), n - 1), n))
    assert np.max(np.abs(spec.values - np.sort(cosine_eigs_exact(a, b, n)))) <= 1e-12


def test_cosine_section_spectrum_at_round_off_level():
    # the exactness e1 table: rounding in the coefficients must not add up
    # to more than a few ulps of the spectrum at n = 200
    a, b, n = 2.0, -2.0, 200
    spec = eig_sym(toeplitz_build(fourier_coeffs(cosine_symbol(a, b), n - 1), n))
    assert np.max(np.abs(spec.values - np.sort(cosine_eigs_exact(a, b, n)))) <= 1e-13


@pytest.mark.parametrize("n", [8, 64, 256])
def test_spectrum_within_symbol_range(n):
    # strict containment in the symbol's range holds in exact arithmetic for
    # non-constant symbols; the eigensolver can round boundary values by
    # ~1e-15, so the check uses the 1e-9-inflated interval
    for symbol, lo, hi in [(plateau_ramp_symbol(), 1.0, 1.0 + math.pi / 2),
                           (cos_dip_ramp_symbol(), cos_dip_min, math.pi),
                           (cosine_symbol(0.0, 1.0), -1.0, 1.0)]:
        spec = eig_sym(toeplitz_build(fourier_coeffs(symbol, n - 1), n))
        assert spec.values[0] >= lo - 1e-9
        assert spec.values[-1] <= hi + 1e-9


def test_toeplitz_build_rejects_short_coefficients():
    table = fourier_coeffs(cosine_symbol(1.0, 1.0), 3)
    with pytest.raises(ValueError, match="order 9, have 3"):
        toeplitz_build(table, 10)
    with pytest.raises(ValueError, match="n must be >= 1"):
        toeplitz_build(table, 0)
    assert toeplitz_build(table, 4).shape == (4, 4)


@pytest.mark.parametrize("shape", [(), (0,), (3, 1), (3, 1, 1), (3, 2, 2)])
def test_fourier_coeffs_reject_data_that_is_not_1d(shape):
    with pytest.raises(ValueError, match="nonempty 1-d"):
        FourierCoeffs(np.zeros(shape))


@pytest.mark.parametrize("data,match", [
    (np.array([2.0, -1.0 + 0j]), "real"),  # even a zero imaginary part
    ([2.0, -1.0j], "real"),
    ([2.0, math.nan], "finite"),
    ([math.inf, 1.0], "finite"),
])
def test_fourier_coeffs_reject_complex_and_non_finite_data(data, match):
    with pytest.raises(ValueError, match=match):
        FourierCoeffs(data)


def _sliced_halves(T):
    """T11 + T12 J and T11 - T12 J sliced from a dense real section: the reference."""
    q = T.shape[0] // 2
    flip = T[:q, ::-1][:, :q]
    even, odd = T[:q, :q] + flip, T[:q, :q] - flip
    if T.shape[0] % 2:
        mid = math.sqrt(2.0) * T[:q, q : q + 1]
        even = np.block([[even, mid], [mid.T, T[q : q + 1, q : q + 1]]])
    return even, odd


def _half_spectrum(c, n):
    return np.sort(np.concatenate([eig_sym(h).values for h in toeplitz_halves(c, n)]))


@functools.cache
def _table_coeffs(example):
    symbol = {"e2": plateau_ramp_symbol, "e3": cos_dip_ramp_symbol}[example]()
    return fourier_coeffs(symbol, 1023)


@pytest.mark.parametrize("example", ["e2", "e3"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 127, 1023, 1024])
def test_toeplitz_halves_bit_identical_to_sliced_section(example, n):
    c = _table_coeffs(example)
    halves = list(toeplitz_halves(c, n))
    assert len(halves) == 2
    for got, want in zip(halves, _sliced_halves(toeplitz_build(c, n))):
        assert got.dtype == want.dtype == np.float64
        assert got.flags.f_contiguous and got.flags.writeable  # for eig_sym_inplace
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_toeplitz_halves_keep_no_reference_to_the_even_half(n):
    # the odd half is built after the even one is dropped, not beside it
    halves = toeplitz_halves(_table_coeffs("e2"), n)
    even = weakref.ref(next(halves))
    assert even() is None
    assert next(halves).shape == (n // 2, n // 2)
    assert next(halves, None) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 127, 1023, 1024])
def test_centrosymmetric_halves_match_full_solve(n):
    c = fourier_coeffs(plateau_ramp_symbol(), max(n - 1, 1))
    even, odd = toeplitz_halves(c, n)
    assert (even.shape, odd.shape) == (((n + 1) // 2,) * 2, ((n // 2),) * 2)
    assert np.max(np.abs(_half_spectrum(c, n) - eig_sym(toeplitz_build(c, n)).values)) <= 2e-12


@pytest.mark.parametrize("n", [1, 2, 3, 37, 50])
def test_centrosymmetric_halves_of_random_symmetric_toeplitz(n):
    pos = np.random.default_rng(n).standard_normal(n)  # f_0..f_{n-1}
    c = FourierCoeffs(pos)
    T = toeplitz_build(c, n)
    assert np.array_equal(T, pos[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))])
    assert np.max(np.abs(_half_spectrum(c, n) - eig_sym(T).values)) <= 1e-13 * n


def test_centrosymmetric_halves_reject_bad_input():
    # complex and non-finite data cannot reach the halves: FourierCoeffs
    # refuses them (above), so only the size checks are left here
    good = fourier_coeffs(cosine_symbol(2.0, -1.0), 5)
    with pytest.raises(ValueError, match="order 6"):
        toeplitz_halves(good, 7)
    with pytest.raises(ValueError, match="n must be >= 1"):
        toeplitz_halves(good, 0)
