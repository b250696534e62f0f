import math

import numpy as np
import pytest

from eigmatch.eig import eig_sym
from eigmatch.match import sorted_match
from eigmatch.problems import (
    c0_quadratic_block_coeffs,
    c0_quadratic_branches,
    c0_quadratic_symbol,
    c0_quadratic_symbol_full,
    cos_dip_ramp_symbol,
    cosine_eigs_exact,
    cosine_symbol,
    endpoint_indicator,
    half,
    plateau_ramp_symbol,
)
from eigmatch.split import initial_split
from eigmatch.toeplitz import (
    FourierCoeffs,
    block_fourier_coeffs,
    block_toeplitz_build,
    fourier_coeff,
    fourier_coeffs,
    toeplitz_build,
)


def test_cosine_coefficients_by_orthogonality():
    a, b = 1.7, -0.4
    f = cosine_symbol(a, b)
    assert fourier_coeff(f, 0) == pytest.approx(a, abs=1e-12)
    assert fourier_coeff(f, 1) == pytest.approx(b / 2, abs=1e-12)
    assert fourier_coeff(f, -1) == pytest.approx(b / 2, abs=1e-12)
    assert abs(fourier_coeff(f, 5)) <= 1e-12


def test_constant_symbol_coefficients():
    f = cosine_symbol(3.25, 0.0)
    assert fourier_coeff(f, 0) == pytest.approx(3.25, abs=1e-13)
    assert abs(fourier_coeff(f, 3)) <= 1e-13


def test_plateau_ramp_mean_value():
    # closed form: (1/pi) * [pi/2 + int_{pi/2}^{pi} (t + 1 - pi/2) dt] = 1 + pi/8
    f0 = fourier_coeff(plateau_ramp_symbol(), 0)
    assert f0.real == pytest.approx(1.0 + math.pi / 8, abs=1e-12)
    assert abs(f0.imag) <= 1e-14
    doubled = fourier_coeff(plateau_ramp_symbol(), 0, oversample=2.0)
    assert abs(f0 - doubled) <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 5, 64, 511, 512])
def test_quadrature_node_doubling_converged(k):
    for symbol in (plateau_ramp_symbol(), cos_dip_ramp_symbol(), cosine_symbol(2.0, -2.0)):
        once = fourier_coeff(symbol, k)
        twice = fourier_coeff(symbol, k, oversample=2.0)
        assert abs(once - twice) <= 1e-10


def test_coefficient_table_matches_single_path():
    symbol = cos_dip_ramp_symbol()
    table = fourier_coeffs(symbol, 40)
    for k in (-40, -7, 0, 3, 40):
        assert table[k] == pytest.approx(fourier_coeff(symbol, k), abs=1e-12)
    assert table[100] == 0.0


def test_real_even_symbol_coefficients_are_real_symmetric():
    table = fourier_coeffs(plateau_ramp_symbol(), 64)
    assert np.max(np.abs(table.data.imag)) <= 1e-12
    for k in range(65):
        assert table[k] == pytest.approx(table[-k], abs=1e-14)


@pytest.mark.parametrize("full", [plateau_ramp_symbol(), cos_dip_ramp_symbol(),
                                  cosine_symbol(2.0, -1.0)])
def test_half_restricts_generating_function_to_zero_pi(full):
    h = half(full)
    assert (h.domain.a[0], h.domain.b[0]) == (0.0, math.pi)
    assert h.discontinuities == tuple(t for t in full.discontinuities if t > 0.0)
    assert (h.declared_inf, h.declared_sup) == (full.declared_inf, full.declared_sup)
    theta = np.linspace(0.0, math.pi, 101)
    assert np.array_equal(h.sample(theta), full.sample(theta))
    with pytest.raises(ValueError, match="pi"):
        half(h)


def test_half_keeps_the_interior_breakpoint_and_rejects_other_domains():
    assert half(plateau_ramp_symbol()).discontinuities == (math.pi / 2,)
    with pytest.raises(ValueError):
        half(endpoint_indicator())


def test_toeplitz_build_laplacian_stencil():
    T = toeplitz_build(fourier_coeffs(cosine_symbol(2.0, -2.0), 2), 3)
    assert np.allclose(T.real, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], atol=1e-13)
    assert np.max(np.abs(T - T.conj().T)) <= 1e-14


def test_toeplitz_cosine_eigenvalue_formula():
    a, b, n = 2.0, -2.0, 24
    spec = eig_sym(toeplitz_build(fourier_coeffs(cosine_symbol(a, b), n - 1), n))
    assert np.max(np.abs(spec.values - np.sort(cosine_eigs_exact(a, b, n)))) <= 1e-12


@pytest.mark.parametrize("n", [8, 64, 256])
def test_spectrum_within_declared_range(n):
    # strict containment holds in exact arithmetic for non-constant symbols;
    # the eigensolver can round boundary values by ~1e-15, so the check uses
    # the 1e-9-inflated interval
    for symbol in (plateau_ramp_symbol(), cos_dip_ramp_symbol(), cosine_symbol(0.0, 1.0)):
        spec = eig_sym(toeplitz_build(fourier_coeffs(symbol, n - 1), n))
        assert spec.values[0] >= symbol.declared_inf - 1e-9
        assert spec.values[-1] <= symbol.declared_sup + 1e-9


def test_toeplitz_build_truncation_flag():
    table = fourier_coeffs(cosine_symbol(1.0, 1.0), 3)
    with pytest.raises(ValueError):
        toeplitz_build(table, 10)
    T = toeplitz_build(table, 10, allow_truncation=True)
    assert T.shape == (10, 10)
    assert T[9, 0] == 0.0


def test_block_diagonal_symbol_interleaves_scalar_sections():
    # diag(f1, f2) with scalar cosine symbols: the block section is a
    # permutation of the two scalar sections, so the spectrum is their union
    n = 12
    c1 = fourier_coeffs(cosine_symbol(2.0, -2.0), n - 1)
    c2 = fourier_coeffs(cosine_symbol(5.0, 1.0), n - 1)
    data = np.zeros((2 * (n - 1) + 1, 2, 2), dtype=complex)
    data[:, 0, 0] = c1.data
    data[:, 1, 1] = c2.data
    blocks = FourierCoeffs(order=n - 1, data=data)
    spec = eig_sym(block_toeplitz_build(blocks, n))
    union = np.sort(
        np.concatenate(
            [
                eig_sym(toeplitz_build(c1, n)).values,
                eig_sym(toeplitz_build(c2, n)).values,
            ]
        )
    )
    assert np.max(np.abs(spec.values - union)) <= 1e-11


def test_zero_block_symbol_gives_zero_matrix():
    blocks = FourierCoeffs(order=3, data=np.zeros((7, 3, 3), dtype=complex))
    assert not np.any(block_toeplitz_build(blocks, 4))


def test_block_coefficients_match_closed_form():
    table = block_fourier_coeffs(c0_quadratic_symbol_full(), 4)
    exact = c0_quadratic_block_coeffs(4)
    assert np.max(np.abs(table.data - exact.data)) <= 1e-12
    for k in range(1, 5):  # Hermitian-valued symbol: negative blocks are adjoints
        assert np.allclose(table[-k], table[k].conj().T, atol=1e-14)


def test_block_section_spectrum_tracks_branch_unions():
    # the 2n x 2n block sections differ from the Galerkin matrix by a
    # boundary truncation, so per-branch matches are small and shrink with n
    blocks = c0_quadratic_block_coeffs(1)
    f1, f2 = c0_quadratic_branches()
    history = []
    for n in (16, 32, 64):
        spec = eig_sym(block_toeplitz_build(blocks, n, allow_truncation=True))
        part = initial_split(spec.values, c0_quadratic_symbol(), [n, n])
        theta = np.arange(1, n + 1) * math.pi / n
        m1 = sorted_match(f1(theta), part.values[part.provenance == 0]).m_n
        m2 = sorted_match(f2(theta), part.values[part.provenance == 1]).m_n
        history.append((m1, m2))
    assert all(m1 <= 0.12 and m2 <= 0.12 for m1, m2 in history)
    assert history[0] > history[1] > history[2]
    assert max(history[-1]) <= 0.03
