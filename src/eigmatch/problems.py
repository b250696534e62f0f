"""Concrete symbols, grids, and matrices for the packaged experiments.

Each experiment pairs a matrix family with the symbol describing its
asymptotic eigenvalue distribution.  Generating functions are defined on
[-pi, pi] (as needed for Fourier coefficients); the matching diagnostics use
their restriction ``half(f)`` to [0, pi], where the even symbols carry the
distribution.  Matrix-valued symbols evaluate a whole array of angles at
once, returning the (N, k, k) stack.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import AUGrid, MatrixSymbol, Rect, ScalarSymbol, make_uniform_grid
from .toeplitz import FourierCoeffs

__all__ = [
    "half",
    "cosine_symbol",
    "cosine_eigs_exact",
    "plateau_ramp_symbol",
    "cos_dip_ramp_symbol",
    "cos_dip_min",
    "cos_dip_argmin",
    "endpoint_indicator",
    "fd_coefficients",
    "fd_symbol_2d",
    "iga2d_kappa",
    "iga2d_mu",
    "iga2d_symbol",
    "c0_quadratic_matrix",
    "c0_quadratic_symbol",
    "c0_quadratic_symbol_full",
    "c0_quadratic_branches",
    "c0_quadratic_block_coeffs",
    "eigen_angle_grid",
    "uniform_pi_grid",
    "truncated_uniform_pi_grid",
]

_HALF_PI = math.pi / 2.0
_PI_RECT = Rect(np.array([0.0]), np.array([math.pi]))
_FULL_RECT = Rect(np.array([-math.pi]), np.array([math.pi]))


# ---------------------------------------------------------------------------
# Scalar generating functions
# ---------------------------------------------------------------------------

def half(f: ScalarSymbol) -> ScalarSymbol:
    """Restriction of an even generating function on [-pi, pi] to [0, pi].

    Keeps the evaluator and the declared bounds (evenness leaves the range
    unchanged, and is not checked) and the breakpoints inside (0, pi).
    """
    if f.domain.d != 1 or (f.domain.a[0], f.domain.b[0]) != (-math.pi, math.pi):
        raise ValueError("half() restricts generating functions on [-pi, pi]")
    inner = tuple(t for t in f.discontinuities if 0.0 < t < math.pi)
    return dataclasses.replace(f, domain=_PI_RECT, discontinuities=inner)


def cosine_symbol(a: float, b: float) -> ScalarSymbol:
    """a + b*cos(theta) on [-pi, pi]."""
    return ScalarSymbol(
        domain=_FULL_RECT,
        eval=lambda t: a + b * np.cos(t),
        declared_inf=a - abs(b),
        declared_sup=a + abs(b),
    )


def cosine_eigs_exact(a: float, b: float, n: int) -> np.ndarray:
    """Eigenvalues {a + b cos(i*pi/(n+1))} of the tridiagonal Toeplitz section."""
    return a + b * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))


def _plateau_ramp(t):
    t = np.abs(np.asarray(t, dtype=float))
    return np.where(t < _HALF_PI, 1.0, t + 1.0 - _HALF_PI)


def plateau_ramp_symbol() -> ScalarSymbol:
    """Even symbol: constant 1 up to pi/2, then a unit-slope ramp to 1 + pi/2."""
    return ScalarSymbol(
        domain=_FULL_RECT,
        eval=_plateau_ramp,
        declared_inf=1.0,
        declared_sup=1.0 + _HALF_PI,
        discontinuities=(-_HALF_PI, _HALF_PI),
    )


#: Interior minimizer of cos(2t) + cos(3t) on (0, pi/2): cos t = (-1+sqrt(10))/6.
cos_dip_argmin = math.acos((-1.0 + math.sqrt(10.0)) / 6.0)
#: The corresponding minimum value -25/54 - 10*sqrt(10)/27.
cos_dip_min = -25.0 / 54.0 - 10.0 * math.sqrt(10.0) / 27.0


def _cos_dip_ramp(t):
    t = np.abs(np.asarray(t, dtype=float))
    return np.where(t < _HALF_PI, np.cos(2.0 * t) + np.cos(3.0 * t), t)


def cos_dip_ramp_symbol() -> ScalarSymbol:
    """Even symbol: cos(2t) + cos(3t) up to pi/2, then the identity ramp.

    Discontinuous at pi/2 (left limit -1 jumps to pi/2); range
    [cos_dip_min, pi].
    """
    return ScalarSymbol(
        domain=_FULL_RECT,
        eval=_cos_dip_ramp,
        declared_inf=cos_dip_min,
        declared_sup=math.pi,
        discontinuities=(-_HALF_PI, _HALF_PI),
    )


def endpoint_indicator() -> ScalarSymbol:
    """Indicator of {1} on [0, 1]: zero a.e., one at the right endpoint."""
    return ScalarSymbol(
        domain=Rect(np.array([0.0]), np.array([1.0])),
        eval=lambda x: (np.asarray(x, dtype=float) == 1.0).astype(float),
        declared_inf=0.0,
        declared_sup=1.0,
    )


# ---------------------------------------------------------------------------
# Finite-difference family on [0, 1] x [0, pi]
# ---------------------------------------------------------------------------

fd_coefficients = {
    "exp": lambda x: np.exp(-np.asarray(x, dtype=float)),
    "cos3": lambda x: 2.0 + np.cos(3.0 * np.asarray(x, dtype=float)),
    "xlog": lambda x: np.asarray(x, dtype=float) * np.log1p(np.asarray(x, dtype=float)),
}


def fd_symbol_2d(a) -> ScalarSymbol:
    """a(x) * (2 - 2 cos(theta)) on [0, 1] x [0, pi]."""
    xs = np.linspace(0.0, 1.0, 4097)
    av = np.asarray(a(xs), dtype=float)
    lo = min(0.0, 4.0 * float(av.min()))
    hi = max(0.0, 4.0 * float(av.max()))
    return ScalarSymbol(
        domain=Rect(np.array([0.0, 0.0]), np.array([1.0, math.pi])),
        eval=lambda x, t: np.asarray(a(x), dtype=float) * (2.0 - 2.0 * np.cos(t)),
        declared_inf=lo,
        declared_sup=hi,
    )


# ---------------------------------------------------------------------------
# Tensor-product biquadratic family on [0, pi]^2
# ---------------------------------------------------------------------------

def iga2d_kappa(t):
    t = np.asarray(t, dtype=float)
    return 1.0 - (2.0 / 3.0) * np.cos(t) - (1.0 / 3.0) * np.cos(2.0 * t)


def iga2d_mu(t):
    t = np.asarray(t, dtype=float)
    return 11.0 / 20.0 + (13.0 / 30.0) * np.cos(t) + (1.0 / 60.0) * np.cos(2.0 * t)


def iga2d_symbol() -> ScalarSymbol:
    """kappa(t1) mu(t2) + mu(t1) kappa(t2) on [0, pi]^2, range [0, 3/2]."""
    return ScalarSymbol(
        domain=Rect(np.array([0.0, 0.0]), np.array([math.pi, math.pi])),
        eval=lambda t1, t2: iga2d_kappa(t1) * iga2d_mu(t2) + iga2d_mu(t1) * iga2d_kappa(t2),
        declared_inf=0.0,
        declared_sup=1.5,
    )


# ---------------------------------------------------------------------------
# C^0 quadratic Galerkin family (2 x 2 block symbol)
# ---------------------------------------------------------------------------

def c0_quadratic_matrix(n: int) -> np.ndarray:
    """The (2n-1) x (2n-1) stiffness matrix of C^0 quadratic splines, times 1/n.

    Rows alternate the (4, -2)/3 and (-2, 8, -2, -2)/3 patterns; equals
    assemble_KM(n, 2, 0)[0] / n entrywise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = 2 * n - 1
    A = np.zeros((size, size))
    idx = np.arange(size)
    A[idx, idx] = np.where(idx % 2 == 0, 4.0, 8.0) / 3.0
    A[idx[:-1], idx[:-1] + 1] = -2.0 / 3.0
    A[idx[:-1] + 1, idx[:-1]] = -2.0 / 3.0
    odd = idx[(idx % 2 == 1) & (idx + 2 < size)]
    A[odd, odd + 2] = -2.0 / 3.0
    A[odd + 2, odd] = -2.0 / 3.0
    return A


def _c0_quadratic_eval(theta: np.ndarray) -> np.ndarray:
    e = np.exp(1j * theta)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 4.0 / 3.0
    out[..., 0, 1] = -2.0 / 3.0 - 2.0 * e / 3.0
    out[..., 1, 0] = -2.0 / 3.0 - 2.0 * np.conj(e) / 3.0
    out[..., 1, 1] = 8.0 / 3.0 - 4.0 * np.cos(theta) / 3.0
    return out


def c0_quadratic_symbol() -> MatrixSymbol:
    """The 2 x 2 Hermitian symbol of the C^0 quadratic stiffness family on [0, pi]."""
    return MatrixSymbol(interval=(0.0, math.pi), k=2, eval=_c0_quadratic_eval)


def c0_quadratic_symbol_full() -> MatrixSymbol:
    """Same symbol on [-pi, pi], for Fourier coefficient computations."""
    return MatrixSymbol(interval=(-math.pi, math.pi), k=2, eval=_c0_quadratic_eval)


def c0_quadratic_branches():
    """Closed-form ascending branch functions (lambda_1, lambda_2) of the symbol."""

    def f1(t):
        t = np.asarray(t, dtype=float)
        return 2.0 - (2.0 / 3.0) * np.cos(t) - (2.0 / 3.0) * np.sqrt(3.0 + np.cos(t) ** 2)

    def f2(t):
        t = np.asarray(t, dtype=float)
        return 2.0 - (2.0 / 3.0) * np.cos(t) + (2.0 / 3.0) * np.sqrt(3.0 + np.cos(t) ** 2)

    return f1, f2


def c0_quadratic_block_coeffs(order: int = 1) -> FourierCoeffs:
    """Exact Fourier blocks of the symbol: f_0, f_1 (and zeros beyond)."""
    if order < 1:
        raise ValueError("order must be >= 1 to hold the nonzero blocks")
    data = np.zeros((2 * order + 1, 2, 2), dtype=complex)
    f0 = np.array([[4.0, -2.0], [-2.0, 8.0]]) / 3.0
    f1 = np.array([[0.0, -2.0], [0.0, -2.0]]) / 3.0
    data[order] = f0
    data[order + 1] = f1
    data[order - 1] = f1.conj().T
    return FourierCoeffs(order=order, data=data)


# ---------------------------------------------------------------------------
# Grids on [0, pi]
# ---------------------------------------------------------------------------

def eigen_angle_grid(n: int) -> AUGrid:
    """The a.u. grid {i*pi/(n+1) : i = 1..n} in [0, pi]."""
    pts = np.arange(1, n + 1) * math.pi / (n + 1)
    return AUGrid(rect=_PI_RECT, dims=(n,), points=pts.reshape(-1, 1))


def uniform_pi_grid(n: int) -> AUGrid:
    """The uniform grid {i*pi/n : i = 1..n} in [0, pi]."""
    return make_uniform_grid(_PI_RECT, (n,))


def truncated_uniform_pi_grid(n: int) -> AUGrid:
    """The grid {i*pi/n : i = 1..n-1}: the uniform step of order n, one point short."""
    if n < 2:
        raise ValueError("n must be >= 2")
    pts = np.arange(1, n) * math.pi / n
    return AUGrid(rect=_PI_RECT, dims=(n - 1,), points=pts.reshape(-1, 1))
