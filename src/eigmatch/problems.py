"""Concrete symbols for the packaged experiments, and their one a.u. grid.

Each experiment pairs a matrix family with the symbol describing its
asymptotic eigenvalue distribution.  The matrices are built in
``toeplitz`` and ``galerkin``; both spline families (the tensor-product
biquadratic and the C^0 quadratic one) are assembled by ``assemble_KM``,
and the closed forms of their symbols here are the exactness oracles.
Generating functions are given once, on [0, pi], where the matching
diagnostics sample them; ``toeplitz.fourier_coeffs`` integrates their even
extension to [-pi, pi].  Matrix-valued symbols evaluate a whole array of
angles at once, returning the (N, k, k) stack.  Every angle grid
{i*pi/m} comes from ``galerkin.grid_points``: ``eigen_angle_grid`` wraps
its ``INTERIOR`` kind of order n+1 for ``mn_curve``, and
``match.branch_match`` takes its arrays directly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AUGrid, MatrixSymbol, Rect, ScalarSymbol
from .galerkin import GridKind, grid_points, symbol_f

__all__ = [
    "cosine_symbol",
    "cosine_eigs_exact",
    "plateau_ramp_symbol",
    "cos_dip_ramp_symbol",
    "cos_dip_min",
    "endpoint_indicator",
    "fd_coefficients",
    "fd_symbol_2d",
    "iga2d_kappa",
    "iga2d_mu",
    "iga2d_symbol",
    "c0_quadratic_symbol",
    "c0_quadratic_branches",
    "eigen_angle_grid",
]

_HALF_PI = math.pi / 2.0
_PI_RECT = Rect(np.array([0.0]), np.array([math.pi]))


# ---------------------------------------------------------------------------
# Scalar generating functions
# ---------------------------------------------------------------------------

def cosine_symbol(a: float, b: float) -> ScalarSymbol:
    """a + b*cos(theta) on [0, pi]; a, b and a +- |b| must be finite."""
    if not (math.isfinite(a - abs(b)) and math.isfinite(a + abs(b))):
        raise ValueError(f"cosine symbol needs finite a, b and a +- |b|, got a={a!r}, b={b!r}")
    return ScalarSymbol(domain=_PI_RECT, eval=lambda t: a + b * np.cos(t))


def cosine_eigs_exact(a: float, b: float, n: int) -> np.ndarray:
    """Eigenvalues {a + b cos(i*pi/(n+1))} of the tridiagonal Toeplitz section."""
    return a + b * np.cos(grid_points(GridKind.INTERIOR, n + 1))


def _plateau_ramp(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < _HALF_PI, 1.0, t + 1.0 - _HALF_PI)


def plateau_ramp_symbol() -> ScalarSymbol:
    """Constant 1 up to pi/2, then a unit-slope ramp to 1 + pi/2, on [0, pi]."""
    return ScalarSymbol(
        domain=_PI_RECT,
        eval=_plateau_ramp,
        discontinuities=(_HALF_PI,),
    )


#: Minimum of cos(2t) + cos(3t) on (0, pi/2), at cos t = (-1+sqrt(10))/6.
cos_dip_min = -25.0 / 54.0 - 10.0 * math.sqrt(10.0) / 27.0


def _cos_dip_ramp(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < _HALF_PI, np.cos(2.0 * t) + np.cos(3.0 * t), t)


def cos_dip_ramp_symbol() -> ScalarSymbol:
    """cos(2t) + cos(3t) up to pi/2, then the identity ramp, on [0, pi].

    Discontinuous at pi/2 (left limit -1 jumps to pi/2); range
    [cos_dip_min, pi].
    """
    return ScalarSymbol(
        domain=_PI_RECT,
        eval=_cos_dip_ramp,
        discontinuities=(_HALF_PI,),
    )


def endpoint_indicator() -> ScalarSymbol:
    """Indicator of {1} on [0, 1]: zero a.e., one at the right endpoint."""
    return ScalarSymbol(
        domain=Rect(np.array([0.0]), np.array([1.0])),
        eval=lambda x: (np.asarray(x, dtype=float) == 1.0).astype(float),
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
    return ScalarSymbol(
        domain=Rect(np.array([0.0, 0.0]), np.array([1.0, math.pi])),
        eval=lambda x, t: np.asarray(a(x), dtype=float) * (2.0 - 2.0 * np.cos(t)),
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
    )


# ---------------------------------------------------------------------------
# C^0 quadratic Galerkin family (2 x 2 block symbol)
# ---------------------------------------------------------------------------

def c0_quadratic_symbol() -> MatrixSymbol:
    """The 2 x 2 Hermitian symbol of the C^0 quadratic stiffness family on [0, pi].

    The stiffness block symbol ``symbol_f(2, 0, theta)``: the eigenvalues of
    ``assemble_KM(n, 2, 0)[0] / n`` are its branch samples.
    """
    return MatrixSymbol(interval=(0.0, math.pi), k=2, eval=lambda t: symbol_f(2, 0, t))


def c0_quadratic_branches():
    """Closed-form ascending branch functions (lambda_1, lambda_2) of the symbol."""

    def f1(t):
        t = np.asarray(t, dtype=float)
        return 2.0 - (2.0 / 3.0) * np.cos(t) - (2.0 / 3.0) * np.sqrt(3.0 + np.cos(t) ** 2)

    def f2(t):
        t = np.asarray(t, dtype=float)
        return 2.0 - (2.0 / 3.0) * np.cos(t) + (2.0 / 3.0) * np.sqrt(3.0 + np.cos(t) ** 2)

    return f1, f2


# ---------------------------------------------------------------------------
# Grids on [0, pi]
# ---------------------------------------------------------------------------

def eigen_angle_grid(n: int) -> AUGrid:
    """The a.u. grid {i*pi/(n+1) : i = 1..n} in [0, pi]: ``INTERIOR`` of order n+1."""
    pts = grid_points(GridKind.INTERIOR, n + 1)
    return AUGrid(rect=_PI_RECT, dims=(n,), points=pts.reshape(-1, 1))
