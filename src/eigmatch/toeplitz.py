"""Fourier coefficients of generating functions and (block) Toeplitz sections.

Coefficients are computed by composite Gauss-Legendre quadrature with panels
split at the declared breakpoints of the symbol, then subdivided so that no
subpanel sees more than about one period of e^{-ik.theta}.  That restores
spectral accuracy for piecewise-smooth symbols, where a single global rule
would stall at the kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import MatrixSymbol, ScalarSymbol

__all__ = [
    "FourierCoeffs",
    "fourier_coeff",
    "fourier_coeffs",
    "block_fourier_coeffs",
    "toeplitz_build",
    "block_toeplitz_build",
]

_NODES_PER_PANEL = 16
_MAX_PHASE_PER_PANEL = 6.0  # radians of k*theta per subpanel, ~one period


@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficients f_k for |k| <= order.

    ``data[k + order]`` is f_k: a complex scalar, or a complex (b, b) block
    for matrix-valued symbols.  Real even scalar symbols yield real data with
    f_{-k} = f_k; Hermitian-valued symbols yield f_{-k} = f_k^H (both checked
    by the test suite, not enforced here).
    """

    order: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.shape[0] != 2 * self.order + 1:
            raise ValueError(f"expected {2 * self.order + 1} coefficients, got {data.shape[0]}")
        if data.ndim not in (1, 3) or (data.ndim == 3 and data.shape[1] != data.shape[2]):
            raise ValueError("coefficients must be scalars or square blocks")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def block_size(self) -> int:
        return 1 if self.data.ndim == 1 else self.data.shape[1]

    def coeff(self, k: int):
        """f_k, zero outside the stored order."""
        if abs(k) > self.order:
            if self.data.ndim == 1:
                return 0.0 + 0.0j
            b = self.block_size
            return np.zeros((b, b), dtype=complex)
        return self.data[k + self.order]

    def __getitem__(self, k: int):
        return self.coeff(k)


def _breakpoints(symbol: ScalarSymbol | MatrixSymbol) -> np.ndarray:
    if isinstance(symbol, MatrixSymbol):
        lo, hi = symbol.interval
        disc: tuple[float, ...] = ()
    else:
        if symbol.domain.d != 1:
            raise ValueError("Fourier coefficients require a 1-d symbol")
        lo, hi = float(symbol.domain.a[0]), float(symbol.domain.b[0])
        disc = symbol.discontinuities
    if not (abs(lo + math.pi) < 1e-12 and abs(hi - math.pi) < 1e-12):
        raise ValueError("generating functions live on [-pi, pi]")
    pts = sorted({lo, hi, *(t for t in disc if lo < t < hi)})
    return np.asarray(pts, dtype=float)


def _panel_nodes(breaks: np.ndarray, k_scale: int, oversample: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights resolving oscillations up to wavenumber k_scale."""
    base_x, base_w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        length = b - a
        sub = max(1, math.ceil(oversample * max(1, abs(k_scale)) * length / _MAX_PHASE_PER_PANEL))
        edges = np.linspace(a, b, sub + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            nodes.append(0.5 * (lo + hi) + half * base_x)
            weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def fourier_coeff(f: ScalarSymbol, k: int, oversample: float = 1.0) -> complex:
    """Coefficient f_k = (1/2pi) int f(theta) e^{-ik.theta} dtheta.

    ``oversample`` multiplies the panel count; doubling it is the standard
    convergence check (the result should move by less than ~1e-10).
    """
    breaks = _breakpoints(f)
    theta, w = _panel_nodes(breaks, k, oversample)
    vals = f.sample(theta)
    return complex(np.sum(w * vals * np.exp(-1j * k * theta)) / (2.0 * math.pi))


def fourier_coeffs(f: ScalarSymbol, order: int, oversample: float = 1.0) -> FourierCoeffs:
    """All coefficients f_k for |k| <= order of a real scalar symbol.

    Evaluates the symbol once on a node set fine enough for the largest
    wavenumber, then forms every coefficient from the same values; negative
    orders follow from f real via f_{-k} = conj(f_k).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    breaks = _breakpoints(f)
    theta, w = _panel_nodes(breaks, order, oversample)
    vals = f.sample(theta) * w
    ks = np.arange(order + 1)
    pos = np.empty(order + 1, dtype=complex)
    chunk = max(1, int(4e6 // max(1, theta.size)))
    for start in range(0, order + 1, chunk):
        kk = ks[start : start + chunk]
        pos[start : start + chunk] = np.exp(-1j * np.outer(kk, theta)) @ vals
    pos /= 2.0 * math.pi
    data = np.concatenate([np.conj(pos[:0:-1]), pos])
    return FourierCoeffs(order=order, data=data)


def block_fourier_coeffs(f: MatrixSymbol, order: int, oversample: float = 1.0) -> FourierCoeffs:
    """Entrywise coefficients of a Hermitian matrix-valued symbol on [-pi, pi]."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    breaks = _breakpoints(f)
    theta, w = _panel_nodes(breaks, order, oversample)
    mats = f.matrices(theta)
    pos = np.empty((order + 1, f.k, f.k), dtype=complex)
    for k in range(order + 1):
        phase = w * np.exp(-1j * k * theta)
        pos[k] = np.tensordot(phase, mats, axes=(0, 0)) / (2.0 * math.pi)
    neg = np.conj(np.transpose(pos[:0:-1], (0, 2, 1)))  # f_{-k} = f_k^H
    return FourierCoeffs(order=order, data=np.concatenate([neg, pos]))


def toeplitz_build(c: FourierCoeffs, n: int, allow_truncation: bool = False) -> np.ndarray:
    """The n-th Toeplitz section [f_{i-j}]_{i,j=1..n} of a scalar symbol."""
    if c.block_size != 1:
        raise ValueError("coefficients are blocks; use block_toeplitz_build")
    if n < 1:
        raise ValueError("n must be >= 1")
    if c.order < n - 1 and not allow_truncation:
        raise ValueError(
            f"building T_{n} needs coefficients up to order {n - 1}, have {c.order} "
            "(pass allow_truncation=True to zero-fill)"
        )
    col = np.array([c.coeff(i) for i in range(n)])
    row = np.array([c.coeff(-i) for i in range(n)])
    return scipy.linalg.toeplitz(col, row)


def block_toeplitz_build(c: FourierCoeffs, n: int, allow_truncation: bool = False) -> np.ndarray:
    """The n-th block Toeplitz section, an (n*b) x (n*b) Hermitian matrix."""
    b = c.block_size
    if b == 1:
        return toeplitz_build(c, n, allow_truncation)
    if n < 1:
        raise ValueError("n must be >= 1")
    if c.order < n - 1 and not allow_truncation:
        raise ValueError(
            f"building T_{n} needs coefficients up to order {n - 1}, have {c.order}"
        )
    out = np.zeros((n * b, n * b), dtype=complex)
    for diag in range(-(n - 1), n):
        blk = c.coeff(diag)
        if not np.any(blk):
            continue
        for i in range(max(0, diag), min(n, n + diag)):
            j = i - diag
            out[i * b : (i + 1) * b, j * b : (j + 1) * b] = blk
    return out
