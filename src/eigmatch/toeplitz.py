"""Fourier coefficients of generating functions and their Toeplitz sections.

Coefficients are computed by Filon-Legendre quadrature (Iserles and Nørsett,
Proc. R. Soc. A 461, 2005).  A generating function is given on [0, pi]
and stands for its even extension f(|theta|) to [-pi, pi].  Its declared
breakpoints and their mirror images cut [-pi, pi] into intervals on which
it is smooth, and those into panels at most pi/2 wide.  On each panel the
symbol is projected onto the Legendre polynomials P_0..P_31 with a 32-node
Gauss rule, and the integral of each term against e^{-ik.theta} is a
spherical Bessel function in closed form.  So the symbol is sampled 32
times per panel whatever the order, the accuracy is that of the Legendre
expansion for every k, and the cost grows linearly with the order.

The extension is real and even, so its coefficients are real with
f_{-k} = f_k: :class:`FourierCoeffs` stores f_0..f_order alone.  The
sections are real symmetric, and so also centrosymmetric: the eigenproblem
splits into two of half the size (Cantoni and Butler, Linear Algebra
Appl. 13, 1976).  :func:`toeplitz_halves` builds the halves one at a time
from f_0..f_{n-1} alone: it never forms the n x n section, 8 MiB at
n = 1024, and a caller that drops each half before asking for the next
holds one of them at a time.  The halves come in Fortran order, so
``eig.eig_sym_inplace`` solves each in its own storage, without a copy.

The moments of the quadrature are taken over blocks of at most 128 orders,
so ``fourier_coeffs(f, 1023)`` holds a few hundred KiB of Bessel tables
rather than a few MiB.  A panel whose Legendre expansion has not decayed
by its last terms (an undeclared jump, or a symbol that oscillates faster
than 32 terms resolve) raises ValueError rather than returning
coefficients that are off in the second digit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import ScalarSymbol

__all__ = [
    "FourierCoeffs",
    "fourier_coeffs",
    "toeplitz_build",
    "toeplitz_halves",
]

_LEGENDRE_TERMS = 32  # P_0..P_31 per panel, projected with as many Gauss nodes
_MILLER_START = 2 * _LEGENDRE_TERMS  # backward-recurrence start; 80 or 96 agree to round-off
# Widest panel.  The rounding error of the Legendre coefficients grows like
# m^2 in the derivative at the panel ends, and the f_k inherit it with
# alternating sign, so it adds up in the spectrum.  On one 2pi panel the
# cosine symbol's exact eigenvalues came out 2e-13 off at n = 200; on
# pi/2 panels, 5e-14.
_MAX_PANEL = math.pi / 2
_TAIL_RTOL = 1e-10  # largest |P_28..P_31 coefficient| / largest, per panel
_ORDER_BLOCK = 128  # most orders k whose moments are held at once


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes on [-1, 1] and the projection of node values onto P_0..P_31.

    Row m of the matrix maps the values of f at the nodes to the Legendre
    coefficient (2m+1)/2 int f P_m dx.  Built on first use: the eigensolve
    inside ``leggauss`` would add about 1 MiB to the resident size of every
    CLI start.
    """
    x, w = np.polynomial.legendre.leggauss(_LEGENDRE_TERMS)
    vander = np.polynomial.legendre.legvander(x, _LEGENDRE_TERMS - 1)
    return x, (np.arange(_LEGENDRE_TERMS)[:, None] + 0.5) * vander.T * w


@dataclass(frozen=True)
class FourierCoeffs:
    """The real coefficients f_0..f_order of an even generating function, read-only.

    ``data[k]`` is f_k = f_{-k}.  Raises ValueError for data that is complex,
    not finite, empty or not 1-d.
    """

    data: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.data):
            raise ValueError("coefficients of an even symbol must be real")
        data = np.array(self.data, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise ValueError(f"coefficients must be a nonempty 1-d array, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("coefficients must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def order(self) -> int:
        return self.data.size - 1


def _breakpoints(symbol: ScalarSymbol) -> np.ndarray:
    """-pi, pi, and the interior breakpoints of the symbol on (0, pi) with their mirror images."""
    if symbol.domain.d != 1 or (symbol.domain.a[0], symbol.domain.b[0]) != (0.0, math.pi):
        raise ValueError("generating functions are given on [0, pi]")
    inner = {t for t in symbol.discontinuities if 0.0 < t < math.pi}
    return np.asarray(sorted({-math.pi, math.pi} | inner | {-t for t in inner}), dtype=float)


def _spherical_jn(omega: np.ndarray) -> np.ndarray:
    """j_m(omega) for m < _LEGENDRE_TERMS at each omega >= 0, stacked on a last axis.

    For m <= omega the forward recurrence j_{m+1} = (2m+1)/omega j_m - j_{m-1},
    started from the closed forms of j_0 and j_1, is stable.  Above omega the
    ratios j_m / j_{m-1} come from Miller's backward recurrence in
    continued-fraction form, which cannot overflow, and j_m is the last forward
    value times their product.  Every denominator on that side is
    omega j_{m-1} / j_m > 0, since j_{m-1} has no zero below m + 1 > omega.
    When every omega is at least 31, no m is above it, and the backward
    recurrence is skipped: the forward values are the same expressions, so
    the same bits.
    """
    w = np.asarray(omega, dtype=float)
    out = np.empty(w.shape + (_LEGENDRE_TERMS,))
    miller = not (w >= _LEGENDRE_TERMS - 1).all()
    with np.errstate(divide="ignore", invalid="ignore"):  # discarded branches of np.where
        if miller:
            ratio = np.empty_like(out)
            r = np.zeros(w.shape)
            for m in range(_MILLER_START, 0, -1):
                r = w / (2 * m + 1 - w * r)
                if m < _LEGENDRE_TERMS:
                    ratio[..., m] = r
        out[..., 0] = np.where(w == 0.0, 1.0, np.sin(w) / w)
        for m in range(_LEGENDRE_TERMS - 1):
            forward = ((out[..., 0] - np.cos(w)) / w if m == 0
                       else (2 * m + 1) / w * out[..., m] - out[..., m - 1])
            out[..., m + 1] = (np.where(w >= m + 1, forward, out[..., m] * ratio[..., m + 1])
                               if miller else forward)
    return out


def _filon_coeffs(breaks: np.ndarray, order: int, evaluate) -> np.ndarray:
    """f_k for 0 <= k <= order, stacked on the first axis, by Filon-Legendre quadrature.

    Each breakpoint interval of length L is cut into ceil(L / _MAX_PANEL)
    equal panels theta = c + h x.  On each, f is projected onto P_0..P_31
    with a 32-node Gauss rule, and
    int_{-1}^{1} P_m(x) e^{-i k h x} dx = 2 (-i)^m j_m(k h) (DLMF 10.54.2)
    integrates every term exactly.  ``evaluate`` maps the N nodes to an array
    of N values.

    The projection is trusted only where its tail is small: a panel whose
    largest coefficient among P_28..P_31 exceeds ``_TAIL_RTOL`` times its
    largest coefficient raises ValueError.  That ratio reads about 4e-15
    on the packaged symbols (and on a jump declared as a breakpoint), 6e-14
    on cos(10 theta), 2e-5 on cos(20 theta), 3e-2 on cos(30 theta) and 0.2
    on an undeclared jump, where the coefficients are off by 1e-8 to 1e-2;
    1e-10 lies between the resolved and the unresolved ones.  A NaN fails
    no comparison, so it reaches the caller's finiteness check.

    The moments are taken over k in balanced blocks of at most
    ``_ORDER_BLOCK`` orders, so the Bessel table of a block, not of every
    k, is held at a time; each coefficient is the one a single block gives,
    bit for bit.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    edges = np.concatenate([np.linspace(a, b, math.ceil((b - a) / _MAX_PANEL) + 1)[:-1]
                            for a, b in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])
    c, h = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x, project = _gauss_legendre()
    vals = np.asarray(evaluate((c[:, None] + h[:, None] * x).reshape(-1)))
    shape = vals.shape[1:]
    legendre = project @ vals.reshape(c.size, _LEGENDRE_TERMS, -1)  # (panel, m, entry)
    size = np.abs(legendre)
    tail = size[:, -4:].max(axis=(1, 2)) > _TAIL_RTOL * size.max(axis=(1, 2))
    if tail.any():  # name the last such panel: on [0, pi] for an even extension
        p = np.flatnonzero(tail)[-1]
        ratio = size[p, -4:].max() / size[p].max()
        raise ValueError(f"the quadrature does not resolve the symbol on [{edges[p]:.6g}, "
                         f"{edges[p + 1]:.6g}]: its last Legendre coefficients reach {ratio:.2g} "
                         f"of its largest (limit {_TAIL_RTOL:g}); declare a breakpoint inside it, "
                         "where the symbol jumps or kinks, or to cut it finer")
    weighted = (-1j) ** np.arange(_LEGENDRE_TERMS)[:, None] * legendre
    out = np.empty((order + 1, weighted.shape[-1]), dtype=complex)
    k = np.arange(order + 1)
    for block in np.array_split(k, -(-(order + 1) // _ORDER_BLOCK)):
        moments = _spherical_jn(h[:, None] * block) @ weighted  # (panel, k, entry)
        phase = (h[:, None] / math.pi) * np.exp(-1j * np.outer(c, block))
        out[block] = np.einsum("pk,pke->ke", phase, moments)
    return out.reshape((order + 1,) + shape)


def fourier_coeffs(f: ScalarSymbol, order: int) -> FourierCoeffs:
    """f_k = (1/2pi) int f(|theta|) e^{-ik.theta} dtheta for 0 <= k <= order.

    ``f`` is given on [0, pi]; the integral runs over [-pi, pi] with its even
    extension, which makes every f_k real.  Raises ValueError for any other
    domain, when a coefficient is not finite, or when a panel's Legendre
    expansion has not decayed by its last terms (see ``_filon_coeffs``):
    an undeclared jump, or a symbol too oscillatory for the panels, which
    are at most ``_MAX_PANEL`` wide.
    """
    pos = _filon_coeffs(_breakpoints(f), order, lambda theta: f.sample(np.abs(theta)))
    if not np.isfinite(pos).all():
        raise ValueError("Fourier coefficients are not finite: the symbol has a NaN or infinity")
    return FourierCoeffs(pos.real)


def _window(c: FourierCoeffs, n: int) -> np.ndarray:
    """f_{-(n-1)}..f_{n-1}, shape (2n-1,)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if c.order < n - 1:
        raise ValueError(f"T_{n} needs coefficients up to order {n - 1}, have {c.order}")
    return np.concatenate([c.data[n - 1 : 0 : -1], c.data[:n]])


def toeplitz_build(c: FourierCoeffs, n: int) -> np.ndarray:
    """The n-th Toeplitz section [f_{i-j}]_{i,j=1..n}, real symmetric.

    Raises ValueError for n < 1 or coefficients below order n - 1.
    """
    # row i is f_{-i}, ..., f_{n-1-i}: a length-n window of f_{-(n-1)}..f_{n-1}
    return np.lib.stride_tricks.sliding_window_view(_window(c, n), n)[::-1].copy()


def toeplitz_halves(c: FourierCoeffs, n: int) -> Iterator[np.ndarray]:
    """The half matrices T11 + T12 J and T11 - T12 J of the section T_n.

    J is the exchange matrix.  A symmetric Toeplitz matrix is centrosymmetric,
    and so orthogonally similar to the direct sum of the two halves (Cantoni
    and Butler, Linear Algebra Appl. 13, 1976): its spectrum is the union of
    theirs.  With q = n // 2, T11 = [f_{i-j}] is a q x q Toeplitz block and
    T12 J = [f_{i+j-n+1}] a Hankel one, both read from f_{-(n-1)}..f_{n-1}
    without forming T_n.  For odd n the middle row and column, scaled by
    sqrt(2), border the first half, giving sizes (n+1)/2 and (n-1)/2.  The
    entries are those sliced from ``toeplitz_build(c, n)``, bit for bit.

    Returns an iterator over the two halves, in that order, each a new
    writeable float64 array in Fortran order, so that ``eig_sym_inplace``
    can solve it in its own storage.  The second is built only when it is
    asked for, and the iterator keeps no reference to the first, so a
    caller that drops each half before the next holds one at a time.
    Raises ValueError for n < 1 or coefficients below order n - 1, at the
    call, before the first half.
    """
    return _halves(_window(c, n), n)


def _halves(w: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Yield the even half, then build and yield the odd one, from the real window w.

    Neither half is bound to a local, so the suspended generator holds no
    reference to the one it has yielded.
    """
    q = n // 2
    windows = np.lib.stride_tricks.sliding_window_view
    hankel = windows(w, q)[:q]  # [i, j] -> w[i + j] = f_{i+j-n+1}
    toeplitz = windows(w[::-1], q)[n - 1 : n - 1 - q : -1]  # [i, j] -> w[n-1+i-j] = f_{i-j}
    # each half is symmetric entry for entry, so its transpose is the same
    # matrix in Fortran order; filling a Fortran array from these views
    # took three times as long at n = 1024
    yield _even_half(w, n, toeplitz, hankel).T
    yield (toeplitz - hankel).T


def _even_half(w: np.ndarray, n: int, toeplitz: np.ndarray, hankel: np.ndarray) -> np.ndarray:
    """T11 + T12 J, bordered for odd n by the sqrt(2)-scaled middle row and column."""
    q = n // 2
    even = np.empty((n - q, n - q))
    np.add(toeplitz, hankel, out=even[:q, :q])
    if n % 2:
        even[q, :q] = even[:q, q] = math.sqrt(2.0) * w[n - 1 - q : n - 1]  # sqrt(2) f_{i-q}
        even[q, q] = w[n - 1]
    return even
