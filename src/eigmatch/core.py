"""Domain types and grid utilities shared by all modules.

Conventions used throughout the package:

- A grid is its points: an (N, d) array, or (N,) when d = 1.  The uniform
  grid on a d-dimensional rectangle [a, b] holds the points a + i*(b - a)/n
  for i = 1..n componentwise, in lexicographic order of i with the last
  component varying fastest; it excludes the face x = a and includes x = b.
- Multisets keep their values in insertion order.  Operations that need a
  sorted view return permutations instead of mutating anything.
- Symbols evaluate vectorized.  A scalar symbol's ``eval`` receives one
  numpy array per coordinate and returns an array of values of the same
  shape; a matrix symbol's ``eval`` receives an array of N angles and
  returns the (N, k, k) stack of its values.
- A subdomain Omega is a ``membership`` callable on the coordinates that
  returns one boolean per point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Rect",
    "ScalarSymbol",
    "MatrixSymbol",
    "make_uniform_grid",
]


#: Absolute bound on max|m - m^H| for a matrix-symbol value to count as Hermitian.
_HERMITIAN_TOL = 1e-12


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Rect:
    """Closed d-dimensional rectangle [a_1,b_1] x ... x [a_d,b_d]."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _readonly(np.atleast_1d(self.a))
        b = _readonly(np.atleast_1d(self.b))
        if a.ndim != 1 or a.shape != b.shape or a.size < 1:
            raise ValueError("rectangle endpoints must be 1-d vectors of equal length")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.all(a <= b)):
            raise ValueError("rectangle requires finite a <= b componentwise")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.a.size


def _integral_dims(dims) -> tuple[int, ...]:
    """Grid dimensions as ints; a value that is not integral raises ``ValueError``.

    Integral floats (3.0) and numpy integers pass; 2.5 is refused rather
    than truncated to a 2-point dimension.
    """
    values = np.atleast_1d(np.asarray(dims))
    if not all(float(n).is_integer() for n in values):
        raise ValueError(f"dims must be integral, got {values.tolist()}")
    return tuple(int(n) for n in values)


def make_uniform_grid(rect: Rect, dims) -> np.ndarray:
    """Points a + i*(b-a)/n of the uniform grid on ``rect``, i = 1..n, shape (N, d).

    Raises ``ValueError`` unless ``dims`` gives one integer n >= 1 per dimension.
    """
    dims = _integral_dims(dims)
    if any(n < 1 for n in dims):
        raise ValueError(f"dims must be >= 1 componentwise, got {dims}")
    if len(dims) != rect.d:
        raise ValueError(f"dims must give one size per dimension, got {dims} "
                         f"for a {rect.d}-d rectangle")
    grids = np.meshgrid(*[np.arange(1, n + 1) for n in dims], indexing="ij")
    lattice = np.stack(grids, axis=-1).reshape(-1, len(dims))
    return rect.a + lattice * (rect.b - rect.a) / np.asarray(dims, dtype=float)


def _as_points(points, d: int, where: str = "") -> np.ndarray:
    """Points as an (N, d) array, from (N, d) or, when d = 1, (N,); else ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and d == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"{where}points must have shape (N, {d}), got {pts.shape}")
    return pts


def as_values(x) -> np.ndarray:
    """Coerce an array-like into a 1-d float array of finite values."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return v


@dataclass(frozen=True)
class ScalarSymbol:
    """Real-valued function on a rectangle (or a subdomain of it).

    ``eval`` must be vectorized over one array per coordinate.  ``membership``
    selects the subdomain Omega (default: the whole rectangle); whether Omega
    is regular enough (negligible boundary) is the caller's responsibility and
    is not checked here.  ``discontinuities`` lists the breakpoints of a 1-d
    symbol in [a, b], where quadrature panels are split; raises ValueError
    for a breakpoint that is not finite or, in 1-d, lies outside [a, b].
    The symbol's range is not stored: the matching compares samples, never
    bounds.
    """

    domain: Rect
    eval: Callable
    membership: Callable | None = None
    discontinuities: tuple[float, ...] = ()

    def __post_init__(self):
        breaks = tuple(float(t) for t in self.discontinuities)
        lo, hi = ((self.domain.a[0], self.domain.b[0]) if self.domain.d == 1
                  else (-math.inf, math.inf))
        if not all(math.isfinite(t) and lo <= t <= hi for t in breaks):
            raise ValueError(f"breakpoints must be finite and inside the domain, got {breaks}")
        object.__setattr__(self, "discontinuities", breaks)

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (N, d) (or (N,) when d = 1), giving shape (N,).

        Raises ``ValueError`` for any other shape, or unless ``eval`` returns one value per point.
        """
        pts = _as_points(points, self.domain.d)
        values = np.asarray(self.eval(*pts.T), dtype=float)
        if values.shape != (len(pts),):
            raise ValueError(f"symbol returned shape {values.shape} for {len(pts)} points, "
                             f"expected one value per point")
        return values


@dataclass(frozen=True)
class MatrixSymbol:
    """Hermitian k x k matrix-valued function on a finite interval [a, b].

    ``eval`` maps an array of N angles to the (N, k, k) stack of complex
    values.  Branches are the ascending eigenvalue functions of the matrix at
    each point.  Raises ValueError unless a < b are finite and k is an integer >= 1.
    """

    interval: tuple[float, float]
    k: int
    eval: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"need a finite nonempty interval, got [{a!r}, {b!r}]")
        try:
            k = operator.index(self.k)
        except TypeError:
            k = 0
        if k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "k", k)

    def matrices(self, thetas) -> np.ndarray:
        """Symbol values at an array of N angles, shape (N, k, k), validated.

        Raises ``ValueError`` naming the first angle outside the interval or
        whose value is not finite or not Hermitian to within an absolute 1e-12.
        """
        thetas = np.asarray(thetas, dtype=float).reshape(-1)
        a, b = self.interval
        outside = ~((thetas >= a) & (thetas <= b))  # written so that NaN is outside
        if outside.any():
            raise ValueError(f"angle {float(thetas[outside][0])!r} lies outside "
                             f"the symbol's interval [{a!r}, {b!r}]")
        m = np.asarray(self.eval(thetas), dtype=complex)
        if m.shape != (thetas.size, self.k, self.k):
            raise ValueError(
                f"symbol returned shape {m.shape}, expected {(thetas.size, self.k, self.k)}"
            )
        finite = np.isfinite(m).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"symbol is not finite at theta={float(thetas[~finite][0])!r}")
        skew = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        hermitian = skew <= _HERMITIAN_TOL  # written so that a NaN skew fails
        if not hermitian.all():
            raise ValueError(f"symbol is not Hermitian at theta={float(thetas[~hermitian][0])!r}")
        return m

    def branch_samples(self, thetas) -> np.ndarray:
        """Ascending eigenvalues lambda_1 <= ... <= lambda_k per angle, shape (N, k)."""
        return np.linalg.eigvalsh(self.matrices(thetas))
