"""Domain types and grid utilities shared by all modules.

Conventions used throughout the package:

- A grid on a d-dimensional rectangle [a, b] is indexed by multi-indices
  i = 1..n (componentwise) in lexicographic order, the last component
  varying fastest.  The uniform grid point at multi-index i is
  a + i*(b - a)/n; note that it excludes the face x = a and includes x = b.
- Multisets keep their values in insertion order.  Operations that need a
  sorted view return permutations instead of mutating anything.
- Symbols evaluate vectorized.  A scalar symbol's ``eval`` receives one
  numpy array per coordinate and returns an array of values of the same
  shape; a matrix symbol's ``eval`` receives an array of N angles and
  returns the (N, k, k) stack of its values.
- A subdomain Omega is a boolean ``membership`` callable on the coordinates;
  :func:`restrict_mask` selects the grid points it contains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Rect",
    "AUGrid",
    "ScalarSymbol",
    "MatrixSymbol",
    "make_uniform_grid",
    "grid_deviation",
    "restrict_mask",
    "count_grid_in_interval",
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


@dataclass(frozen=True)
class AUGrid:
    """A family of N(n) points in R^d indexed lexicographically by i = 1..n.

    ``points`` has shape (N, d) with N = prod(dims); row order follows the
    lexicographic order of the multi-indices.  The grid need not be contained
    in ``rect``; the rectangle only fixes the uniform grid the deviation is
    measured against.
    """

    rect: Rect
    dims: tuple[int, ...]
    points: np.ndarray

    def __post_init__(self):
        dims = _integral_dims(self.dims)
        if len(dims) != self.rect.d or any(n < 1 for n in dims):
            raise ValueError("dims must be positive integers, one per dimension")
        pts = _readonly(np.asarray(self.points, dtype=float).reshape(-1, self.rect.d))
        if pts.shape[0] != int(np.prod(dims)):
            raise ValueError(
                f"grid has {pts.shape[0]} points but dims {dims} require {int(np.prod(dims))}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def multi_indices(self) -> np.ndarray:
        """All multi-indices 1..n in lexicographic order, shape (N, d)."""
        return _lattice(self.dims)

    def uniform_points(self) -> np.ndarray:
        """Points of the uniform grid a + i*(b-a)/n in the same index order."""
        return _uniform_points(self.rect, self.dims)


def _integral_dims(dims) -> tuple[int, ...]:
    """Grid dimensions as ints; a value that is not integral raises ``ValueError``.

    Integral floats (3.0) and numpy integers pass; 2.5 is refused rather
    than truncated to a 2-point dimension.
    """
    values = np.atleast_1d(np.asarray(dims))
    if not all(float(n).is_integer() for n in values):
        raise ValueError(f"dims must be integral, got {values.tolist()}")
    return tuple(int(n) for n in values)


def _lattice(dims) -> np.ndarray:
    """Multi-indices 1..n (componentwise) in lexicographic order, shape (N, d)."""
    grids = np.meshgrid(*[np.arange(1, n + 1) for n in dims], indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, len(dims))


def _uniform_points(rect: Rect, dims) -> np.ndarray:
    """Points a + i*(b-a)/n of the uniform grid, in lattice order."""
    return rect.a + _lattice(dims) * (rect.b - rect.a) / np.asarray(dims, dtype=float)


def make_uniform_grid(rect: Rect, dims) -> AUGrid:
    """Uniform grid {a + i*(b-a)/n : i = 1..n} on ``rect``, deviation zero."""
    dims = _integral_dims(dims)
    if any(n < 1 for n in dims):
        raise ValueError(f"dims must be >= 1 componentwise, got {dims}")
    return AUGrid(rect=rect, dims=dims, points=_uniform_points(rect, dims))


def grid_deviation(g: AUGrid) -> float:
    """Max infinity-norm distance of the grid from the uniform grid of its rect."""
    diff = np.abs(g.points - g.uniform_points())
    return float(diff.max(axis=1).max()) if g.size else 0.0


def restrict_mask(g: AUGrid, membership: Callable | None) -> np.ndarray:
    """Boolean mask over the grid's rows, True where the point lies in Omega.

    ``membership`` receives one array per coordinate and returns a boolean
    array; ``None`` selects every point.  ``g.multi_indices()[mask]`` lists
    the selected multi-indices in lexicographic order.
    """
    if membership is None:
        return np.ones(g.size, dtype=bool)
    coords = [g.points[:, j] for j in range(g.rect.d)]
    return np.asarray(membership(*coords), dtype=bool).reshape(-1)


def count_grid_in_interval(x0: float, h: float, alpha: float, beta: float) -> int:
    """Upper bound floor((beta-alpha)/h) + 1 for |{x0 + i*h} ∩ [alpha, beta]|.

    The number of points of a stepsize-h grid inside [alpha, beta] never
    exceeds this bound, also when the grid points and endpoints are computed
    in floating point: the quotient gets a slack of a few ulps of the
    magnitudes involved, so endpoints sitting on the grid are not lost to
    rounding.  Used as a test oracle throughout.
    """
    if not all(math.isfinite(v) for v in (x0, h, alpha, beta)):
        raise ValueError(f"need finite x0, h, alpha and beta, got x0={x0!r}, h={h!r}, "
                         f"alpha={alpha!r}, beta={beta!r}")
    if h <= 0:
        raise ValueError(f"stepsize must be positive, got {h}")
    if alpha > beta:
        raise ValueError("interval requires alpha <= beta")
    q = (beta - alpha) / h
    scale = max(abs(x0), abs(alpha), abs(beta)) / h
    slack = 16 * np.finfo(float).eps * (q + scale)
    if not math.isfinite(q + slack):
        raise ValueError(f"too many grid steps to count: h={h!r} in [{alpha!r}, {beta!r}] "
                         f"from x0={x0!r}")
    return int(math.floor(q + slack)) + 1


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
        """Evaluate at points of shape (N, d) (or (N,) when d = 1)."""
        pts = np.asarray(points, dtype=float)
        if self.domain.d == 1:
            return np.asarray(self.eval(pts.reshape(-1)), dtype=float)
        pts = pts.reshape(-1, self.domain.d)
        return np.asarray(self.eval(*(pts[:, j] for j in range(self.domain.d))), dtype=float)


@dataclass(frozen=True)
class MatrixSymbol:
    """Hermitian k x k matrix-valued function on an interval.

    ``eval`` maps an array of N angles to the (N, k, k) stack of complex
    values.  Branches are the ascending eigenvalue functions of the matrix at
    each point.
    """

    interval: tuple[float, float]
    k: int
    eval: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
        if not (a < b and self.k >= 1):
            raise ValueError("need a nonempty interval and k >= 1")
        object.__setattr__(self, "interval", (a, b))

    def matrices(self, thetas) -> np.ndarray:
        """Symbol values at an array of N angles, shape (N, k, k), validated.

        Raises ``ValueError`` naming the first angle whose value is not
        finite or not Hermitian to within an absolute 1e-12.
        """
        thetas = np.asarray(thetas, dtype=float).reshape(-1)
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
