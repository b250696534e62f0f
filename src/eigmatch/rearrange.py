"""Monotone rearrangement (quantile function) of symbols and sampled multisets.

The discrete object is the piecewise-linear interpolant of the sorted samples
over equispaced nodes in [0, 1]; it converges uniformly to the quantile
function of the symbol when the essential range is a single interval, which is
exactly the regime the matching diagnostics operate in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AUGrid, IntervalUnion, ScalarSymbol, _lattice, as_values, restrict_mask

__all__ = [
    "QuantileInterpolant",
    "empirical_quantile",
    "quantile_eval",
    "quantile_oracle",
    "essential_range",
]


@dataclass(frozen=True)
class QuantileInterpolant:
    """Piecewise-linear interpolant of sorted samples over nodes l/omega."""

    sorted_samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sorted_samples, dtype=float).reshape(-1)
        if s.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(s) < 0):
            raise ValueError("samples must be sorted ascending")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "sorted_samples", s)

    @property
    def omega(self) -> int:
        return self.sorted_samples.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.omega + 1) / self.omega

    def __call__(self, y):
        return quantile_eval(self, y)


def empirical_quantile(samples) -> QuantileInterpolant:
    """Sort a multiset ascending and interpolate it over equispaced nodes.

    Sorting is stable, so equal values keep their insertion order and repeated
    runs are reproducible.
    """
    v = as_values(samples)
    if v.size < 2:
        raise ValueError(f"need at least 2 samples, got {v.size}")
    return QuantileInterpolant(np.sort(v, kind="stable"))


def quantile_eval(q: QuantileInterpolant, y) -> float | np.ndarray:
    """Evaluate the interpolant at y in [0, 1]; monotone increasing in y."""
    arr = np.asarray(y, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both comparisons
        raise ValueError("evaluation point must lie in [0, 1]")
    out = np.interp(arr, q.nodes, q.sorted_samples)
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def _dense_samples(f: ScalarSymbol, density: int) -> np.ndarray:
    """Sorted values of f over an interior uniform grid of ~``density`` points.

    The grid {a + i*(b-a)/(m+1) : i = 1..m} per axis stays clear of the
    boundary, so values attained only on a face (a measure-zero set) do not
    leak into range estimates.
    """
    dims = (max(2, math.ceil(density ** (1.0 / f.domain.d))),) * f.domain.d
    pts = f.domain.a + _lattice(dims) / (dims[0] + 1) * f.domain.lengths
    pts = pts[restrict_mask(AUGrid(rect=f.domain, dims=dims, points=pts), f.membership)]
    if pts.shape[0] == 0:
        raise ValueError("membership selected no grid points")
    return np.sort(f.sample(pts), kind="stable")


def quantile_oracle(f: ScalarSymbol, density: int, y: float) -> float:
    """Brute-force quantile of a symbol: the ceil(y*N)-th order statistic of a
    dense uniform sampling.  This is the independent oracle the rest of the
    package is tested against; accuracy is O(1/density) plus the modulus of
    continuity of the quantile function.
    """
    if density < 10**3:
        raise ValueError("density must be at least 1e3")
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    s = _dense_samples(f, density)
    idx = min(s.size, max(1, math.ceil(y * s.size)))
    return float(s[idx - 1])


def essential_range(f: ScalarSymbol, density: int, gap_tol: float | None = None) -> IntervalUnion:
    """Estimate the essential range of ``f`` as a union of closed intervals.

    Dense sorted samples are merged into intervals; a new interval starts
    whenever two consecutive sorted values are more than ``gap_tol`` apart.
    The default tolerance, 10 * (declared_sup - declared_inf) / density,
    separates genuine jumps from discretization gaps of Lipschitz pieces.
    Declared analytic knowledge should win over this estimate when available.
    """
    if density < 10**3:
        raise ValueError("density must be at least 1e3")
    if gap_tol is None:
        gap_tol = 10.0 * (f.declared_sup - f.declared_inf) / density
    if not gap_tol > 0:  # NaN included
        raise ValueError("gap_tol must be positive")
    s = _dense_samples(f, density)
    pairs = []
    lo = s[0]
    prev = s[0]
    for v in s[1:]:
        if v - prev > gap_tol:
            pairs.append((lo, prev))
            lo = v
        prev = v
    pairs.append((lo, prev))
    return IntervalUnion(tuple(pairs))
