"""Monotone rearrangement (quantile function) of sampled multisets.

The discrete object is the piecewise-linear interpolant of the sorted samples
over equispaced nodes in [0, 1].  For samples of a symbol over a uniform grid
it converges uniformly to the symbol's quantile function when the essential
range is a single interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_values

__all__ = [
    "QuantileInterpolant",
    "empirical_quantile",
]


@dataclass(frozen=True)
class QuantileInterpolant:
    """Piecewise-linear interpolant of sorted samples over nodes l/omega."""

    sorted_samples: np.ndarray

    def __post_init__(self):
        s = as_values(self.sorted_samples).copy()
        if s.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.diff(s) >= 0):
            raise ValueError("samples must be sorted ascending")
        s.setflags(write=False)
        object.__setattr__(self, "sorted_samples", s)

    @property
    def omega(self) -> int:
        return self.sorted_samples.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.omega + 1) / self.omega

    def __call__(self, y) -> float | np.ndarray:
        """Evaluate the interpolant at y in [0, 1]; monotone increasing in y."""
        arr = np.asarray(y, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both comparisons
            raise ValueError("evaluation point must lie in [0, 1]")
        out = np.interp(arr, self.nodes, self.sorted_samples)
        return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def empirical_quantile(samples) -> QuantileInterpolant:
    """Sort a multiset ascending and interpolate it over equispaced nodes.

    Sorting is stable, so equal values keep their insertion order and repeated
    runs are reproducible.
    """
    return QuantileInterpolant(np.sort(as_values(samples), kind="stable"))
