"""Reference computations that the tests check the library against.

None of these is on a command's path.  ``min_perm_match`` is the factorial
minimum over all pairings, which ``match.sorted_match`` must attain.
``cosine_eigs_exact`` and ``cos_dip_min`` are closed forms of the packaged
cosine and cos-dip symbols.  ``QuantileInterpolant`` is the monotone
rearrangement (quantile function) of a sampled multiset: the piecewise-linear
interpolant of the sorted samples over equispaced nodes in [0, 1].  For
samples of a symbol over a uniform grid it converges uniformly to the
symbol's quantile function when the essential range is a single interval.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from eigmatch.core import as_values
from eigmatch.galerkin import GridKind, grid_points

#: Exhaustive permutation search is factorial; refuse beyond this length.
MAX_EXHAUSTIVE = 9


def min_perm_match(samples, lambdas) -> float:
    """Exhaustive min over permutations tau of max_i |samples_i - lambdas_tau(i)|.

    Factorial cost; equals ``sorted_match(...).m_n`` (covered by tests), so it
    exists purely as an oracle for small instances.
    """
    s = as_values(samples)
    t = as_values(lambdas)
    if s.size != t.size:
        raise ValueError(f"size mismatch: {s.size} vs {t.size}")
    if s.size < 1:
        raise ValueError("need at least one value per side")
    if s.size > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive mode supports length <= {MAX_EXHAUSTIVE}, got {s.size}")
    s_list = s.tolist()
    best = math.inf
    for perm in itertools.permutations(t.tolist()):
        m = max(abs(a - b) for a, b in zip(s_list, perm))
        if m < best:
            best = m
    return best


def cosine_eigs_exact(a: float, b: float, n: int) -> np.ndarray:
    """Eigenvalues {a + b cos(i*pi/(n+1))} of the tridiagonal Toeplitz section."""
    return a + b * np.cos(grid_points(GridKind.INTERIOR, n + 1))


#: Minimum of cos(2t) + cos(3t) on (0, pi/2), at cos t = (-1+sqrt(10))/6.
cos_dip_min = -25.0 / 54.0 - 10.0 * math.sqrt(10.0) / 27.0


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
