"""Permutation matching of eigenvalue multisets against symbol samples.

The central quantity is the max absolute difference between the ascending
rearrangements of the two multisets.  Sorting both sides is optimal for the
infinity norm (a consequence of Weyl's perturbation inequality applied to
diagonal matrices), which the exhaustive matcher verifies at small sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import AUGrid, ScalarSymbol, as_values, make_uniform_grid, restrict_mask

__all__ = [
    "MatchResult",
    "MonotonePiece",
    "NoPreimageError",
    "sorted_match",
    "min_perm_match",
    "mn_curve",
    "mn_curve_2d",
    "preimage_grid",
]

#: Exhaustive permutation search is factorial; refuse beyond this length.
MAX_EXHAUSTIVE = 9


@dataclass(frozen=True)
class MatchResult:
    """Outcome of pairing two equally sized multisets by ascending rank.

    ``sigma`` and ``tau`` are 0-based argsort permutations of the inputs
    (samples and lambdas respectively); ``paired_diffs[i]`` is
    samples[sigma[i]] - lambdas[tau[i]] and ``m_n`` its max absolute value.
    """

    m_n: float
    sigma: np.ndarray
    tau: np.ndarray
    paired_diffs: np.ndarray


def sorted_match(samples, lambdas) -> MatchResult:
    """Sort both multisets ascending, pair positionally, take the max gap."""
    s = as_values(samples)
    t = as_values(lambdas)
    if s.size != t.size:
        raise ValueError(f"size mismatch: {s.size} samples vs {t.size} values")
    if s.size < 1:
        raise ValueError("need at least one value per side")
    sigma = np.argsort(s, kind="stable")
    tau = np.argsort(t, kind="stable")
    diffs = s[sigma] - t[tau]
    return MatchResult(
        m_n=float(np.max(np.abs(diffs))),
        sigma=sigma,
        tau=tau,
        paired_diffs=diffs,
    )


def min_perm_match(samples, lambdas) -> float:
    """Exhaustive min over permutations tau of max_i |samples_i - lambdas_tau(i)|.

    Factorial cost; equals ``sorted_match(...).m_n`` (covered by tests), so it
    exists purely as an oracle for small instances.
    """
    s = as_values(samples)
    t = as_values(lambdas)
    if s.size != t.size:
        raise ValueError(f"size mismatch: {s.size} vs {t.size}")
    if s.size > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive mode supports length <= {MAX_EXHAUSTIVE}, got {s.size}")
    s_list = s.tolist()
    best = math.inf
    for perm in itertools.permutations(t.tolist()):
        m = max(abs(a - b) for a, b in zip(s_list, perm))
        if m < best:
            best = m
    return best


def mn_curve(
    symbol: ScalarSymbol,
    grid_for_n: Callable[[int], AUGrid],
    lambdas_by_n: Mapping[int, object],
    ns: Sequence[int],
) -> list[tuple[int, float]]:
    """Max sorted-pair difference between symbol samples and lambdas, per n.

    For each n the grid returned by ``grid_for_n(n)`` is restricted to the
    symbol's subdomain, the symbol is sampled there, and the samples are
    matched against the multiset ``lambdas_by_n[n]``.
    """
    rows = []
    for n in ns:
        grid = grid_for_n(int(n))
        mask = restrict_mask(grid, symbol.membership)
        values = symbol.sample(grid.points[mask])
        lam = as_values(lambdas_by_n[n])
        if values.size != lam.size:
            raise ValueError(
                f"n={n}: {values.size} grid samples inside the domain vs {lam.size} values"
            )
        rows.append((int(n), sorted_match(values, lam).m_n))
    return rows


def mn_curve_2d(
    symbol: ScalarSymbol,
    dims_for_n: Callable[[int], tuple[int, ...]],
    lambdas_by_n: Mapping[int, object],
    ns: Sequence[int],
) -> list[tuple[int, float]]:
    """As :func:`mn_curve` on the uniform grid of the symbol's rectangle.

    ``dims_for_n`` gives the per-axis point counts explicitly (e.g. (sqrt n,
    sqrt n) for perfect squares); the flattening is lexicographic, so the
    sample vector order matches the multi-index order of the grid.
    """
    return mn_curve(symbol, lambda n: make_uniform_grid(symbol.domain, dims_for_n(n)),
                    lambdas_by_n, ns)


@dataclass(frozen=True)
class MonotonePiece:
    """Restriction of a 1-d symbol to an interval where it is strictly monotone.

    Piece boundaries are the local extrema and discontinuity points, supplied
    by the caller; ``eval`` must be the analytic branch valid on the closed
    interval [lo, hi].
    """

    lo: float
    hi: float
    direction: str
    eval: Callable

    def __post_init__(self):
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError("direction must be 'increasing' or 'decreasing'")
        if not self.lo < self.hi:
            raise ValueError("piece requires lo < hi")

    def value_range(self) -> tuple[float, float]:
        va = float(self.eval(self.lo))
        vb = float(self.eval(self.hi))
        return (min(va, vb), max(va, vb))


class NoPreimageError(ValueError):
    """A target value has no preimage on any supplied monotone piece."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"no preimage for value {value!r} at grid position {index}")


#: Bracketing inflation for piece value ranges (targets may sit on the edge).
_RANGE_TOL = 1e-9
#: Bisection tolerance in x.
_ROOT_TOL = 1e-12


def _bisect_piece(piece: MonotonePiece, target: float) -> float | None:
    vlo, vhi = piece.value_range()
    if target < vlo - _RANGE_TOL or target > vhi + _RANGE_TOL:
        return None
    increasing = piece.direction == "increasing"
    lo, hi = piece.lo, piece.hi
    flo = float(piece.eval(lo))
    # Clamp onto the attained range so boundary targets resolve to endpoints.
    t = min(max(target, vlo), vhi)
    if (increasing and t <= flo) or (not increasing and t >= flo):
        return lo
    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        fm = float(piece.eval(mid))
        if (fm >= t) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def preimage_grid(
    pieces: Sequence[MonotonePiece],
    lambdas,
    ref_grid: AUGrid,
    snap_tol: float | None = None,
) -> AUGrid:
    """Recover a grid on which the given values are exact samples of f.

    Each value is first rank-matched to a reference grid point (the i-th
    smallest value goes with the point whose sample has rank i), then its
    preimage is computed by bisection on every monotone piece whose value
    range brackets it, keeping the root closest to the reference point
    (ties break toward smaller x).  The recovered points are returned sorted
    ascending, which can only shrink the deviation from the uniform grid.

    ``snap_tol``, if given, replaces any recovered point farther than this
    from its reference point by the reference point itself; the result then
    interleaves exact preimages with reference points instead of being a grid
    of exact preimages everywhere.
    """
    lam = as_values(lambdas)
    if ref_grid.rect.d != 1:
        raise ValueError("preimage grids are one-dimensional")
    if lam.size != ref_grid.size:
        raise ValueError(f"{lam.size} values vs {ref_grid.size} reference points")
    thetas = ref_grid.points[:, 0]

    def f(x):
        for piece in pieces:
            if piece.lo <= x <= piece.hi:
                return float(piece.eval(x))
        raise ValueError(f"point {x} not covered by any piece")

    samples = np.array([f(t) for t in thetas])
    sigma = np.argsort(samples, kind="stable")
    lam_sorted = np.sort(lam, kind="stable")
    # mu[i] = value rank-matched with reference point i
    mu = np.empty_like(lam_sorted)
    mu[sigma] = lam_sorted

    xs = np.empty(lam.size)
    for i, (theta, target) in enumerate(zip(thetas, mu)):
        roots = []
        for piece in pieces:
            r = _bisect_piece(piece, target)
            if r is not None:
                roots.append(r)
        if not roots:
            raise NoPreimageError(i, float(target))
        roots.sort()
        dists = [abs(r - theta) for r in roots]
        best = roots[int(np.argmin(dists))]  # argmin takes the first = smaller x on ties
        if snap_tol is not None and abs(best - theta) > snap_tol:
            best = theta
        xs[i] = best

    xs.sort()
    return AUGrid(rect=ref_grid.rect, dims=ref_grid.dims, points=xs.reshape(-1, 1))
