"""Permutation matching of eigenvalue multisets against symbol samples.

The central quantity is the max absolute difference between the ascending
rearrangements of the two multisets.  Sorting both sides is optimal for the
infinity norm (a consequence of Weyl's perturbation inequality applied to
diagonal matrices), which the exhaustive matcher verifies at small sizes.

A matrix symbol's family is matched the same way (``branch_match``): one
``sorted_match`` against the stacked samples of all its branches, whose
pairs are then grouped by the branch of their sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import AUGrid, MatrixSymbol, ScalarSymbol, as_values, restrict_mask

__all__ = [
    "MatchResult",
    "sorted_match",
    "branch_match",
    "min_perm_match",
    "mn_curve",
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


def branch_match(lambdas, ms: MatrixSymbol,
                 grids: Sequence[np.ndarray]) -> tuple[MatchResult, np.ndarray]:
    """Sorted match of lambdas against the stacked samples of every branch of ms.

    Branch j is sampled at the angles ``grids[j]``, such as ``grid_points(kind, n)``,
    all in one ``ms.branch_samples`` call.  Returns the ``sorted_match`` and
    ``labels``, the branch of each sorted pair's sample, so
    ``result.paired_diffs[labels == j]`` are branch j's ``len(grids[j])`` pairs.
    Raises ValueError unless there is one 1-d array per branch, holding as
    many angles in total as there are values, each in the symbol's interval.
    """
    v = as_values(lambdas)
    if len(grids) != ms.k:
        raise ValueError(f"expected {ms.k} per-branch grids, got {len(grids)}")
    grids = [np.asarray(grid, dtype=float) for grid in grids]
    if any(grid.ndim != 1 for grid in grids):
        raise ValueError("branch grids are one-dimensional")
    sizes = [grid.size for grid in grids]
    if sum(sizes) != v.size:
        raise ValueError(f"branch grids hold {sum(sizes)} points, there are {v.size} values")
    branch = np.repeat(np.arange(ms.k), sizes)
    samples = ms.branch_samples(np.concatenate(grids))[np.arange(v.size), branch]
    result = sorted_match(samples, v)
    return result, branch[result.sigma]


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
