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

from .core import AUGrid, ScalarSymbol, as_values, restrict_mask

__all__ = [
    "MatchResult",
    "sorted_match",
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
