"""Partitioning an eigenvalue multiset of a matrix-valued symbol by branch.

Given a multiset distributed as a k-branch matrix symbol, the pipeline is:

1. ``initial_split`` samples branch j on its own array of angles, ranks all
   the samples together with the values, and gives each value the branch of
   the sample of the same rank.  Part j thus holds exactly as many values as
   branch j has angles, and the parts track the branches in distribution.
2. Per-branch sorted matching then proceeds exactly as in the scalar case.

Branch values come from one stacked evaluation of the symbol
(``MatrixSymbol.branch_samples``) over the concatenated angles of all
branches, never angle by angle; its samples serve both the split and the
per-branch matching.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MatrixSymbol, as_values
from .match import MatchResult, sorted_match

__all__ = [
    "Partition",
    "initial_split",
    "split_and_match",
]


#: Rounding slack, relative to the interval's width, by which an angle may lie
#: beyond either end of the symbol's interval: ``grid_points`` computes the
#: angle pi as n * pi / n, which can exceed pi by an ulp.
_ANGLE_RTOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """A partition of a real multiset into k parts.

    ``values`` is the underlying multiset in insertion order and
    ``provenance[e]`` the 0-based part index of element e, so the parts are
    recoverable and their disjoint union is the input by construction.
    Raises ValueError unless the values are finite, the part indices are
    integers in 0..k-1, one per value, and k is an integer >= 1.
    """

    values: np.ndarray
    provenance: np.ndarray
    k: int

    def __post_init__(self):
        try:
            k = operator.index(self.k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {self.k!r}") from None
        v = as_values(self.values).copy()
        prov = np.asarray(self.provenance).reshape(-1)
        if prov.size and prov.dtype.kind not in "iu":
            raise ValueError(f"part indices must be integers, got dtype {prov.dtype}")
        prov = prov.astype(int)
        if v.size != prov.size:
            raise ValueError("provenance must assign a part to every element")
        if k < 1 or np.any(prov < 0) or np.any(prov >= k):
            raise ValueError("part indices out of range")
        v.setflags(write=False)
        prov.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "provenance", prov)
        object.__setattr__(self, "k", k)

    def cardinalities(self) -> np.ndarray:
        return np.bincount(self.provenance, minlength=self.k)


def _split(v: np.ndarray, ms: MatrixSymbol,
           grids: Sequence[np.ndarray]) -> tuple[Partition, Partition]:
    """``initial_split`` of the values v, and the branch samples it ranked.

    ``grids`` holds one array of angles per branch.  The samples come back
    as a partition by branch, so that per-branch matching reuses them
    instead of evaluating the symbol again.
    """
    if len(grids) != ms.k:
        raise ValueError(f"expected {ms.k} per-branch grids, got {len(grids)}")
    grids = [np.asarray(grid, dtype=float) for grid in grids]
    if any(grid.ndim != 1 for grid in grids):
        raise ValueError("branch grids are one-dimensional")
    a, b = ms.interval
    slack = _ANGLE_RTOL * (b - a)
    for j, grid in enumerate(grids):
        outside = ~((grid >= a - slack) & (grid <= b + slack))  # written so that NaN is outside
        if outside.any():
            raise ValueError(f"branch {j} angle {float(grid[outside][0])!r} lies outside "
                             f"the symbol's interval [{a!r}, {b!r}]")
    sizes = [grid.size for grid in grids]
    if sum(sizes) != v.size:
        raise ValueError(f"branch grids hold {sum(sizes)} points, there are {v.size} values")
    branch = np.repeat(np.arange(ms.k), sizes)
    samples = ms.branch_samples(np.concatenate(grids))[np.arange(v.size), branch]
    provenance = np.empty(v.size, dtype=int)
    provenance[np.argsort(v, kind="stable")] = branch[np.argsort(samples, kind="stable")]
    return Partition(v, provenance, ms.k), Partition(samples, branch, ms.k)


def initial_split(lambdas, ms: MatrixSymbol, grids: Sequence[np.ndarray]) -> Partition:
    """Rank-based first split of a multiset into per-branch parts.

    Branch j is sampled at the angles ``grids[j]``, an array-like such as
    ``galerkin.grid_points(kind, n)``; all the samples are ranked together
    with the values, and the i-th smallest value goes to the branch of the
    i-th smallest sample.  Part j therefore holds exactly ``len(grids[j])``
    values.  Raises ValueError unless there is one 1-d array per branch,
    every angle lies in the symbol's interval, and the arrays hold as many
    angles in total as there are values.
    """
    return _split(as_values(lambdas), ms, grids)[0]


def split_and_match(lambdas, ms: MatrixSymbol, grids: Sequence[np.ndarray]) -> list[MatchResult]:
    """Full pipeline: rank split, then per-branch sorted matching.

    ``grids`` supplies one 1-d array of angles in the symbol's interval per
    branch, sized to that branch's cardinality; the branch samples at them,
    from one evaluation of the symbol, serve both the split and the
    matching.  Entry j is the match of part j against branch j's samples.
    """
    init, samples = _split(as_values(lambdas), ms, grids)
    return [sorted_match(samples.values[samples.provenance == j],
                         init.values[init.provenance == j])
            for j in range(ms.k)]
