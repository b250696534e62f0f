"""Partitioning an eigenvalue multiset of a matrix-valued symbol by branch.

Given a multiset distributed as a k-branch matrix symbol, the pipeline is:

1. ``initial_split`` samples branch j on its own grid, ranks all the samples
   together with the values, and gives each value the branch of the sample
   of the same rank.  Part j thus holds exactly as many values as branch j
   has grid points, and the parts track the branches in distribution.
2. ``refine_split`` moves the stray elements (those outside their branch's
   target range) into place through chains of single-element displacements;
   the displacement graph of the current partition against a clean reference
   partition always provides the required path, so every repair step removes
   exactly one stray element without disturbing the cardinalities.
3. Per-branch sorted matching then proceeds exactly as in the scalar case.

Branch values always come from stacked evaluations of the symbol over arrays
of angles (``MatrixSymbol.branch_samples``), never angle by angle: one over
the points of all branch grids, which serves both the initial split and the
per-branch matching, and one 513-angle probe of the symbol's interval, which
gives the target ranges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AUGrid, IntervalUnion, MatrixSymbol, as_values
from .match import MatchResult, sorted_match

__all__ = [
    "Partition",
    "DisplacementGraph",
    "PartitionInvariantError",
    "initial_split",
    "graph_path",
    "refine_split",
    "split_and_match",
]


#: Widening of each branch's sampled value range into its split target range.
_TARGET_PAD = 1e-9


class PartitionInvariantError(RuntimeError):
    """An input invariant of the displacement machinery was violated."""


@dataclass(frozen=True)
class Partition:
    """A partition of a real multiset into k parts.

    ``values`` is the underlying multiset in insertion order and
    ``provenance[e]`` the 0-based part index of element e, so the parts are
    recoverable and their disjoint union is the input by construction.
    """

    values: np.ndarray
    provenance: np.ndarray
    k: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1).copy()
        prov = np.asarray(self.provenance, dtype=int).reshape(-1).copy()
        if v.size != prov.size:
            raise ValueError("provenance must assign a part to every element")
        if self.k < 1 or np.any(prov < 0) or np.any(prov >= self.k):
            raise ValueError("part indices out of range")
        v.setflags(write=False)
        prov.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "provenance", prov)

    def cardinalities(self) -> np.ndarray:
        return np.bincount(self.provenance, minlength=self.k)


def _probe(ms: MatrixSymbol) -> np.ndarray:
    """Branch values at 513 equispaced angles of the interval, shape (513, k)."""
    return ms.branch_samples(np.linspace(*ms.interval, 513))


def _split(v: np.ndarray, ms: MatrixSymbol,
           grids: Sequence[AUGrid]) -> tuple[Partition, Partition]:
    """``initial_split`` of the values v, and the branch samples it ranked.

    The samples come back as a partition by branch, so that per-branch
    matching reuses them instead of evaluating the symbol again.
    """
    if len(grids) != ms.k:
        raise ValueError(f"expected {ms.k} per-branch grids, got {len(grids)}")
    if any(grid.rect.d != 1 for grid in grids):
        raise ValueError("branch grids are one-dimensional")
    sizes = [grid.size for grid in grids]
    if sum(sizes) != v.size:
        raise ValueError(f"branch grids hold {sum(sizes)} points, there are {v.size} values")
    branch = np.repeat(np.arange(ms.k), sizes)
    points = np.concatenate([grid.points[:, 0] for grid in grids])
    samples = ms.branch_samples(points)[np.arange(v.size), branch]
    provenance = np.empty(v.size, dtype=int)
    provenance[np.argsort(v, kind="stable")] = branch[np.argsort(samples, kind="stable")]
    return Partition(v, provenance, ms.k), Partition(samples, branch, ms.k)


def initial_split(lambdas, ms: MatrixSymbol, grids: Sequence[AUGrid]) -> Partition:
    """Rank-based first split of a multiset into per-branch parts.

    Branch j is sampled on ``grids[j]``; all the samples are ranked together
    with the values, and the i-th smallest value goes to the branch of the
    i-th smallest sample.  Part j therefore holds exactly ``grids[j].size``
    values.  Raises ValueError unless there is one 1-d grid per branch and
    the grids hold as many points in total as there are values.
    """
    return _split(as_values(lambdas), ms, grids)[0]


@dataclass(frozen=True)
class DisplacementGraph:
    """Directed graph on part indices with (i, j) present iff some element sits
    in part i of the first partition and part j of the second.

    Shared elements are matched by identity (both partitions live on the same
    multiset), so intersections count multiplicity.  When the two partitions
    have equal cardinalities, every edge (i, j) admits a directed return path
    from j to i; this is asserted at construction.
    """

    k: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_partitions(cls, first: Partition, second: Partition) -> "DisplacementGraph":
        if first.values.size != second.values.size or first.k != second.k:
            raise ValueError("partitions must share universe size and part count")
        edges = frozenset(zip(first.provenance.tolist(), second.provenance.tolist()))
        graph = cls(k=first.k, edges=edges)
        if np.array_equal(first.cardinalities(), second.cardinalities()):
            for (i, j) in edges:
                if graph.path(j, i) is None:
                    raise PartitionInvariantError(
                        f"edge ({i}, {j}) present but no return path from {j} to {i}"
                    )
        return graph

    def successors(self, node: int) -> list[int]:
        return sorted(j for (i, j) in self.edges if i == node)

    def path(self, start: int, goal: int) -> list[int] | None:
        """Shortest directed path from start to goal (BFS), or None."""
        if start == goal:
            return [start]
        prev: dict[int, int] = {start: start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self.successors(u):
                if w in prev:
                    continue
                prev[w] = u
                if w == goal:
                    out = [w]
                    while out[-1] != start:
                        out.append(prev[out[-1]])
                    return out[::-1]
                queue.append(w)
        return None


def graph_path(partA: Partition, partB: Partition, i: int, j: int) -> list[int]:
    """Directed path from j to i in the displacement graph of (partA, partB).

    Requires equal cardinalities and the edge (i, j) to be present; a missing
    path then signals a breached input invariant rather than a normal outcome.
    """
    if not np.array_equal(partA.cardinalities(), partB.cardinalities()):
        raise ValueError("partitions must have equal per-part cardinalities")
    graph = DisplacementGraph.from_partitions(partA, partB)
    if i != j and (i, j) not in graph.edges:
        raise ValueError(f"edge ({i}, {j}) is not present")
    path = graph.path(j, i)
    if path is None:
        raise PartitionInvariantError(f"no directed path from {j} to {i}")
    return path


def _bad_ids(values: np.ndarray, assignment: np.ndarray,
             targets: Sequence[IntervalUnion]) -> np.ndarray:
    bad = np.zeros(values.size, dtype=bool)
    for j, rng in enumerate(targets):
        sel = assignment == j
        bad[sel] = ~rng.contains(values[sel])
    return np.nonzero(bad)[0]


def _pick(values: np.ndarray, ids: np.ndarray) -> int:
    """Deterministic element choice: ascending value, ties by original index."""
    order = np.lexsort((ids, values[ids]))
    return int(ids[order[0]])


def refine_split(init: Partition, target_ranges: Sequence[IntervalUnion],
                 reference: Partition) -> Partition:
    """Displace stray elements until every part sits inside its target range.

    ``reference`` must be a clean partition of the same multiset with the same
    cardinalities (every reference part inside its own target range).  Each
    iteration removes one element currently outside its part's range: the
    element returns to its reference part and one element is shifted along
    each edge of a displacement path back to the deficient part, so
    cardinalities never change and the loop ends after at most one iteration
    per initially stray element.
    """
    if len(target_ranges) != init.k:
        raise ValueError(f"expected {init.k} target ranges, got {len(target_ranges)}")
    if not np.array_equal(init.values, reference.values):
        raise ValueError("partitions must be over the same multiset (same insertion order)")
    if not np.array_equal(init.cardinalities(), reference.cardinalities()):
        raise ValueError("reference cardinalities must match the initial partition")
    for j in range(init.k):
        vals_j = reference.values[reference.provenance == j]
        if vals_j.size and not np.all(target_ranges[j].contains(vals_j)):
            raise ValueError(f"reference part {j} is not contained in its target range")

    values = init.values
    assignment = init.provenance.copy()
    ref = reference.provenance

    bad = _bad_ids(values, assignment, target_ranges)
    budget = bad.size
    while bad.size:
        if budget < 0:
            raise RuntimeError("displacement loop exceeded its iteration bound")
        budget -= 1
        x = _pick(values, bad)
        j = int(assignment[x])
        p = int(ref[x])
        if p == j:  # cannot happen given the precondition; fail loudly if it does
            raise PartitionInvariantError(f"element {x} is stray inside its reference part")
        graph = DisplacementGraph.from_partitions(
            Partition(values, assignment, init.k), reference
        )
        path = graph.path(p, j)
        if path is None:
            raise PartitionInvariantError(f"no displacement path from {p} to {j}")
        movers = []
        for u, w in zip(path[:-1], path[1:]):
            ids = np.nonzero((assignment == u) & (ref == w))[0]
            if ids.size == 0:
                raise PartitionInvariantError(f"edge ({u}, {w}) vanished mid-displacement")
            movers.append((_pick(values, ids), w))
        assignment[x] = p
        for y, w in movers:
            assignment[y] = w
        bad = _bad_ids(values, assignment, target_ranges)

    return Partition(values=values, provenance=assignment, k=init.k)


def split_and_match(
    lambdas,
    ms: MatrixSymbol,
    reference: Partition,
    grids: Sequence[AUGrid],
) -> list[MatchResult]:
    """Full pipeline: initial split, displacement repair, per-branch matching.

    ``grids`` supplies one grid in the symbol's interval per branch, sized to
    that branch's cardinality; the branch samples on them serve both the
    initial split and the matching.  Each branch's target range is its
    sampled value range widened by ``_TARGET_PAD``.
    """
    init, samples = _split(as_values(lambdas), ms, grids)
    probe = _probe(ms)
    target_ranges = [
        IntervalUnion(((float(probe[:, j].min()) - _TARGET_PAD,
                        float(probe[:, j].max()) + _TARGET_PAD),))
        for j in range(ms.k)
    ]
    refined = refine_split(init, target_ranges, reference)
    return [sorted_match(samples.values[samples.provenance == j],
                         refined.values[refined.provenance == j])
            for j in range(ms.k)]
