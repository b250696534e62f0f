"""Partitioning an eigenvalue multiset of a matrix-valued symbol by branch.

Given a multiset distributed as a k-branch matrix symbol, the pipeline is:

1. ``initial_split`` rank-matches the sorted values against sorted samples of
   the concatenated branch functions, giving a partition with the requested
   cardinalities whose parts track the branches in distribution.
2. ``refine_split`` moves the stray elements (those outside their branch's
   target range) into place through chains of single-element displacements;
   the displacement graph of the current partition against a clean reference
   partition always provides the required path, so every repair step removes
   exactly one stray element without disturbing the cardinalities.
3. Per-branch sorted matching then proceeds exactly as in the scalar case.

Branch values always come from one stacked evaluation of the symbol over an
array of angles (``MatrixSymbol.branch_samples``), never angle by angle; the
branch value ranges used for repair and as default targets come from one
513-angle probe of the symbol's interval.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AUGrid, IntervalUnion, MatrixSymbol, Rect, ScalarSymbol, as_values
from .match import MatchResult, sorted_match

__all__ = [
    "Partition",
    "DisplacementGraph",
    "PartitionInvariantError",
    "concat_branches",
    "restriction",
    "restriction_indices",
    "initial_split",
    "graph_path",
    "refine_split",
    "split_and_match",
]


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

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        return tuple(self.values[self.provenance == j] for j in range(self.k))

    def cardinalities(self) -> np.ndarray:
        return np.bincount(self.provenance, minlength=self.k)


def _segment_angles(ms: MatrixSymbol, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles and branch labels of points ys of [0, 1] under the concatenation.

    Segment j covers [j/k, (j+1)/k) (half-open, last segment closed), so a
    point landing exactly on a boundary belongs to the upper segment, and
    carries branch j stretched from the symbol's interval.
    """
    a, b = ms.interval
    seg = np.minimum((ys * ms.k).astype(int), ms.k - 1)
    return a + (b - a) * (ms.k * ys - seg), seg


def _probe(ms: MatrixSymbol) -> np.ndarray:
    """Branch values at 513 equispaced angles of the interval, shape (513, k)."""
    return ms.branch_samples(np.linspace(*ms.interval, 513))


def concat_branches(ms: MatrixSymbol) -> ScalarSymbol:
    """Concatenate the resized branch functions into one symbol on [0, 1].

    Segment j (of k) of [0, 1] carries branch j stretched from the original
    interval, so the result has the same distribution as the matrix symbol.
    Declared bounds are estimated from a dense branch sampling, padded by the
    largest observed local variation.
    """

    def tilde(y):
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        outside = ~((flat >= 0.0) & (flat <= 1.0))
        if outside.any():
            raise ValueError(
                f"concatenated symbol is defined on [0, 1], got {flat[np.argmax(outside)]}"
            )
        xs, seg = _segment_angles(ms, flat)
        out = ms.branch_samples(xs)[np.arange(flat.size), seg]
        return out.reshape(y.shape) if y.ndim else float(out[0])

    probe = _probe(ms)
    pad = float(np.max(np.abs(np.diff(probe, axis=0))))
    return ScalarSymbol(
        domain=Rect(np.array([0.0]), np.array([1.0])),
        eval=tilde,
        declared_inf=float(probe.min()) - pad,
        declared_sup=float(probe.max()) + pad,
        discontinuities=tuple(j / ms.k for j in range(1, ms.k)),
    )


def restriction_indices(n: int, E: IntervalUnion) -> np.ndarray:
    """0-based indices i-1 for i in 1..n with i/(n+1) inside E.

    The count of selected indices is the number of points of the embedded
    uniform grid {i/(n+1)} falling in E.
    """
    i = np.arange(1, n + 1)
    return np.nonzero(E.contains(i / (n + 1)))[0]


def restriction(A: np.ndarray, E: IntervalUnion) -> np.ndarray:
    """Principal submatrix of A keeping rows/columns with i/(n+1) in E.

    An empty selection yields a 0 x 0 matrix, not an error.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    sel = restriction_indices(A.shape[0], E)
    return A[np.ix_(sel, sel)]


def _repair_cardinalities(labels: np.ndarray, target: np.ndarray, sorted_vals: np.ndarray,
                          branch_ranges: np.ndarray) -> np.ndarray:
    """Adjust rank labels to exact per-part counts.

    First pass moves single elements across adjacent run boundaries whenever
    that transfers from a surplus part to a deficit part; if parts without an
    adjacent run remain underfull, elements are pulled from surplus parts by
    closeness of their value to the deficit part's sampled value range.
    """
    lab = labels.copy()
    k = target.size
    counts = np.bincount(lab, minlength=k)
    moved = True
    while not np.array_equal(counts, target) and moved:
        moved = False
        for pos in range(lab.size - 1):
            u, v = lab[pos], lab[pos + 1]
            if u == v:
                continue
            if counts[u] > target[u] and counts[v] < target[v]:
                lab[pos] = v
            elif counts[v] > target[v] and counts[u] < target[u]:
                lab[pos + 1] = u
            else:
                continue
            counts = np.bincount(lab, minlength=k)
            moved = True
            break
    guard = lab.size * k + 1
    while not np.array_equal(counts, target):
        guard -= 1
        if guard < 0:
            raise RuntimeError("cardinality repair failed to terminate")
        t = int(np.nonzero(counts < target)[0][0])
        lo, hi = branch_ranges[t]
        surplus = np.nonzero(counts[lab] > target[lab])[0]
        dist = np.maximum.reduce([lo - sorted_vals[surplus], sorted_vals[surplus] - hi,
                                  np.zeros(surplus.size)])
        pick = surplus[int(np.argmin(dist))]
        counts[lab[pick]] -= 1
        lab[pick] = t
        counts[t] += 1
    return lab


def initial_split(lambdas, ms: MatrixSymbol, cards) -> Partition:
    """Rank-based first split of a multiset into per-branch parts.

    The i-th smallest value is assigned the branch of the i-th smallest
    sample of the concatenated branch functions over {i/d_n}; cardinalities
    are then repaired to exactly ``cards``.
    """
    v = as_values(lambdas)
    L = np.asarray(cards, dtype=int).reshape(-1)
    if L.size != ms.k:
        raise ValueError(f"expected {ms.k} cardinalities, got {L.size}")
    if np.any(L < 0) or L.sum() != v.size:
        raise ValueError(f"cardinalities {L.tolist()} do not sum to {v.size}")
    d_n, k = v.size, ms.k

    xs, seg = _segment_angles(ms, np.arange(1, d_n + 1) / d_n)
    samples = ms.branch_samples(xs)[np.arange(d_n), seg]

    order_samples = np.argsort(samples, kind="stable")
    rank_labels = seg[order_samples]

    order_vals = np.argsort(v, kind="stable")
    sorted_vals = v[order_vals]

    probe = _probe(ms)
    branch_ranges = np.stack([probe.min(axis=0), probe.max(axis=0)], axis=1)
    rank_labels = _repair_cardinalities(rank_labels, L, sorted_vals, branch_ranges)

    provenance = np.empty(d_n, dtype=int)
    provenance[order_vals] = rank_labels
    return Partition(values=v, provenance=provenance, k=k)


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
    target_ranges: Sequence[IntervalUnion] | None = None,
    delta: float = 1e-9,
) -> list[MatchResult]:
    """Full pipeline: initial split, displacement repair, per-branch matching.

    ``grids`` supplies one grid in the symbol's interval per branch, sized to
    that branch's cardinality.  Target ranges default to the sampled value
    range of each branch expanded by ``delta``.
    """
    if len(grids) != ms.k:
        raise ValueError(f"expected {ms.k} per-branch grids, got {len(grids)}")
    cards = reference.cardinalities()
    init = initial_split(lambdas, ms, cards)

    if target_ranges is None:
        probe = _probe(ms)
        target_ranges = [
            IntervalUnion(((float(probe[:, j].min()) - delta, float(probe[:, j].max()) + delta),))
            for j in range(ms.k)
        ]
    refined = refine_split(init, target_ranges, reference)

    results = []
    for j, grid in enumerate(grids):
        part = refined.values[refined.provenance == j]
        if grid.rect.d != 1:
            raise ValueError("branch grids are one-dimensional")
        if grid.size != part.size:
            raise ValueError(f"branch {j}: grid has {grid.size} points, part has {part.size}")
        samples = ms.branch_samples(grid.points[:, 0])[:, j]
        results.append(sorted_match(samples, part))
    return results
