import itertools
import math

import numpy as np
import pytest

from eigmatch.core import IntervalUnion, MatrixSymbol
from eigmatch.eig import eig_sym
from eigmatch.match import sorted_match
from eigmatch.problems import (
    c0_quadratic_matrix,
    c0_quadratic_symbol,
    truncated_uniform_pi_grid,
    uniform_pi_grid,
)
from eigmatch.split import (
    DisplacementGraph,
    Partition,
    graph_path,
    initial_split,
    refine_split,
    split_and_match,
)

from property_suites import graph_path_suite, refine_suite


def diag_symbol(g1, g2):
    return MatrixSymbol(
        interval=(0.0, math.pi),
        k=2,
        eval=lambda t: np.eye(2) * np.stack([g1(t), g2(t)], axis=-1)[:, None, :],
    )


def low_branch(t):
    return 0.5 + 0.3 * np.cos(t)


def high_branch(t):
    return 3.0 + np.cos(t)


def test_initial_split_single_branch():
    sym = MatrixSymbol(interval=(0.0, 1.0), k=1,
                       eval=lambda t: np.sin(t).reshape(-1, 1, 1))
    part = initial_split([0.3, 0.1, 0.2], sym, [3])
    assert np.array_equal(part.provenance, [0, 0, 0])


def test_initial_split_separated_branches_threshold():
    rng = np.random.default_rng(9)
    sym = diag_symbol(low_branch, high_branch)
    lam = np.concatenate([low_branch(rng.uniform(0, math.pi, 11)),
                          high_branch(rng.uniform(0, math.pi, 10))])
    lam = rng.permutation(lam)
    part = initial_split(lam, sym, [11, 10])
    # threshold oracle: everything below the midpoint gap goes to branch 0
    assert np.array_equal(part.provenance, np.where(lam < 1.5, 0, 1))


def test_initial_split_block_family_splits_at_rank():
    n = 20
    values = eig_sym(c0_quadratic_matrix(n)).values  # ascending, 2n-1 of them
    part = initial_split(values, c0_quadratic_symbol(), [n, n - 1])
    assert np.array_equal(part.provenance, np.concatenate([np.zeros(n, int), np.ones(n - 1, int)]))
    assert np.array_equal(part.cardinalities(), [n, n - 1])


def test_initial_split_validates_cardinalities():
    sym = diag_symbol(low_branch, high_branch)
    with pytest.raises(ValueError):
        initial_split([1.0, 2.0, 3.0], sym, [1, 1])


def test_graph_path_trivial_self_path():
    values = np.arange(4.0)
    A = Partition(values, [0, 0, 1, 1], 2)
    B = Partition(values, [1, 0, 0, 1], 2)
    assert graph_path(A, B, 1, 1) == [1]


def test_graph_path_two_part_example():
    # elements 1..4; first partition ({1,2},{3,4}), second ({2,3},{1,4}):
    # edge (0,1) is present via element 1 and the return path is 1 -> 0,
    # which exists via element 3 sitting in parts (1, 0)
    values = np.array([1.0, 2.0, 3.0, 4.0])
    A = Partition(values, [0, 0, 1, 1], 2)
    B = Partition(values, [1, 0, 0, 1], 2)
    graph = DisplacementGraph.from_partitions(A, B)
    assert (0, 1) in graph.edges and (1, 0) in graph.edges
    assert graph_path(A, B, 0, 1) == [1, 0]


def test_graph_path_requires_equal_cardinalities():
    values = np.arange(4.0)
    A = Partition(values, [0, 0, 0, 1], 2)
    B = Partition(values, [0, 0, 1, 1], 2)
    with pytest.raises(ValueError):
        graph_path(A, B, 0, 1)


def test_graph_path_random_suite():
    graph_path_suite(trials=1000)


def _four_element_instance():
    values = np.array([0.0, 1.0, 10.0, 11.0])
    targets = [IntervalUnion(((-0.5, 2.5),)), IntervalUnion(((9.5, 12.0),))]
    reference = Partition(values, [0, 0, 1, 1], 2)
    init = Partition(values, [0, 1, 0, 1], 2)  # elements 1 and 10 swapped
    return values, targets, reference, init


def test_refine_split_clean_input_unchanged():
    values, targets, reference, _ = _four_element_instance()
    out = refine_split(reference, targets, reference)
    assert np.array_equal(out.provenance, reference.provenance)


def test_refine_split_single_displacement():
    values, targets, reference, init = _four_element_instance()
    out = refine_split(init, targets, reference)
    # exhaustive search over all equal-cardinality partitions: exactly one
    # is clean, the threshold partition
    clean = []
    for pair in itertools.combinations(range(4), 2):
        prov = np.array([0 if i in pair else 1 for i in range(4)])
        p0 = values[prov == 0]
        p1 = values[prov == 1]
        if np.all(targets[0].contains(p0)) and np.all(targets[1].contains(p1)):
            clean.append(tuple(prov))
    assert clean == [(0, 0, 1, 1)]
    assert tuple(out.provenance) == clean[0]


def test_refine_split_validates_reference():
    values, targets, reference, init = _four_element_instance()
    bad_reference = Partition(values, [0, 1, 0, 1], 2)
    with pytest.raises(ValueError):
        refine_split(init, targets, bad_reference)


def test_refine_split_random_suite():
    refine_suite(trials=1000)


@pytest.mark.parametrize("n", [20, 40, 80])
def test_split_and_match_block_family_exact(n):
    values = eig_sym(c0_quadratic_matrix(n)).values
    reference = Partition(
        values,
        np.concatenate([np.zeros(n, int), np.ones(n - 1, int)]),
        2,
    )
    grids = [uniform_pi_grid(n), truncated_uniform_pi_grid(n)]
    res = split_and_match(values, c0_quadratic_symbol(), reference, grids)
    assert res[0].m_n <= 1e-8
    assert res[1].m_n <= 1e-8


def test_split_and_match_decoupled_diagonal_case():
    n = 16
    sym = diag_symbol(low_branch, high_branch)
    theta = np.arange(1, n + 1) * math.pi / n
    lam = np.concatenate([low_branch(theta), high_branch(theta)])
    reference = Partition(lam, np.concatenate([np.zeros(n, int), np.ones(n, int)]), 2)
    grids = [uniform_pi_grid(n), uniform_pi_grid(n)]
    res = split_and_match(lam, sym, reference, grids)
    # decoupled case: per-branch results equal the scalar matches
    assert res[0].m_n == pytest.approx(sorted_match(low_branch(theta), low_branch(theta)).m_n)
    assert res[1].m_n <= 1e-12


def test_partition_conservation_is_structural():
    values = np.array([4.0, 4.0, 1.0])
    part = Partition(values, [1, 0, 1], 2)
    merged = np.sort(np.concatenate([values[part.provenance == j] for j in range(part.k)]))
    assert np.array_equal(merged, np.sort(values))


def test_refine_split_three_cycle_displacement():
    # a 3-rotation of strays forces a displacement path of length 3:
    # the first repaired element pulls one element along each edge, fixing
    # all three strays in a single pass
    values = np.array([1.0, 1.1, 10.0, 10.1, 20.0, 20.1])
    targets = [
        IntervalUnion(((0.0, 2.0),)),
        IntervalUnion(((9.0, 12.0),)),
        IntervalUnion(((19.0, 22.0),)),
    ]
    reference = Partition(values, [0, 0, 1, 1, 2, 2], 3)
    # rotate one element of each part: 1.1 -> part 1, 10.1 -> part 2, 20.1 -> part 0
    init = Partition(values, [0, 1, 1, 2, 2, 0], 3)
    out = refine_split(init, targets, reference)
    assert np.array_equal(out.provenance, reference.provenance)


def test_cardinality_repair_fallback_without_adjacent_run():
    # parts 0 and 2 form the only runs; part 1's deficit cannot be fixed by
    # an adjacent-run boundary move, so the value-based fallback pulls the
    # surplus element closest to part 1's sampled range
    from eigmatch.split import _repair_cardinalities

    labels = np.array([0, 0, 0, 2, 2])
    target = np.array([2, 1, 2])
    sorted_vals = np.array([1.0, 2.0, 3.0, 10.0, 11.0])
    branch_ranges = np.array([[0.0, 4.0], [5.0, 8.0], [9.0, 12.0]])
    out = _repair_cardinalities(labels, target, sorted_vals, branch_ranges)
    assert np.array_equal(out, [0, 0, 1, 2, 2])
    assert np.array_equal(np.bincount(out, minlength=3), target)


def test_split_and_match_probes_the_symbol_once(monkeypatch):
    import eigmatch.split
    from eigmatch.cli import run_split_demo

    calls = []
    probe = eigmatch.split._probe

    def counting(ms):
        calls.append(ms)
        return probe(ms)

    monkeypatch.setattr(eigmatch.split, "_probe", counting)
    run_split_demo(50)
    assert len(calls) == 1
