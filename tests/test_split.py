import itertools
import math

import numpy as np
import pytest

from eigmatch.core import IntervalUnion, MatrixSymbol
from eigmatch.eig import eig_sym
from eigmatch.match import sorted_match
from eigmatch.galerkin import GridKind, assemble_KM, grid_points
from eigmatch.problems import c0_quadratic_symbol
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
    part = initial_split([0.3, 0.1, 0.2], sym, [np.arange(1, 4) / 3.0])
    assert np.array_equal(part.provenance, [0, 0, 0])


def test_initial_split_accepts_a_list_of_angles():
    sym = diag_symbol(low_branch, high_branch)
    angles = grid_points(GridKind.NO_ZERO, 4)
    lam = np.concatenate([low_branch(angles), high_branch(angles)])[::-1]
    part = initial_split(lam, sym, [angles.tolist(), list(angles)])
    assert np.array_equal(part.provenance, initial_split(lam, sym, [angles, angles]).provenance)
    assert np.array_equal(part.provenance, np.repeat([1, 0], 4))


def test_initial_split_separated_branches_threshold():
    rng = np.random.default_rng(9)
    sym = diag_symbol(low_branch, high_branch)
    lam = np.concatenate([low_branch(rng.uniform(0, math.pi, 11)),
                          high_branch(rng.uniform(0, math.pi, 10))])
    lam = rng.permutation(lam)
    part = initial_split(lam, sym, [grid_points(GridKind.NO_ZERO, 11),
                                    grid_points(GridKind.NO_ZERO, 10)])
    # threshold oracle: everything below the midpoint gap goes to branch 0
    assert np.array_equal(part.provenance, np.where(lam < 1.5, 0, 1))


def test_initial_split_block_family_splits_at_rank():
    n = 20
    values = eig_sym(assemble_KM(n, 2, 0)[0] / n).values  # ascending, 2n-1 of them
    grids = [grid_points(GridKind.NO_ZERO, n), grid_points(GridKind.INTERIOR, n)]
    part = initial_split(values, c0_quadratic_symbol(), grids)
    assert np.array_equal(part.provenance, np.concatenate([np.zeros(n, int), np.ones(n - 1, int)]))
    assert np.array_equal(part.cardinalities(), [n, n - 1])


def test_initial_split_validates_cardinalities():
    # the grids carry the cardinalities: one 1-d array of angles per branch,
    # as many angles in total as there are values
    sym = diag_symbol(low_branch, high_branch)
    square = np.full((1, 2), math.pi / 2)
    with pytest.raises(ValueError, match="expected 2 per-branch grids, got 1"):
        initial_split([1.0, 2.0, 3.0], sym, [grid_points(GridKind.NO_ZERO, 3)])
    with pytest.raises(ValueError, match="one-dimensional"):
        initial_split([1.0, 2.0, 3.0], sym, [grid_points(GridKind.NO_ZERO, 1), square])
    with pytest.raises(ValueError, match="hold 4 points, there are 3 values"):
        initial_split([1.0, 2.0, 3.0], sym, [grid_points(GridKind.NO_ZERO, 2)] * 2)


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


def test_refine_split_displaces_at_most_once_per_initial_stray(monkeypatch):
    # a _bad_ids that puts every element back where it started keeps both
    # strays stray forever: the loop must stop after two displacements
    import eigmatch.split as split

    values, targets, reference, init = _four_element_instance()
    bad_ids = split._bad_ids
    calls = []

    def restoring(values, assignment, targets):
        calls.append(1)
        assignment[:] = init.provenance
        return bad_ids(values, assignment, targets)

    monkeypatch.setattr(split, "_bad_ids", restoring)
    with pytest.raises(RuntimeError, match="iteration bound"):
        refine_split(init, targets, reference)
    assert len(calls) - 1 == 2  # one call before the loop, one after each displacement


def test_refine_split_validates_reference():
    values, targets, reference, init = _four_element_instance()
    bad_reference = Partition(values, [0, 1, 0, 1], 2)
    with pytest.raises(ValueError):
        refine_split(init, targets, bad_reference)


def test_refine_split_random_suite():
    refine_suite(trials=1000)


@pytest.mark.parametrize("n", [20, 40, 80])
def test_split_and_match_block_family_exact(n):
    values = eig_sym(assemble_KM(n, 2, 0)[0] / n).values
    reference = Partition(
        values,
        np.concatenate([np.zeros(n, int), np.ones(n - 1, int)]),
        2,
    )
    grids = [grid_points(GridKind.NO_ZERO, n), grid_points(GridKind.INTERIOR, n)]
    res = split_and_match(values, c0_quadratic_symbol(), reference, grids)
    assert res[0].m_n <= 1e-8
    assert res[1].m_n <= 1e-8


def test_split_and_match_decoupled_diagonal_case():
    n = 16
    sym = diag_symbol(low_branch, high_branch)
    theta = grid_points(GridKind.NO_ZERO, n)
    lam = np.concatenate([low_branch(theta), high_branch(theta)])
    reference = Partition(lam, np.concatenate([np.zeros(n, int), np.ones(n, int)]), 2)
    grids = [theta, theta]
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


def test_split_and_match_repairs_stray_elements(monkeypatch):
    # branches cos t and 1/2 + cos t overlap on [-1/2, 1]; the first part's
    # values are squeezed towards -1, so the rank split hands one value below
    # -1/2 to the second branch, whose range starts at -1/2
    import eigmatch.split

    n = 8
    sym = diag_symbol(np.cos, lambda t: 0.5 + np.cos(t))
    ranges = [IntervalUnion(((-1.0 - 1e-9, 1.0 + 1e-9),)),
              IntervalUnion(((-0.5 - 1e-9, 1.5 + 1e-9),))]
    theta = grid_points(GridKind.NO_ZERO, n)
    lam = np.concatenate([-1.0 + 0.5 * (1.0 + np.cos(theta)), 0.5 + np.cos(theta)])
    reference = Partition(lam, np.repeat([0, 1], n), 2)
    grids = [theta, theta]

    init = initial_split(lam, sym, grids)
    assert not all(np.all(rng.contains(lam[init.provenance == j])) for j, rng in enumerate(ranges))

    parts = []

    def recording(samples, values):
        parts.append(np.asarray(values))
        return sorted_match(samples, values)

    monkeypatch.setattr(eigmatch.split, "sorted_match", recording)
    split_and_match(lam, sym, reference, grids)
    assert [part.size for part in parts] == reference.cardinalities().tolist()
    assert all(np.all(rng.contains(part)) for rng, part in zip(ranges, parts))
    assert np.array_equal(np.sort(np.concatenate(parts)), np.sort(lam))


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
