import math

import numpy as np
import pytest

from eigmatch.cli import _scaled_spectrum, run_split_demo
from eigmatch.core import MatrixSymbol
from eigmatch.eig import eig_sym
from eigmatch.match import sorted_match
from eigmatch.galerkin import GridKind, assemble_KM, grid_points
from eigmatch.problems import c0_quadratic_symbol
from eigmatch.split import Partition, initial_split, split_and_match


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


@pytest.mark.parametrize("n", [20, 40, 80])
def test_split_and_match_block_family_exact(n):
    values = eig_sym(assemble_KM(n, 2, 0)[0] / n).values
    grids = [grid_points(GridKind.NO_ZERO, n), grid_points(GridKind.INTERIOR, n)]
    res = split_and_match(values, c0_quadratic_symbol(), grids)
    assert res[0].m_n <= 1e-8
    assert res[1].m_n <= 1e-8


def test_split_and_match_decoupled_diagonal_case():
    n = 16
    sym = diag_symbol(low_branch, high_branch)
    theta = grid_points(GridKind.NO_ZERO, n)
    lam = np.concatenate([low_branch(theta), high_branch(theta)])
    res = split_and_match(lam, sym, [theta, theta])
    # decoupled case: per-branch results equal the scalar matches
    assert res[0].m_n == pytest.approx(sorted_match(low_branch(theta), low_branch(theta)).m_n)
    assert res[1].m_n <= 1e-12


def test_partition_conservation_is_structural():
    values = np.array([4.0, 4.0, 1.0])
    part = Partition(values, [1, 0, 1], 2)
    merged = np.sort(np.concatenate([values[part.provenance == j] for j in range(part.k)]))
    assert np.array_equal(merged, np.sort(values))


@pytest.mark.parametrize("provenance, k, message", [
    ([0.7, 1.2], 2, "part indices must be integers"),
    ([0, 1], 2.5, "k must be an integer"),
    ([0, 1], "2", "k must be an integer"),
])
def test_partition_rejects_non_integral_parts(provenance, k, message):
    with pytest.raises(ValueError, match=message):
        Partition([1.0, 2.0], provenance, k)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_partition_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="values must be finite"):
        Partition([1.0, bad], [0, 1], 2)


def test_partition_stores_an_integer_k_and_accepts_an_empty_multiset():
    part = Partition([], [], np.int64(2))
    assert type(part.k) is int and part.cardinalities().tolist() == [0, 0]


def test_split_rejects_angles_outside_the_interval():
    values = [0.1, 0.2, 0.3, 3.0, 3.5]
    inside = grid_points(GridKind.INTERIOR, 3)
    with pytest.raises(ValueError, match=r"branch 0 angle 10\.47.* outside the symbol's interval \[0\.0, 3\.14"):
        initial_split(values, c0_quadratic_symbol(), [10 * grid_points(GridKind.NO_ZERO, 3), inside])
    with pytest.raises(ValueError, match=r"branch 1 angle nan lies outside"):
        split_and_match(values, c0_quadratic_symbol(),
                        [grid_points(GridKind.NO_ZERO, 3), [1.0, math.nan]])


def test_split_accepts_the_rounded_angle_pi():
    # 13 * pi / 13 exceeds pi by one ulp: the grid still lies in [0, pi]
    n = 13
    assert grid_points(GridKind.NO_ZERO, n)[-1] > math.pi
    assert [row[:2] for row in run_split_demo(n)] == [(1, n), (2, n - 1)]


def test_split_demo_evaluates_the_symbol_once(monkeypatch):
    calls = []
    branch_samples = MatrixSymbol.branch_samples

    def counting(self, thetas):
        calls.append(np.size(thetas))
        return branch_samples(self, thetas)

    monkeypatch.setattr(MatrixSymbol, "branch_samples", counting)
    run_split_demo(50)
    assert calls == [50 + 49]


def test_block_family_branch_ranges_stay_apart():
    # the rank split is exact because the two branches' values never
    # interleave: at every n the gap exceeds 1.3 (the branch ranges
    # [0, 4/3] and [8/3, 4] lie 4/3 apart)
    for n in range(2, 61):
        values = _scaled_spectrum("K", *assemble_KM(n, 2, 0), n).values
        assert values[n:].min() - values[:n].max() > 1.3
        grids = [grid_points(GridKind.NO_ZERO, n), grid_points(GridKind.INTERIOR, n)]
        part = initial_split(values, c0_quadratic_symbol(), grids)
        assert np.array_equal(part.provenance, np.repeat([0, 1], [n, n - 1]))
