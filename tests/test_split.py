import math

import numpy as np
import pytest

from eigmatch.cli import _scaled_spectrum, run_split_demo
from eigmatch.core import MatrixSymbol
from eigmatch.eig import eig_sym
from eigmatch.match import branch_match, sorted_match
from eigmatch.galerkin import GridKind, assemble_KM, grid_points
from eigmatch.problems import c0_quadratic_symbol


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


def provenance(lambdas, ms, grids):
    """The branch of each value's sorted-match partner, in the values' order."""
    result, labels = branch_match(lambdas, ms, grids)
    prov = np.empty(labels.size, dtype=int)
    prov[result.tau] = labels
    return prov


def branch_m_n(result, labels, j):
    return np.max(np.abs(result.paired_diffs[labels == j]))


def test_branch_match_single_branch():
    sym = MatrixSymbol(interval=(0.0, 1.0), k=1,
                       eval=lambda t: np.sin(t).reshape(-1, 1, 1))
    assert np.array_equal(provenance([0.3, 0.1, 0.2], sym, [np.arange(1, 4) / 3.0]), [0, 0, 0])


def test_branch_match_accepts_a_list_of_angles():
    sym = diag_symbol(low_branch, high_branch)
    angles = grid_points(GridKind.NO_ZERO, 4)
    lam = np.concatenate([low_branch(angles), high_branch(angles)])[::-1]
    prov = provenance(lam, sym, [angles.tolist(), list(angles)])
    assert np.array_equal(prov, provenance(lam, sym, [angles, angles]))
    assert np.array_equal(prov, np.repeat([1, 0], 4))


def test_branch_match_separated_branches_threshold():
    rng = np.random.default_rng(9)
    sym = diag_symbol(low_branch, high_branch)
    lam = np.concatenate([low_branch(rng.uniform(0, math.pi, 11)),
                          high_branch(rng.uniform(0, math.pi, 10))])
    lam = rng.permutation(lam)
    prov = provenance(lam, sym, [grid_points(GridKind.NO_ZERO, 11),
                                 grid_points(GridKind.NO_ZERO, 10)])
    # threshold oracle: everything below the midpoint gap goes to branch 0
    assert np.array_equal(prov, np.where(lam < 1.5, 0, 1))


def test_branch_match_block_family_splits_at_rank():
    n = 20
    values = eig_sym(assemble_KM(n, 2, 0)[0] / n).values  # ascending, 2n-1 of them
    grids = [grid_points(GridKind.NO_ZERO, n), grid_points(GridKind.INTERIOR, n)]
    prov = provenance(values, c0_quadratic_symbol(), grids)
    assert np.array_equal(prov, np.concatenate([np.zeros(n, int), np.ones(n - 1, int)]))
    assert np.array_equal(np.bincount(prov, minlength=2), [n, n - 1])


def test_branch_match_validates_cardinalities():
    # the grids carry the cardinalities: one 1-d array of angles per branch,
    # as many angles in total as there are values
    sym = diag_symbol(low_branch, high_branch)
    square = np.full((1, 2), math.pi / 2)
    with pytest.raises(ValueError, match="expected 2 per-branch grids, got 1"):
        branch_match([1.0, 2.0, 3.0], sym, [grid_points(GridKind.NO_ZERO, 3)])
    with pytest.raises(ValueError, match="one-dimensional"):
        branch_match([1.0, 2.0, 3.0], sym, [grid_points(GridKind.NO_ZERO, 1), square])
    with pytest.raises(ValueError, match="hold 4 points, there are 3 values"):
        branch_match([1.0, 2.0, 3.0], sym, [grid_points(GridKind.NO_ZERO, 2)] * 2)


@pytest.mark.parametrize("n", [20, 40, 80])
def test_branch_match_block_family_exact(n):
    values = eig_sym(assemble_KM(n, 2, 0)[0] / n).values
    grids = [grid_points(GridKind.NO_ZERO, n), grid_points(GridKind.INTERIOR, n)]
    result, labels = branch_match(values, c0_quadratic_symbol(), grids)
    assert branch_m_n(result, labels, 0) <= 1e-8
    assert branch_m_n(result, labels, 1) <= 1e-8


def test_branch_match_decoupled_diagonal_case():
    n = 16
    sym = diag_symbol(low_branch, high_branch)
    theta = grid_points(GridKind.NO_ZERO, n)
    lam = np.concatenate([low_branch(theta), high_branch(theta)])
    result, labels = branch_match(lam, sym, [theta, theta])
    # decoupled case: per-branch results equal the scalar matches
    assert branch_m_n(result, labels, 0) == pytest.approx(
        sorted_match(low_branch(theta), low_branch(theta)).m_n)
    assert branch_m_n(result, labels, 1) <= 1e-12


def test_split_rejects_angles_outside_the_interval():
    values = [0.1, 0.2, 0.3, 3.0, 3.5]
    inside = grid_points(GridKind.INTERIOR, 3)
    # the first angle outside [0, pi] is branch 0's first, 10 * pi / 3
    outside = r"^angle 10\.47.* outside the symbol's interval \[0\.0, 3\.14"
    with pytest.raises(ValueError, match=outside):
        branch_match(values, c0_quadratic_symbol(), [10 * grid_points(GridKind.NO_ZERO, 3), inside])
    with pytest.raises(ValueError, match=r"^angle nan lies outside"):
        branch_match(values, c0_quadratic_symbol(),
                     [grid_points(GridKind.NO_ZERO, 3), [1.0, math.nan]])


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
        assert np.array_equal(provenance(values, c0_quadratic_symbol(), grids),
                              np.repeat([0, 1], [n, n - 1]))
