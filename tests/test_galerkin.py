import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from eigmatch.eig import Spectrum, eig_gen_sym_def, eig_sym
from eigmatch.galerkin import (
    GridKind,
    alpha,
    assemble_KM,
    assemble_KM_sweep,
    fd_matrix,
    grid_assign_L,
    grid_assign_M,
    grid_points,
    grid_size,
    iga_2d_matrix,
    infer_grid_assignment,
    reference_blocks,
    seq_a,
    symbol_e_branches,
    symbol_f,
    symbol_h,
    verify_eig_formula,
)
# the oracles use the raw basis
from eigmatch.galerkin import _full_rows, _open_knots, _reference_values
from eigmatch.core import make_uniform_grid
from eigmatch.match import sorted_match
from eigmatch.problems import (
    c0_quadratic_symbol,
    cosine_eigs_exact,
    eigen_angle_grid,
    iga2d_symbol,
)


# ---------------------------------------------------------------------------
# finite differences and the tensor-product family
# ---------------------------------------------------------------------------

def test_fd_matrix_half_grid_entries():
    a = lambda x: np.exp(-np.asarray(x, dtype=float))
    n = 7
    diag, off = fd_matrix(a, n)
    at = lambda t: math.exp(-t / (n + 1))
    assert diag[0] == pytest.approx(at(0.5) + at(1.5), abs=1e-15)
    assert diag[-1] == pytest.approx(at(n - 0.5) + at(n + 0.5), abs=1e-15)
    assert off[2] == pytest.approx(-at(3.5), abs=1e-15)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_iga_2d_eigenvalues_are_symbol_samples(n):
    spec = eig_sym(iga_2d_matrix(n))
    symbol = iga2d_symbol()
    samples = symbol.sample(make_uniform_grid(symbol.domain, (n, n)).points)
    assert sorted_match(samples, spec.values).m_n <= 1e-8
    assert spec.values[0] >= -1e-9
    assert spec.values[-1] <= 1.5 + 1e-9


def test_iga_2d_smallest_eigenvalue_vanishes():
    # the symbol vanishes at the origin, so the bottom eigenvalue decays
    # like 2*pi^2/n^2
    smallest = [eig_sym(iga_2d_matrix(n)).values[0] for n in (5, 10, 20)]
    assert smallest[0] > smallest[1] > smallest[2] > 0
    assert smallest[2] <= 0.05


def test_iga_2d_rejects_tiny_n():
    with pytest.raises(ValueError, match="n must be >= 2"):
        iga_2d_matrix(1)


# ---------------------------------------------------------------------------
# B-spline basis
# ---------------------------------------------------------------------------

def _basis_rows(n, p, k, xs, deriv=False):
    """Every full-basis function (boundary included) at each point, shape (N, nf)."""
    return _full_rows(_open_knots(n, p, k), p, np.asarray(xs, dtype=float), deriv)


@pytest.mark.parametrize("p,k", [(1, 0), (2, 0), (3, 1), (5, 1), (8, 0), (8, 1)])
def test_partition_of_unity(p, k):
    rng = np.random.default_rng(10)
    rows = _basis_rows(6, p, k, rng.uniform(0, 1, size=100))
    assert rows.shape[1] == 6 * (p - k) + k + 1
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12


def test_degree_one_hats():
    n = 8
    rows = _basis_rows(n, 1, 0, np.arange(n + 1) / n)
    assert np.max(np.abs(rows - np.eye(n + 1))) <= 1e-14


def test_derivative_against_central_differences():
    n, p, k = 5, 4, 1
    h = 1e-6
    rng = np.random.default_rng(12)
    xs = rng.uniform(0.05, 0.95, size=40)
    knots = np.unique(_open_knots(n, p, k))
    xs = xs[np.min(np.abs(xs[:, None] - knots[None, :]), axis=1) > 1e-3]
    fd = (_basis_rows(n, p, k, xs + h) - _basis_rows(n, p, k, xs - h)) / (2 * h)
    assert np.allclose(_basis_rows(n, p, k, xs, deriv=True), fd, rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# reference blocks and block symbols
# ---------------------------------------------------------------------------

def test_quadratic_c0_symbols_match_worksheet():
    rng = np.random.default_rng(13)
    for theta in rng.uniform(0, math.pi, size=20):
        e = np.exp(1j * theta)
        f_expected = np.array(
            [[4 / 3, -2 / 3 - 2 * e / 3], [-2 / 3 - 2 * np.conj(e) / 3, 8 / 3 - 4 * np.cos(theta) / 3]]
        )
        h_expected = np.array(
            [[2 / 15, 1 / 10 + e / 10], [1 / 10 + np.conj(e) / 10, 2 / 5 + np.cos(theta) / 15]]
        )
        assert np.max(np.abs(symbol_f(2, 0, theta) - f_expected)) <= 1e-12
        assert np.max(np.abs(symbol_h(2, 0, theta) - h_expected)) <= 1e-12
        # the split's matrix symbol is the same stiffness symbol
        assert np.max(np.abs(c0_quadratic_symbol().matrices([theta])[0] - f_expected)) <= 1e-14


def test_quadratic_c0_symbol_at_pi():
    F = symbol_f(2, 0, math.pi)
    assert np.max(np.abs(F - np.diag([4 / 3, 4.0]))) <= 1e-12
    assert np.allclose(np.linalg.eigvalsh(F), [4 / 3, 4.0], atol=1e-12)


def test_linear_symbols_closed_form():
    theta = 0.897
    assert symbol_f(1, 0, theta)[0, 0] == pytest.approx(2 - 2 * math.cos(theta), abs=1e-13)
    assert symbol_h(1, 0, theta)[0, 0] == pytest.approx((4 + 2 * math.cos(theta)) / 6, abs=1e-13)


def _blocks_oracle(p, k, nodes):
    """Reference blocks recomputed with an independent node count."""
    eta = math.ceil((p + 1) / (p - k))
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    K = [np.zeros((p - k, p - k)) for _ in range(eta)]
    M = [np.zeros((p - k, p - k)) for _ in range(eta)]
    for ell in range(eta):
        for span in range(ell, eta):
            ts = span + 0.5 + 0.5 * gx
            w = 0.5 * gw
            V = _reference_values(p, k, ts, deriv=False)
            D = _reference_values(p, k, ts, deriv=True)
            Vs = _reference_values(p, k, ts - ell, deriv=False)
            Ds = _reference_values(p, k, ts - ell, deriv=True)
            K[ell] += np.einsum("q,qs,qr->rs", w, D, Ds)
            M[ell] += np.einsum("q,qs,qr->rs", w, V, Vs)
    return K, M


@pytest.mark.parametrize("p,k", [(1, 0), (2, 0), (3, 1), (4, 0)])
def test_reference_blocks_doubled_node_oracle(p, k):
    rb = reference_blocks(p, k)
    Ko, Mo = _blocks_oracle(p, k, 2 * (p + 1))
    for ell in range(rb.eta):
        assert np.max(np.abs(rb.Kblocks[ell] - Ko[ell])) <= 1e-12
        assert np.max(np.abs(rb.Mblocks[ell] - Mo[ell])) <= 1e-12


def test_reference_block_definiteness():
    for p, k in [(2, 0), (3, 0), (3, 1), (6, 1)]:
        rb = reference_blocks(p, k)
        assert np.min(np.linalg.eigvalsh(rb.Mblocks[0])) > 0
        assert np.min(np.linalg.eigvalsh(rb.Kblocks[0])) > -1e-13


@pytest.mark.parametrize("p,k", [(1, 0), (2, 0), (4, 1), (8, 0), (8, 1)])
def test_batched_symbols_equal_stacked_scalar_results(p, k):
    thetas = np.linspace(0.0, math.pi, 17)
    for func in (symbol_f, symbol_h, symbol_e_branches):
        batched = func(p, k, thetas)
        stacked = np.stack([func(p, k, float(t)) for t in thetas])
        assert batched.shape == stacked.shape
        assert np.max(np.abs(batched - stacked)) <= 1e-13 * max(1.0, np.max(np.abs(stacked)))
    assert symbol_f(p, k, 0.3).shape == (p - k, p - k)
    assert symbol_e_branches(p, k, 0.3).shape == (p - k,)


def test_batched_pencil_branches_match_scipy_generalized_solver():
    thetas = np.linspace(0.0, math.pi, 21)
    for p, k in [(3, 0), (6, 1), (8, 0)]:
        batched = symbol_e_branches(p, k, thetas)
        ref = np.stack([scipy.linalg.eigh(symbol_f(p, k, t), symbol_h(p, k, t), eigvals_only=True)
                        for t in thetas])
        assert np.max(np.abs(batched - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pencil_branches_reject_indefinite_mass(monkeypatch):
    import eigmatch.galerkin as galerkin

    def negative_mass(p, k, theta):
        return np.broadcast_to(-np.eye(p - k, dtype=complex), np.shape(theta) + (p - k, p - k))

    monkeypatch.setattr(galerkin, "symbol_h", negative_mass)
    with pytest.raises(RuntimeError, match="not positive definite"):
        galerkin.symbol_e_branches(3, 0, np.linspace(0.0, math.pi, 4))


@pytest.mark.parametrize("p,k", [(2, 0), (4, 1), (8, 0), (8, 1)])
def test_symbols_hermitian_with_ascending_branches(p, k):
    rng = np.random.default_rng(14)
    for theta in rng.uniform(0, math.pi, size=100):
        F = symbol_f(p, k, theta)
        H = symbol_h(p, k, theta)
        assert np.max(np.abs(F - F.conj().T)) <= 1e-12
        assert np.max(np.abs(H - H.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(H)) > 0
        branches = symbol_e_branches(p, k, theta)
        assert np.all(np.diff(branches) >= -1e-12)
        assert np.all(branches >= -1e-12)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _symmetric_banded(diagonals):
    """Symmetric matrix with the given main diagonal and upper diagonals 1, 2, ..."""
    A = np.diag(diagonals[0])
    for offset, band in enumerate(diagonals[1:], start=1):
        A = A + np.diag(band, offset) + np.diag(band, -offset)
    return A


@pytest.mark.parametrize("n", [3, 7, 12])
def test_assembly_matches_quadratic_c0_pattern(n):
    # rows alternate the (4, -2)/3 and (-2, 8, -2, -2)/3 patterns
    K, _ = assemble_KM(n, 2, 0)
    idx = np.arange(2 * n - 1)
    expected = _symmetric_banded([np.where(idx % 2 == 0, 4.0, 8.0) / 3.0,
                                  np.full(2 * n - 2, -2.0 / 3.0),
                                  np.where(idx[:-2] % 2 == 1, -2.0 / 3.0, 0.0)])
    assert np.max(np.abs(K / n - expected)) <= 1e-12


def _quadratic_c1_stencil(n, boundary, interior):
    """Pentadiagonal n x n matrix: interior rows (d2, d1, d0, d1, d2), end rows (b0, b1, d2)."""
    main = np.full(n, float(interior[0]))
    main[[0, -1]] = boundary[0]
    first = np.full(n - 1, float(interior[1]))
    first[[0, -1]] = boundary[1]
    return _symmetric_banded([main, first, np.full(n - 2, float(interior[2]))])


@pytest.mark.parametrize("n", [3, 7, 12])
def test_assembly_matches_quadratic_c1_stencils(n):
    K, M = assemble_KM(n, 2, 1)
    K_expected = _quadratic_c1_stencil(n, (8.0, -1.0), (6.0, -2.0, -1.0)) / 6.0
    M_expected = _quadratic_c1_stencil(n, (40.0, 25.0), (66.0, 26.0, 1.0)) / 120.0
    assert np.max(np.abs(K / n - K_expected)) <= 1e-12
    assert np.max(np.abs(n * M - M_expected)) <= 1e-12


def test_assembly_linear_closed_forms():
    n = 6
    K, M = assemble_KM(n, 1, 0)
    Kexp = n * (np.diag(np.full(n - 1, 2.0)) + np.diag(np.full(n - 2, -1.0), 1)
                + np.diag(np.full(n - 2, -1.0), -1))
    Mexp = (np.diag(np.full(n - 1, 4.0)) + np.diag(np.full(n - 2, 1.0), 1)
            + np.diag(np.full(n - 2, 1.0), -1)) / (6 * n)
    assert np.max(np.abs(K - Kexp)) <= 1e-12
    assert np.max(np.abs(M - Mexp)) <= 1e-14


@pytest.mark.parametrize("p,k,n", [(2, 0, 5), (5, 0, 8), (8, 1, 20), (4, 1, 2)])
def test_assembly_symmetric_positive_definite(p, k, n):
    K, M = assemble_KM(n, p, k)
    assert K.shape == (n * (p - k) + k - 1,) * 2
    assert np.max(np.abs(K - K.T)) <= 1e-12
    assert np.max(np.abs(M - M.T)) <= 1e-14
    np.linalg.cholesky(M)
    np.linalg.cholesky(K)


def _assembly_oracle(n, p, k):
    """K and M from a per-node loop over the full basis rows at each node."""
    t = _open_knots(n, p, k)
    dim_full = t.size - p - 1
    dim = dim_full - 2
    gx, gw = np.polynomial.legendre.leggauss(p + 1)
    K = np.zeros((dim, dim))
    M = np.zeros((dim, dim))
    for e in range(n):
        for x, w in zip((e + 0.5 + 0.5 * gx) / n, 0.5 * gw / n):
            # kept functions whose support [t_i, t_{i+p+1}] holds x
            alive = [i for i in range(1, dim_full - 1) if t[i] < x < t[i + p + 1]]
            v = _basis_rows(n, p, k, [x])[0, alive]
            d = _basis_rows(n, p, k, [x], deriv=True)[0, alive]
            rows = np.array(alive) - 1
            K[np.ix_(rows, rows)] += w * np.outer(d, d)
            M[np.ix_(rows, rows)] += w * np.outer(v, v)
    return K, M


@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("p,k", [(p, k) for p in range(1, 9) for k in (0, 1) if k <= p - 1])
def test_assembly_matches_per_node_oracle(p, k, n):
    K, M = assemble_KM(n, p, k)
    Ko, Mo = _assembly_oracle(n, p, k)
    assert np.max(np.abs(K - Ko)) <= 1e-13 * np.max(np.abs(Ko))
    assert np.max(np.abs(M - Mo)) <= 1e-13 * np.max(np.abs(Mo))


def test_assembly_rejects_single_element():
    with pytest.raises(ValueError):
        assemble_KM(1, 2, 0)


@pytest.mark.parametrize("p,k", [(0, 0), (3, 3), (3, -1)])
def test_assembly_rejects_bad_degree_or_smoothness(p, k):
    with pytest.raises(ValueError, match=f"need p >= 1 and 0 <= k <= p-1, got p={p}, k={k}"):
        assemble_KM(5, p, k)


_SWEEP_PK = [(p, k) for p in range(1, 9) for k in (0, 1) if k <= p - 1]


@pytest.mark.parametrize("p,k", _SWEEP_PK)
def test_assembly_sweep_equals_per_n_assembly_bit_for_bit(p, k):
    ns = list(range(2, 21))
    pairs = list(assemble_KM_sweep(ns, p, k))
    assert len(pairs) == len(ns)
    for n, (K, M) in zip(ns, pairs):
        K1, M1 = assemble_KM(n, p, k)
        assert np.array_equal(K, K1) and np.array_equal(M, M1)


@pytest.mark.parametrize("p,k", _SWEEP_PK)
def test_split_batched_branch_tables_equal_per_n_tables_bit_for_bit(p, k):
    ns = list(range(2, 21))
    theta = np.concatenate([grid_points(GridKind.FULL, n) for n in ns])
    bounds = np.cumsum([n + 1 for n in ns])[:-1]
    tables = {
        "h": lambda t: np.linalg.eigvalsh(symbol_h(p, k, t)),
        "f": lambda t: np.linalg.eigvalsh(symbol_f(p, k, t)),
        "e": lambda t: symbol_e_branches(p, k, t),
    }
    for table in tables.values():
        for n, part in zip(ns, np.split(table(theta), bounds)):
            assert np.array_equal(part, table(grid_points(GridKind.FULL, n)))


@pytest.mark.parametrize("ns,p,k", [([1], 2, 0), ([4], 0, 0), ([5, 1, 7], 3, 1), ([6], 3, 3)])
def test_assembly_sweep_rejects_bad_arguments_at_the_call(ns, p, k):
    with pytest.raises(ValueError):
        assemble_KM_sweep(ns, p, k)  # no next(): the generator is never started


def test_assembly_sweep_is_lazy_and_accepts_no_n():
    assert list(assemble_KM_sweep([], 3, 1)) == []
    sweep = assemble_KM_sweep([2, 3], 2, 0)
    K, M = next(sweep)
    assert K.shape == M.shape == (3, 3)
    assert next(sweep)[0].shape == (5, 5)
    assert next(sweep, None) is None


@pytest.mark.parametrize("p,k", [(2, 0), (3, 0), (3, 1), (5, 1), (6, 0), (6, 1)])
def test_interior_rows_follow_block_pattern(p, k):
    rb = reference_blocks(p, k)
    eta, b = rb.eta, p - k
    n = 2 * eta + 2
    K, M = assemble_KM(n, p, k)
    dim = n * b + k - 1

    def predicted(blocks, j, jp):
        m, r = divmod(j - k, b)
        mp, rp = divmod(jp - k, b)
        ell = m - mp
        if ell >= 0:
            return blocks[ell][r, rp] if ell < eta else 0.0
        return blocks[-ell][rp, r] if -ell < eta else 0.0

    lo, hi = k + eta * b, min(k + (n - eta) * b - 1, dim)
    for j in range(lo, hi):
        for jp in range(lo, hi):
            assert K[j, jp] / n == pytest.approx(predicted(rb.Kblocks, j, jp), abs=1e-12)
            assert n * M[j, jp] == pytest.approx(predicted(rb.Mblocks, j, jp), abs=1e-12)


@pytest.mark.parametrize("p,k,n", [(2, 0, 10), (3, 1, 8), (5, 0, 6)])
def test_scaled_stiffness_spectrum_inside_branch_range(p, k, n):
    K, _ = assemble_KM(n, p, k)
    spec = eig_sym(K / n)
    table = np.array([np.linalg.eigvalsh(symbol_f(p, k, t))
                      for t in np.linspace(0, math.pi, 513)])
    assert spec.values[0] >= table.min() - 1e-9
    assert spec.values[-1] <= table.max() + 1e-9


# ---------------------------------------------------------------------------
# integer sequence and grids
# ---------------------------------------------------------------------------

def test_seq_a_values():
    assert [seq_a(m) for m in (1, 2, 3)] == [3, 6, 7]
    with pytest.raises(ValueError):
        seq_a(0)


def test_alpha_values_and_growth():
    assert alpha(3) == 1
    assert [alpha(p) for p in (5, 6, 11, 12, 18, 19)] == [1, 2, 2, 3, 3, 4]
    assert all(p - alpha(p) >= 2 for p in range(3, 101))
    assert all(alpha(p + 1) >= alpha(p) for p in range(3, 100))
    with pytest.raises(ValueError):
        alpha(2)


def test_grid_points_examples():
    assert np.allclose(grid_points(GridKind.FULL, 2), [0.0, math.pi / 2, math.pi])
    assert np.allclose(grid_points(GridKind.INTERIOR, 2), [math.pi / 2])
    for kind, count in [(GridKind.FULL, 9), (GridKind.NO_ZERO, 8),
                        (GridKind.NO_PI, 8), (GridKind.INTERIOR, 7)]:
        assert grid_points(kind, 8).size == count == grid_size(kind, 8)


@pytest.mark.parametrize("n", [1, 2, 7, 1023, 1024])
def test_pi_grids_are_grid_points_bit_for_bit(n):
    # every angle grid {i*pi/m} of the package is a grid_points kind, to the bit
    angles = np.arange(1, n + 1) * math.pi / (n + 1)
    assert np.array_equal(eigen_angle_grid(n).points[:, 0], angles)
    assert np.array_equal(cosine_eigs_exact(2.0, -2.0, n), 2.0 - 2.0 * np.cos(angles))
    assert np.array_equal(grid_points(GridKind.NO_ZERO, n), np.arange(1, n + 1) * math.pi / n)
    if n >= 2:
        assert np.array_equal(grid_points(GridKind.INTERIOR, n), np.arange(1, n) * math.pi / n)


def test_full_grid_runs_from_zero_to_exactly_pi():
    # n * pi / n alone rounds above pi for n = 13 and below it for n = 11
    for n in range(1, 10**4 + 1):
        theta = grid_points(GridKind.FULL, n)
        assert theta[0] == 0.0 and theta[-1] == math.pi, n


@pytest.mark.parametrize("kind", list(GridKind))
@pytest.mark.parametrize("n", [0, -3])
def test_grid_size_rejects_n_below_one_like_grid_points(kind, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        grid_points(kind, n)
    with pytest.raises(ValueError, match="n must be >= 1"):
        grid_size(kind, n)


def test_grid_assignment_examples():
    assert grid_assign_M(3, 0, 1) is GridKind.NO_PI  # p+j even, j != p
    assert grid_assign_M(2, 1, 1) is GridKind.NO_ZERO
    assert grid_assign_L(2, 0, 2) is GridKind.INTERIOR  # p+j even
    with pytest.raises(ValueError):
        grid_assign_M(3, 0, 4)
    with pytest.raises(ValueError):
        grid_assign_L(3, 2, 1)


@pytest.mark.parametrize("family", ["M", "L"])
@pytest.mark.parametrize("n", [3, 10, 50])
def test_assigned_grid_sizes_sum_to_dimension(family, n):
    assign = grid_assign_M if family == "M" else grid_assign_L
    for p in range(1, 21):
        for k in (0, 1):
            if k > p - 1:
                continue
            total = sum(grid_size(assign(p, k, j), n) for j in range(1, p - k + 1))
            assert total == n * (p - k) + k - 1


# ---------------------------------------------------------------------------
# verification and inference
# ---------------------------------------------------------------------------

def _mass_spectrum_and_branches(p, k, n):
    K, M = assemble_KM(n, p, k)
    return eig_sym(n * M), np.linalg.eigvalsh(symbol_h(p, k, grid_points(GridKind.FULL, n)))


def test_verify_mass_family_small_case():
    p, k, n = 3, 0, 7
    spectrum, branches = _mass_spectrum_and_branches(p, k, n)
    assignment = [grid_assign_M(p, k, j) for j in range(1, p - k + 1)]
    ok, err = verify_eig_formula(spectrum, branches, assignment, n, 1e-8)
    assert ok and err <= 1e-12


@pytest.mark.parametrize("p", [9, 12, 16])
def test_verify_mass_family_beyond_acceptance_range(p):
    # pins the corrected partial-sum scan behind alpha() for larger p
    spectrum, branches = _mass_spectrum_and_branches(p, 1, 5)
    assignment = [grid_assign_M(p, 1, j) for j in range(1, p)]
    ok, err = verify_eig_formula(spectrum, branches, assignment, 5, 1e-8)
    assert ok, err


def test_verify_rejects_count_mismatch():
    p, k, n = 3, 0, 7
    spectrum, branches = _mass_spectrum_and_branches(p, k, n)
    with pytest.raises(ValueError):
        verify_eig_formula(spectrum, branches, [GridKind.FULL] * 3, n, 1e-8)


def test_verify_swapped_assignment_fails_clearly():
    # negative control: swapping the endpoint grids of two branches keeps the
    # total count but moves eigenvalues by a visible amount
    p, k, n = 3, 0, 9
    spectrum, branches = _mass_spectrum_and_branches(p, k, n)
    assignment = [grid_assign_M(p, k, j) for j in range(1, p - k + 1)]
    swapped = list(assignment)
    i0 = assignment.index(GridKind.NO_ZERO)
    i1 = assignment.index(GridKind.NO_PI)
    swapped[i0], swapped[i1] = swapped[i1], swapped[i0]
    ok, err = verify_eig_formula(spectrum, branches, swapped, n, 1e-8)
    assert not ok and err > 1e-4


def test_infer_quadratic_c0_assignment():
    n = 10
    K, _ = assemble_KM(n, 2, 0)
    spectrum = eig_sym(K / n)
    branches = np.linalg.eigvalsh(symbol_f(2, 0, grid_points(GridKind.FULL, n)))
    assert infer_grid_assignment(spectrum, branches, 2, 0, n, 1e-8) == (
        GridKind.NO_ZERO,
        GridKind.INTERIOR,
    )


def test_infer_matches_mass_assignment_rule():
    p, k, n = 3, 0, 8
    spectrum, branches = _mass_spectrum_and_branches(p, k, n)
    inferred = infer_grid_assignment(spectrum, branches, p, k, n, 1e-8)
    assert inferred == tuple(grid_assign_M(p, k, j) for j in range(1, p - k + 1))


_ORACLE_ROWS = {
    GridKind.FULL: slice(None),
    GridKind.NO_ZERO: slice(1, None),
    GridKind.NO_PI: slice(None, -1),
    GridKind.INTERIOR: slice(1, -1),
}


def _search_grid_assignments(spectrum, table, m, n, tol):
    """Reference: try all 4^m assignments; (first passing, number passing)."""
    sorted_spec = np.sort(spectrum.values)
    passing = []
    for assignment in itertools.product(list(GridKind), repeat=m):
        if sum(grid_size(kind, n) for kind in assignment) != spectrum.n:
            continue
        values = np.sort(np.concatenate(
            [table[_ORACLE_ROWS[kind], j] for j, kind in enumerate(assignment)]))
        if np.max(np.abs(values - sorted_spec)) <= tol:
            passing.append(assignment)
    return (passing[0] if passing else None), len(passing)


def _stiffness_spectrum_and_branches(p, k, n):
    K, _ = assemble_KM(n, p, k)
    return eig_sym(K / n), np.linalg.eigvalsh(symbol_f(p, k, grid_points(GridKind.FULL, n)))


def _assert_inference_matches_search(spectrum, branches, p, k, n, tol=1e-8):
    """Inferred assignment equals the search's first; returns (first, number passing)."""
    expected = _search_grid_assignments(spectrum, branches, p - k, n, tol)
    assert infer_grid_assignment(spectrum, branches, p, k, n, tol) == expected[0], (p, k, n)
    return expected


@pytest.mark.parametrize("p,k", [(p, k) for p in range(1, 8) for k in (0, 1) if k < p])
def test_infer_stiffness_matches_exhaustive_search(p, k):
    for n in (2, 5, 20):
        spectrum, branches = _stiffness_spectrum_and_branches(p, k, n)
        found, count = _assert_inference_matches_search(spectrum, branches, p, k, n)
        assert found is not None and count >= 1


@pytest.mark.parametrize("p,k,n", [(2, 0, 5), (4, 1, 5), (6, 0, 20), (7, 1, 2)])
def test_infer_rejects_moved_eigenvalue(p, k, n):
    # negative control: one eigenvalue moved by 1e-6, far above tol
    spectrum, branches = _stiffness_spectrum_and_branches(p, k, n)
    values = spectrum.values.copy()
    values[values.size // 2] += 1e-6
    moved = Spectrum(values)
    assert _assert_inference_matches_search(moved, branches, p, k, n) == (None, 0)


_SYNTHETIC_BRANCHES = {
    # lambda_j(0) = 0 for all three branches: a three-way endpoint tie
    "three_way_tie": lambda t: np.outer(1.0 - np.cos(t), [1.0, 2.0, 3.0]),
    # lambda_j(0) = lambda_j(pi) = j, and branch j reaches j + 1 at pi/2
    "same_branch_tie": lambda t: np.add.outer(np.sin(t), [1.0, 2.0, 3.0]),
    # lambda_1(pi) = lambda_2(0) = 2 and lambda_2(pi) = lambda_3(0) = 4
    "cross_tie": lambda t: np.add.outer(1.0 - np.cos(t), [0.0, 2.0, 4.0]),
}


@pytest.mark.parametrize("name", sorted(_SYNTHETIC_BRANCHES))
@pytest.mark.parametrize("n", [2, 5])
def test_infer_synthetic_ties_match_exhaustive_search(name, n):
    table = _SYNTHETIC_BRANCHES[name](grid_points(GridKind.FULL, n))
    counts = set()
    for truth in itertools.product(list(GridKind), repeat=3):
        values = np.concatenate([table[_ORACLE_ROWS[kind], j] for j, kind in enumerate(truth)])
        if values.size == 0:
            continue
        found, count = _assert_inference_matches_search(
            Spectrum(np.sort(values)), table, 3, 0, n)
        assert found is not None
        counts.add(count)
    assert max(counts) > 1  # the ties make some spectra ambiguous


def test_single_branch_has_unique_feasible_assignment():
    # p=1, k=0: dimension n-1 forces the interior grid before any matching
    n = 9
    feasible = [
        kinds
        for kinds in itertools.product(list(GridKind), repeat=1)
        if sum(grid_size(kind, n) for kind in kinds) == n - 1
    ]
    assert feasible == [(GridKind.INTERIOR,)]


def test_pencil_family_small_case():
    p, k, n = 4, 1, 6
    K, M = assemble_KM(n, p, k)
    spectrum = Spectrum(eig_gen_sym_def(K, M).values / n**2)
    branches = symbol_e_branches(p, k, grid_points(GridKind.FULL, n))
    assignment = [grid_assign_L(p, k, j) for j in range(1, p - k + 1)]
    ok, err = verify_eig_formula(spectrum, branches, assignment, n, 1e-8)
    assert ok, err


def test_branch_table_requires_one_row_per_angle():
    p, k, n = 3, 0, 7
    spectrum, table = _mass_spectrum_and_branches(p, k, n)
    assignment = [grid_assign_M(p, k, j) for j in range(1, p - k + 1)]
    with pytest.raises(ValueError, match="expected \\(angles, branches\\)"):
        verify_eig_formula(spectrum, table.T, assignment, n, 1e-8)
    with pytest.raises(ValueError, match="expected \\(angles, branches\\)"):
        infer_grid_assignment(spectrum, table[1:], p, k, n, 1e-8)
    with pytest.raises(ValueError, match="expected \\(angles, branches\\)"):
        infer_grid_assignment(spectrum, np.ones(n + 1), p, k, n, 1e-8)


def test_kept_basis_functions_vanish_at_boundary():
    n, p, k = 5, 3, 1
    rows = _basis_rows(n, p, k, [0.0, 1.0])
    assert np.all(rows[:, 1:-1] == 0.0)  # assembly keeps these
    assert assemble_KM(n, p, k)[0].shape[0] == rows.shape[1] - 2
