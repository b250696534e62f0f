import math

import numpy as np
import pytest

from eigmatch.core import (
    AUGrid,
    Rect,
    ScalarSymbol,
    count_grid_in_interval,
    grid_deviation,
    make_uniform_grid,
    restrict_mask,
)
from eigmatch.problems import fd_coefficients, fd_symbol_2d, plateau_ramp_symbol

from property_suites import count_bound_suite


def unit_interval():
    return Rect(np.array([0.0]), np.array([1.0]))


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Rect(np.array([0.0, 0.0]), np.array([1.0]))
    r = Rect(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert r.d == 2


@pytest.mark.parametrize("a,b", [([math.nan], [1.0]), ([0.0], [math.nan]), ([0.0], [math.inf]),
                                 ([-math.inf], [0.0]), ([0.0, math.nan], [1.0, 1.0])])
def test_rect_rejects_nan_and_infinite_endpoints(a, b):
    with pytest.raises(ValueError, match="finite"):
        Rect(np.array(a), np.array(b))


@pytest.mark.parametrize("symbol,bad", [(plateau_ramp_symbol(), math.nan),
                                        (plateau_ramp_symbol(), math.inf),
                                        (plateau_ramp_symbol(), 5.0),
                                        (plateau_ramp_symbol(), -1.0),
                                        (fd_symbol_2d(fd_coefficients["exp"]), math.nan)])
def test_scalar_symbol_rejects_a_breakpoint_that_is_not_finite_or_outside(symbol, bad):
    # a mistyped breakpoint must not silently lose its quadrature panel edge
    with pytest.raises(ValueError, match="breakpoints must"):
        ScalarSymbol(domain=symbol.domain, eval=symbol.eval, discontinuities=(bad,))


def test_scalar_symbol_keeps_breakpoints_at_the_endpoints():
    domain = plateau_ramp_symbol().domain
    ends = (float(domain.a[0]), math.pi / 2, float(domain.b[0]))
    assert ScalarSymbol(domain=domain, eval=np.cos, discontinuities=ends).discontinuities == ends


def test_uniform_grid_1d_quarters():
    g = make_uniform_grid(Rect(np.array([0.0]), np.array([math.pi])), (4,))
    assert np.allclose(g.points[:, 0], [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])
    assert grid_deviation(g) == 0.0


def test_uniform_grid_2d_lexicographic():
    g = make_uniform_grid(Rect(np.array([0.0, 0.0]), np.array([1.0, math.pi])), (2, 2))
    expected = np.array(
        [[0.5, math.pi / 2], [0.5, math.pi], [1.0, math.pi / 2], [1.0, math.pi]]
    )
    assert np.allclose(g.points, expected)


def test_uniform_grid_endpoint_exact():
    g = make_uniform_grid(unit_interval(), (100,))
    assert g.points[-1, 0] == 1.0


def test_uniform_grid_rejects_bad_dims():
    with pytest.raises(ValueError):
        make_uniform_grid(unit_interval(), (0,))
    with pytest.raises(ValueError):
        make_uniform_grid(unit_interval(), (-3,))


@pytest.mark.parametrize("dims", [2.5, (2.7,), (3, 1.5), (math.nan,), (math.inf,)])
def test_grids_reject_non_integral_dims(dims):
    # int() would truncate 2.5 to a 2-point grid
    d = np.atleast_1d(dims).size
    rect = Rect(np.zeros(d), np.ones(d))
    with pytest.raises(ValueError, match="dims must be integral"):
        make_uniform_grid(rect, dims)
    with pytest.raises(ValueError, match="dims must be integral"):
        AUGrid(rect=rect, dims=dims, points=np.zeros((2, d)))


def test_grids_accept_integral_floats_and_numpy_integers():
    assert make_uniform_grid(unit_interval(), 3.0).dims == (3,)
    assert make_uniform_grid(unit_interval(), (np.int64(4),)).dims == (4,)
    g = AUGrid(rect=unit_interval(), dims=(np.int32(2),), points=np.zeros(2))
    assert g.dims == (2,) and type(g.dims[0]) is int


def test_grid_deviation_single_perturbation():
    g = make_uniform_grid(unit_interval(), (5,))
    pts = g.points.copy()
    pts[2, 0] += 0.01
    assert grid_deviation(AUGrid(rect=g.rect, dims=g.dims, points=pts)) == pytest.approx(0.01)


def test_grid_deviation_shifted_angles():
    # points i*pi/9 against the uniform grid i*pi/8: the max over i of
    # i*pi/72 is attained at i = 8, giving pi/9
    n = 8
    pts = np.arange(1, n + 1) * math.pi / (n + 1)
    g = AUGrid(rect=Rect(np.array([0.0]), np.array([math.pi])), dims=(n,),
               points=pts.reshape(-1, 1))
    assert grid_deviation(g) == pytest.approx(math.pi / 9, abs=1e-14)


def selected(g, membership):
    """Multi-indices the mask keeps, as tuples in row order."""
    return [tuple(map(int, mi)) for mi in g.multi_indices()[restrict_mask(g, membership)]]


def test_restrict_mask_whole_domain():
    g = make_uniform_grid(unit_interval(), (4,))
    assert np.array_equal(restrict_mask(g, None), [True] * 4)
    assert selected(g, None) == [(1,), (2,), (3,), (4,)]


def test_restrict_mask_half_interval():
    g = make_uniform_grid(unit_interval(), (4,))
    assert np.array_equal(restrict_mask(g, lambda x: x <= 0.5), [True, True, False, False])
    assert selected(g, lambda x: x <= 0.5) == [(1,), (2,)]


def test_restrict_mask_disk_quadrant_brute_force():
    rect = Rect(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    g = make_uniform_grid(rect, (3, 3))
    inside = lambda x, y: x**2 + y**2 <= 1.0
    idx = selected(g, inside)
    brute = [
        tuple(mi)
        for mi, pt in zip(g.multi_indices(), g.points)
        if pt[0] ** 2 + pt[1] ** 2 <= 1.0
    ]
    assert [tuple(map(int, mi)) for mi in brute] == idx
    assert idx == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_count_grid_in_interval_examples():
    assert count_grid_in_interval(0.0, 1.0, 0.0, 2.5) == 3
    assert count_grid_in_interval(0.3, 0.1, 0.0, 1.0) == 11
    with pytest.raises(ValueError):
        count_grid_in_interval(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        count_grid_in_interval(0.0, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("args", [(0.0, 0.1, math.nan, 1.0), (0.0, 0.1, 0.0, math.inf),
                                  (math.inf, 0.1, 0.0, 1.0), (0.0, math.nan, 0.0, 1.0)])
def test_count_grid_in_interval_rejects_non_finite_arguments(args):
    with pytest.raises(ValueError, match="need finite x0, h, alpha and beta"):
        count_grid_in_interval(*args)


@pytest.mark.parametrize("args", [(0.0, 1e-300, -1e300, 1e300), (1e308, 1e-10, 0.0, 1.0)])
def test_count_grid_in_interval_rejects_uncountable_intervals(args):
    # finite arguments whose step count overflows a float
    with pytest.raises(ValueError, match="too many grid steps to count"):
        count_grid_in_interval(*args)


def test_count_grid_in_interval_aligned_endpoints():
    # 0.3 + i*0.05 for i = 2..8 lies in [0.4, 0.7]; (0.7-0.4)/0.05 rounds below 6
    assert count_grid_in_interval(0.3, 0.05, 0.4, 0.7) == 7
    assert count_grid_in_interval(0.7, 0.1, 0.7, 0.8) == 2
    x0, h = 0.3, 0.05
    for i, j in [(0, 1), (2, 8), (-7, 13), (5, 5)]:
        assert count_grid_in_interval(x0, h, x0 + i * h, x0 + j * h) == j - i + 1


def test_count_grid_bound_property():
    count_bound_suite(trials=1000)


def test_matrix_symbol_rejects_non_hermitian_values():
    from eigmatch.core import MatrixSymbol

    def eval(t):
        m = np.zeros((t.size, 2, 2), dtype=complex)
        m[t > 0.5, 0, 1] = 1.0  # Hermitian up to 0.5, not beyond
        return m

    sym = MatrixSymbol(interval=(0.0, 1.0), k=2, eval=eval)
    assert sym.branch_samples([0.1, 0.5]).shape == (2, 2)
    with pytest.raises(ValueError, match=r"not Hermitian at theta=0\.7"):
        sym.branch_samples([0.1, 0.7, 0.9])
    with pytest.raises(ValueError, match=r"not Hermitian at theta=0\.6"):
        sym.matrices(np.array([0.6]))


@pytest.mark.parametrize("interval, k, message", [
    ((0.0, math.inf), 2, "finite nonempty interval"),
    ((-math.inf, 0.0), 2, "finite nonempty interval"),
    ((0.0, math.nan), 2, "finite nonempty interval"),
    ((1.0, 1.0), 2, "finite nonempty interval"),
    ((0.0, math.pi), 2.5, "k must be an integer"),
    ((0.0, math.pi), "2", "k must be an integer"),
    ((0.0, math.pi), 0, "k must be an integer >= 1"),
])
def test_matrix_symbol_rejects_bad_interval_or_k(interval, k, message):
    from eigmatch.core import MatrixSymbol

    with pytest.raises(ValueError, match=message):
        MatrixSymbol(interval=interval, k=k, eval=lambda t: np.zeros((t.size, 2, 2)))


def test_matrix_symbol_stores_an_integer_k():
    from eigmatch.core import MatrixSymbol

    sym = MatrixSymbol(interval=(0.0, 1.0), k=np.int64(2), eval=lambda t: np.zeros((t.size, 2, 2)))
    assert type(sym.k) is int and sym.branch_samples([0.5]).shape == (1, 2)


def test_matrix_symbol_hermitian_tolerance_is_absolute_1e12():
    from eigmatch.core import MatrixSymbol

    def sym(skew):
        return MatrixSymbol(interval=(0.0, 1.0), k=2, eval=lambda t: np.broadcast_to(
            np.array([[1e6, skew], [0.0, 1e6]], dtype=complex), (t.size, 2, 2)))

    sym(1e-12).matrices([0.5])
    with pytest.raises(ValueError, match="not Hermitian"):
        sym(2e-12).matrices([0.5])


def diag_nan_beyond_half(bad):
    """2 x 2 diagonal symbol diag(-t, t) whose (1, 1) entry is ``bad`` for t > 0.5."""
    from eigmatch.core import MatrixSymbol

    def eval(t):
        m = np.zeros((t.size, 2, 2), dtype=complex)
        m[:, 0, 0] = -t
        m[:, 1, 1] = np.where(t > 0.5, bad, t)
        return m

    return MatrixSymbol(interval=(0.0, 1.0), k=2, eval=eval)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_matrix_symbol_rejects_non_finite_values(bad):
    sym = diag_nan_beyond_half(bad)
    assert np.array_equal(sym.branch_samples([0.25]), [[-0.25, 0.25]])
    with pytest.raises(ValueError, match=r"not finite at theta=0\.7"):
        sym.branch_samples([0.1, 0.7, 0.9])


def test_matrix_symbol_rejects_wrong_stack_shape():
    from eigmatch.core import MatrixSymbol

    scalar_style = MatrixSymbol(interval=(0.0, 1.0), k=2, eval=lambda t: np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        scalar_style.branch_samples([0.1, 0.2])


def test_matrix_symbol_branches_ascending():
    from eigmatch.core import MatrixSymbol

    sym = MatrixSymbol(
        interval=(0.0, 1.0),
        k=2,
        eval=lambda t: np.broadcast_to(np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex),
                                       (t.size, 2, 2)),
    )
    b = sym.branch_samples([0.1, 0.9])
    assert b.shape == (2, 2)
    assert np.all(np.diff(b, axis=1) >= 0)


def test_branch_samples_match_per_angle_eigvalsh_bitwise():
    from eigmatch.problems import c0_quadratic_symbol

    sym = c0_quadratic_symbol()
    thetas = np.linspace(0.0, math.pi, 1000)
    per_angle = np.array([np.linalg.eigvalsh(sym.eval(np.array([t]))[0]) for t in thetas])
    assert np.array_equal(sym.branch_samples(thetas), per_angle)
