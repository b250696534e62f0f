import math

import numpy as np
import pytest

from eigmatch.core import Rect, ScalarSymbol, make_uniform_grid
from eigmatch.problems import fd_coefficients, fd_symbol_2d, iga2d_symbol, plateau_ramp_symbol
from eigmatch.toeplitz import fourier_coeffs


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
    assert g.shape == (4, 1)
    assert np.allclose(g[:, 0], [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])


def test_uniform_grid_2d_lexicographic():
    g = make_uniform_grid(Rect(np.array([0.0, 0.0]), np.array([1.0, math.pi])), (2, 2))
    expected = np.array(
        [[0.5, math.pi / 2], [0.5, math.pi], [1.0, math.pi / 2], [1.0, math.pi]]
    )
    assert np.allclose(g, expected)


def test_uniform_grid_endpoint_exact():
    g = make_uniform_grid(unit_interval(), (100,))
    assert g[-1, 0] == 1.0


def test_uniform_grid_rejects_bad_dims():
    with pytest.raises(ValueError):
        make_uniform_grid(unit_interval(), (0,))
    with pytest.raises(ValueError):
        make_uniform_grid(unit_interval(), (-3,))


@pytest.mark.parametrize("d, dims", [(1, (2, 2)), (2, (3,)), (2, (2, 2, 2))])
def test_uniform_grid_takes_one_size_per_dimension(d, dims):
    # (2, 2) on a 1-d rectangle would otherwise broadcast into a 4 x 2 array
    with pytest.raises(ValueError, match="one size per dimension"):
        make_uniform_grid(Rect(np.zeros(d), np.ones(d)), dims)


@pytest.mark.parametrize("dims", [2.5, (2.7,), (3, 1.5), (math.nan,), (math.inf,)])
def test_grids_reject_non_integral_dims(dims):
    # int() would truncate 2.5 to a 2-point grid
    d = np.atleast_1d(dims).size
    rect = Rect(np.zeros(d), np.ones(d))
    with pytest.raises(ValueError, match="dims must be integral"):
        make_uniform_grid(rect, dims)


def test_grids_accept_integral_floats_and_numpy_integers():
    assert make_uniform_grid(unit_interval(), 3.0).shape == (3, 1)
    assert make_uniform_grid(unit_interval(), (np.int64(4),)).shape == (4, 1)


def constant_symbol():
    """A constant written as a scalar, so ``eval`` returns one value for N points."""
    return ScalarSymbol(domain=Rect(np.array([0.0]), np.array([math.pi])), eval=lambda t: 2.0)


def test_sample_rejects_a_value_count_other_than_the_point_count():
    with pytest.raises(ValueError, match=r"symbol returned shape \(\) for 4 points"):
        constant_symbol().sample(np.arange(4.0))
    square = ScalarSymbol(domain=Rect(np.zeros(2), np.ones(2)),
                          eval=lambda x, y: np.stack([x, y]))
    with pytest.raises(ValueError, match=r"shape \(2, 9\) for 9 points"):
        square.sample(make_uniform_grid(square.domain, (3, 3)))


def test_fourier_coeffs_reject_a_symbol_without_one_value_per_node():
    # used to fail inside the quadrature with "cannot reshape array of size 1"
    with pytest.raises(ValueError, match=r"symbol returned shape \(\) for \d+ points"):
        fourier_coeffs(constant_symbol(), 4)


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


@pytest.mark.parametrize("shape", [(8,), (4, 2, 1), (8, 1), (4, 3), ()],
                         ids=["flat", "3-d", "one-column", "three-columns", "scalar"])
def test_sample_rejects_points_of_a_shape_other_than_n_by_d(shape):
    # a flat array of 8 angles used to be read as 4 points of the 2-d symbol
    with pytest.raises(ValueError, match=r"points must have shape \(N, 2\), got"):
        iga2d_symbol().sample(np.full(shape, 0.5))


def test_sample_takes_flat_or_one_column_points_in_one_dimension():
    points = np.linspace(0.1, 3.0, 8)
    symbol = plateau_ramp_symbol()
    flat = symbol.sample(points)
    assert flat.shape == (8,)
    assert np.array_equal(symbol.sample(points[:, None]), flat)
    with pytest.raises(ValueError, match=r"shape \(N, 1\), got \(4, 2\)"):
        symbol.sample(points.reshape(4, 2))
