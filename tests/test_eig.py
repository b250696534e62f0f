import json
import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import eigmatch.eig
from eigmatch import problems
from eigmatch.eig import (
    NotPositiveDefiniteError,
    Spectrum,
    _pencil_eigvalsh,
    eig_gen_sym_def,
    eig_sym,
    eig_sym_inplace,
    eig_sym_tridiag,
)
from eigmatch.galerkin import assemble_KM, fd_matrix, symbol_f, symbol_h
from eigmatch.toeplitz import fourier_coeffs, toeplitz_halves

from property_suites import weyl_suite


def test_eig_sym_diagonal():
    assert np.allclose(eig_sym(np.diag([3.0, 1.0, 2.0])).values, [1.0, 2.0, 3.0])


def test_eig_sym_laplacian_formula():
    n = 8
    T = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -1.0), -1)
    expected = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
    assert np.max(np.abs(eig_sym(T).values - np.sort(expected))) <= 1e-12


def test_eig_sym_residuals_random():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(50, 50))
    A = 0.5 * (A + A.T)
    vals, vecs = scipy.linalg.eigh(A)
    ours = eig_sym(A).values
    assert np.max(np.abs(ours - vals)) <= 1e-12
    scale = np.linalg.norm(A, 2)
    for i in range(50):
        assert np.linalg.norm(A @ vecs[:, i] - ours[i] * vecs[:, i]) <= 1e-9 * scale


def test_eig_sym_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_tolerance_scales_with_matrix_norm():
    # asymmetry 1e-9 on entries of size 2e7: about 5e-17 relative
    A = np.array([[1e7, 1.0], [1.0 + 1e-9, 2e7]])
    assert eig_sym(A).values[0] == pytest.approx(1e7 - 1e-7, rel=1e-12)
    assert eig_gen_sym_def(A, np.eye(2)).values[0] == pytest.approx(1e7 - 1e-7, rel=1e-12)
    assert eig_gen_sym_def(np.eye(2), A).values[1] == pytest.approx(1 / (1e7 - 1e-7), rel=1e-12)


def test_large_non_hermitian_matrix_still_rejected():
    A = np.array([[1e7, 1.0], [2.0, 2e7]])
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_sym(A)
    with pytest.raises(ValueError, match="K is not Hermitian"):
        eig_gen_sym_def(A, np.eye(2))
    with pytest.raises(ValueError, match="M is not Hermitian"):
        eig_gen_sym_def(np.eye(2), A)


@pytest.mark.parametrize("peak", [1.0, 4.0, 0.5])
@pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
def test_real_hermitian_check_boundary(peak, entry):
    # the real check takes max(A - A^T) without |.|, so both signs of the
    # asymmetry must be caught; tol = 1e-10 * max(1, peak) is exact here
    tol = 1e-10 * max(1.0, peak)
    A = np.diag([peak, -peak])
    A[entry] = tol
    assert eig_sym(A).n == 2
    assert eig_gen_sym_def(A, np.eye(2)).n == 2
    A[entry] = np.nextafter(tol, 1.0)
    with pytest.raises(ValueError, match=f"not Hermitian within {tol:.3g}"):
        eig_sym(A)
    with pytest.raises(ValueError, match="K is not Hermitian"):
        eig_gen_sym_def(A, np.eye(2))


@pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
def test_complex_hermitian_check_boundary(entry):
    A = np.diag([4.0, -4.0]).astype(complex)
    A[entry] = 4e-10j  # |A - A^H| = 4e-10 = tol at both off-diagonal entries
    assert eig_sym(A).n == 2
    A[entry] = complex(0.0, np.nextafter(4e-10, 1.0))
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_sym(A)


def test_real_hermitian_check_peak_from_negative_entries():
    # the scale comes from -min(A) when the largest magnitude is negative
    A = np.array([[-1e6, 0.0], [5e-5, 1.0]])
    assert eig_sym(A).n == 2
    A[1, 0] = 2e-4
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_sym(A)


def test_eig_sym_complex_hermitian():
    A = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    expected = np.sort(np.linalg.eigvalsh(A))
    assert np.allclose(eig_sym(A).values, expected)


def test_tridiag_classic_formula():
    spec = eig_sym_tridiag(np.full(4, 2.0), np.full(3, -1.0))
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, 5) * math.pi / 5))
    assert np.max(np.abs(spec.values - expected)) <= 1e-13


def test_tridiag_agrees_with_dense():
    rng = np.random.default_rng(5)
    n = 200
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(eig_sym_tridiag(d, e).values - eig_sym(dense).values)) <= 1e-10


def test_tridiag_constant_coefficient_reduction():
    # unit diffusion coefficient: the finite-difference matrix is the
    # Laplacian stencil, whose spectrum has the closed cosine form
    n = 37
    diag, off = fd_matrix(lambda x: np.ones_like(x), n)
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    assert np.max(np.abs(eig_sym_tridiag(diag, off).values - expected)) <= 1e-12


def test_tridiag_validates_lengths():
    with pytest.raises(ValueError):
        eig_sym_tridiag(np.ones(4), np.ones(4))


def _scipy_tridiag(d, e):
    return scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this checkout; its stdout as JSON."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return json.loads(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                     text=True, check=True, timeout=120).stdout)


@pytest.mark.parametrize("coef", sorted(problems.fd_coefficients))
@pytest.mark.parametrize("n", [2, 3, 900, 2500])
def test_tridiag_bit_identical_to_scipy_on_fd_matrices(coef, n):
    d, e = fd_matrix(problems.fd_coefficients[coef], n)
    assert np.array_equal(eig_sym_tridiag(d, e).values, _scipy_tridiag(d, e))


def test_tridiag_bit_identical_to_scipy_on_random_indefinite():
    rng = np.random.default_rng(11)
    for n in (2, 5, 64, 501):
        d = rng.normal(scale=10.0, size=n)
        e = rng.normal(size=n - 1)
        d[0], d[-1] = -20.0, 20.0  # interlacing: eigenvalues of both signs
        ours = eig_sym_tridiag(d, e).values
        assert ours[0] < 0 < ours[-1]
        assert np.array_equal(ours, _scipy_tridiag(d, e))


def test_tridiag_bit_identical_to_scipy_on_split_matrix():
    # zero off-diagonals split the matrix into independent blocks
    rng = np.random.default_rng(12)
    d = rng.normal(size=40)
    e = rng.normal(size=39)
    e[[0, 7, 8, 20, 38]] = 0.0
    assert np.array_equal(eig_sym_tridiag(d, e).values, _scipy_tridiag(d, e))
    assert np.array_equal(eig_sym_tridiag(d, np.zeros(39)).values, np.sort(d))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["diag", "offdiag"])
def test_tridiag_rejects_non_finite(bad, where):
    d, e = np.full(5, 2.0), np.full(4, -1.0)
    (d if where == "diag" else e)[2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eig_sym_tridiag(d, e)


def test_tridiag_rejects_non_finite_1x1():
    with pytest.raises(ValueError, match="infs or NaNs"):
        eig_sym_tridiag([math.nan], [])


def test_tridiag_reports_lapack_failure(monkeypatch):
    # dsterf sets INFO > 0 when it fails to converge; no finite input is known to do so
    monkeypatch.setattr(eigmatch.eig, "_bind_dsterf", lambda: lambda d, e: 3)
    with pytest.raises(np.linalg.LinAlgError, match="info=3"):
        eig_sym_tridiag(np.full(4, 2.0), np.full(3, -1.0))


def test_tridiag_leaves_inputs_unchanged():
    d, e = fd_matrix(problems.fd_coefficients["exp"], 100)
    d0, e0 = d.copy(), e.copy()
    values = eig_sym_tridiag(d, e).values
    assert np.array_equal(d, d0) and np.array_equal(e, e0)
    assert not np.shares_memory(values, d)
    one = np.array([3.0])
    spec = eig_sym_tridiag(one, [])
    assert not np.shares_memory(spec.values, one)


def test_tridiag_accepts_strided_and_integer_input():
    d = np.arange(20.0)[::2]
    e = np.ones(9, dtype=int)
    expected = _scipy_tridiag(np.ascontiguousarray(d), e.astype(float))
    assert np.array_equal(eig_sym_tridiag(d, e).values, expected)


def test_tridiag_concurrent_calls_match_serial():
    rng = np.random.default_rng(13)
    problems_ = [(rng.normal(size=n), rng.normal(size=n - 1)) for n in (300, 1000, 50, 2000) * 2]
    serial = [eig_sym_tridiag(d, e).values for d, e in problems_]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda de: eig_sym_tridiag(*de).values, problems_))
    assert all(np.array_equal(a, b) for a, b in zip(serial, concurrent))


@pytest.fixture
def scipy_fallback(monkeypatch):
    """Bind dsterf as on a numpy without a vendored OpenBLAS; count scipy's calls."""
    calls = []
    dsterf = scipy.linalg.lapack.dsterf

    def counting(*args, **kwargs):
        calls.append(1)
        return dsterf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsterf", counting)
    monkeypatch.setattr(eigmatch.eig, "_numpy_openblas", lambda: None)
    eigmatch.eig._bind_dsterf.cache_clear()
    yield calls
    eigmatch.eig._bind_dsterf.cache_clear()


def test_scipy_fallback_is_bit_identical(scipy_fallback):
    rng = np.random.default_rng(14)
    cases = [fd_matrix(problems.fd_coefficients[coef], 900) for coef in sorted(problems.fd_coefficients)]
    cases += [(rng.normal(size=n), rng.normal(size=n - 1)) for n in (2, 5, 501)]
    for d, e in cases:
        d0, e0 = d.copy(), e.copy()
        assert np.array_equal(eig_sym_tridiag(d, e).values, _scipy_tridiag(d, e))
        assert np.array_equal(d, d0) and np.array_equal(e, e0)
    assert len(scipy_fallback) == len(cases)


def test_dsterf_bound_once():
    eig_sym_tridiag(np.full(3, 2.0), np.full(2, -1.0))
    assert eigmatch.eig._bind_dsterf() is eigmatch.eig._bind_dsterf()


def test_one_blas_thread_restores_the_count(blas_threads):
    with eigmatch.eig.one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == 2
    with pytest.raises(RuntimeError):
        with eigmatch.eig.one_blas_thread():
            raise RuntimeError
    assert blas_threads() == 2


def test_overlapping_blas_scopes_share_one_setting(blas_threads, monkeypatch):
    # the count is process-wide: only the outermost scope may restore it, and
    # only it stops the workers, after setting the count to 1 (a set after a
    # stop starts them again); the thread count is recorded at each stop
    get = blas_threads
    one = eigmatch.eig.one_blas_thread
    stops = []
    monkeypatch.setattr(eigmatch.eig, "_bind_blas_shutdown", lambda: lambda: stops.append(get()))
    assert threading.active_count() == 1
    with one():
        with one():
            assert get() == 1
        assert get() == 1
    assert get() == 2 and stops == [1]

    inner_entered, outer_left, seen = threading.Event(), threading.Event(), []

    def other():
        with one():
            inner_entered.set()
            outer_left.wait(5)
            seen.append(get())

    with ThreadPoolExecutor(1) as pool:
        pool.submit(lambda: None).result()  # the pool thread is alive from here on
        with one():
            future = pool.submit(other)
            assert inner_entered.wait(5)
        outer_left.set()
        future.result()
    # another Python thread was alive, so the workers were left running
    assert seen == [1] and get() == 2 and stops == [1]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_one_blas_thread_stops_the_idle_workers():
    # a fresh interpreter, since scipy's own OpenBLAS workers run in this one
    if eigmatch.eig._bind_blas_shutdown() is None:
        pytest.skip("numpy's OpenBLAS exports no blas_thread_shutdown_")
    script = """
import json, os, time
import numpy as np
from eigmatch.eig import _bind_blas_threads, one_blas_thread

get, set_ = _bind_blas_threads()
old = get()
with one_blas_thread():
    tasks = len(os.listdir("/proc/self/task"))
    cpu = time.process_time()
    time.sleep(0.2)
    cpu = time.process_time() - cpu
restored = get()
# integer entries: every order of summation gives the exact product
A = np.random.default_rng(0).integers(-8, 9, size=(300, 300)).astype(float)
set_(2)
two = A @ A
set_(1)
one = A @ A
set_(old)
print(json.dumps({"tasks": tasks, "cpu": cpu, "old": old, "restored": restored,
                  "equal": bool(np.array_equal(one, two))}))
"""
    report = _run_fresh(script)
    assert report["tasks"] == 1
    assert report["cpu"] < 0.01
    assert report["restored"] == report["old"]
    assert report["equal"]


def test_empty_matrix_has_empty_spectrum():
    for empty in (np.zeros((0, 0)), np.zeros((0, 0), dtype=complex)):
        assert eig_sym(empty).n == 0
        assert eig_gen_sym_def(empty, empty).n == 0
    assert eig_sym_inplace(np.zeros((0, 0), order="F")).n == 0  # the odd half of T_1
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="same size"):
        eig_gen_sym_def(np.zeros((0, 0)), np.eye(1))


def test_gen_identity_mass_matches_plain():
    rng = np.random.default_rng(6)
    K = rng.normal(size=(20, 20))
    K = 0.5 * (K + K.T)
    plain = eig_sym(K).values
    gen = eig_gen_sym_def(K, np.eye(20)).values
    assert np.max(np.abs(plain - gen)) <= 1e-10


def test_gen_proportional_pencil():
    rng = np.random.default_rng(7)
    B = rng.normal(size=(10, 10))
    M = B @ B.T + 10 * np.eye(10)
    vals = eig_gen_sym_def(2.5 * M, M).values
    assert np.allclose(vals, 2.5, atol=1e-12)


def test_gen_2x2_symbol_pencil_closed_form():
    # at theta = pi the stiffness/mass symbols are diagonal, so the pencil
    # eigenvalues are the diagonal ratios: (4/3)/(2/15) = 10 and 4/(1/3) = 12
    F = symbol_f(2, 0, math.pi)
    H = symbol_h(2, 0, math.pi)
    vals = eig_gen_sym_def(F, H).values
    a, b2, c = H[0, 0].real, abs(H[0, 1]) ** 2, H[1, 1].real
    fa, fc = F[0, 0].real, F[1, 1].real
    # independent 2x2 characteristic polynomial det(F - x H) = 0
    A2 = a * c - b2
    B2 = -(fa * c + fc * a)
    C2 = fa * fc
    roots = np.sort(np.roots([A2, B2, C2]).real)
    assert np.allclose(vals, roots, atol=1e-12)
    assert np.allclose(vals, [10.0, 12.0], atol=1e-12)


def _random_pencil(rng, shape, complex_=False):
    def draw():
        X = rng.normal(size=shape)
        return X + 1j * rng.normal(size=shape) if complex_ else X
    A, B = draw(), draw()
    K = A + A.conj().swapaxes(-1, -2)
    M = B @ B.conj().swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1])
    return K, M


@pytest.mark.parametrize("complex_", [False, True])
def test_gen_matches_scipy_generalized_solver(complex_):
    K, M = _random_pencil(np.random.default_rng(8), (30, 30), complex_)
    ref = scipy.linalg.eigh(K, M, eigvals_only=True)
    assert np.max(np.abs(eig_gen_sym_def(K, M).values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("complex_", [False, True])
def test_pencil_reduction_is_batched(complex_):
    K, M = _random_pencil(np.random.default_rng(9), (3, 5, 4, 4), complex_)
    batched = _pencil_eigvalsh(K, M)
    assert batched.shape == (3, 5, 4)
    ref = np.array([[scipy.linalg.eigh(k, m, eigvals_only=True) for k, m in zip(ks, ms)]
                    for ks, ms in zip(K, M)])
    assert np.max(np.abs(batched - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pencil_reduction_rejects_indefinite_slice():
    K, M = _random_pencil(np.random.default_rng(10), (6, 3, 3))
    M[4] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        _pencil_eigvalsh(K, M)


def test_gen_rejects_indefinite_mass():
    K = np.eye(3)
    M = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefiniteError):
        eig_gen_sym_def(K, M)
    with pytest.raises(NotPositiveDefiniteError):
        eig_gen_sym_def(K.astype(complex), M.astype(complex))


def test_gen_reports_dsygv_failure(monkeypatch):
    # dsygv sets INFO in 1..n when the symmetric solve fails to converge and
    # INFO = n + i when the leading minor of order i of M is not positive
    # definite; no finite positive definite input is known to do the former
    n = 4
    K, M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1), np.eye(n)
    monkeypatch.setattr(eigmatch.eig, "_bind_dsygv", lambda: lambda a, b: (np.zeros(n), 3))
    with pytest.raises(np.linalg.LinAlgError, match="dsygv.*info=3") as raised:
        eig_gen_sym_def(K, M)
    assert not isinstance(raised.value, NotPositiveDefiniteError)
    monkeypatch.setattr(eigmatch.eig, "_bind_dsygv", lambda: lambda a, b: (np.zeros(n), n + 1))
    with pytest.raises(NotPositiveDefiniteError, match="order 1"):
        eig_gen_sym_def(K, M)


def test_complex_pencil_solve_failure_is_not_a_mass_failure(monkeypatch):
    def fail(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    K, M = _random_pencil(np.random.default_rng(11), (5, 5), complex_=True)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge") as raised:
        eig_gen_sym_def(K, M)
    assert not isinstance(raised.value, NotPositiveDefiniteError)


_SPLINE_PENCILS = [(8, 0, 20), (5, 1, 13), (2, 0, 3)]


@pytest.mark.parametrize("p,k,n", _SPLINE_PENCILS)
def test_gen_matches_scipy_gv_on_spline_pencils(p, k, n):
    # the same LAPACK routine, but numpy and scipy vendor their own OpenBLAS
    # builds, whose kernels and thread splits move the last bits
    K, M = assemble_KM(n, p, k)
    K0, M0 = K.copy(), M.copy()
    expected = scipy.linalg.eigh(K, M, eigvals_only=True, driver="gv")
    np.testing.assert_allclose(eig_gen_sym_def(K, M).values, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())
    assert np.array_equal(K, K0) and np.array_equal(M, M0)


@pytest.fixture
def no_numpy_dsygv(monkeypatch):
    """Bind dsygv as on a numpy without a vendored OpenBLAS."""
    monkeypatch.setattr(eigmatch.eig, "_numpy_openblas", lambda: None)
    eigmatch.eig._bind_dsygv.cache_clear()
    yield
    eigmatch.eig._bind_dsygv.cache_clear()


def test_gen_without_dsygv_is_the_numpy_reduction(no_numpy_dsygv):
    assert eigmatch.eig._bind_dsygv() is None
    for p, k, n in _SPLINE_PENCILS:
        K, M = assemble_KM(n, p, k)
        expected = eigmatch.eig._pencil_eigvalsh(K, M)
        assert np.array_equal(eig_gen_sym_def(K, M).values, expected)
    with pytest.raises(NotPositiveDefiniteError):
        eig_gen_sym_def(np.eye(3), np.diag([1.0, -1.0, 1.0]))


@pytest.fixture(scope="module")
def table_coeffs():
    return {name: fourier_coeffs(symbol(), 1023) for name, symbol in
            (("e2", problems.plateau_ramp_symbol), ("e3", problems.cos_dip_ramp_symbol))}


@pytest.mark.parametrize("example", ["e2", "e3"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024])
def test_inplace_solve_equals_eig_sym_on_the_halves(table_coeffs, example, n):
    for half in toeplitz_halves(table_coeffs[example], n):
        expected = eig_sym(half).values  # eigvalsh solves a copy
        assert np.array_equal(eig_sym_inplace(half).values, expected)


def test_inplace_solve_reads_the_lower_triangle_as_eig_sym_does():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(40, 40))
    A = A + A.T
    A += 1e-12 * np.abs(A).max() * np.tril(rng.normal(size=(40, 40)), -1)
    assert not np.array_equal(eig_sym(A.T).values, eig_sym(A).values)  # the triangles differ
    assert np.array_equal(eig_sym_inplace(np.asfortranarray(A)).values, eig_sym(A).values)


def test_inplace_solve_overwrites_its_input():
    # no copy: LAPACK's reduction to tridiagonal form is left in A
    A = np.random.default_rng(22).normal(size=(6, 6))
    A = np.asfortranarray(A + A.T)
    before = A.copy(order="F")
    assert np.array_equal(eig_sym_inplace(A).values, eig_sym(before).values)
    if eigmatch.eig._bind_dsyevd() is not None:
        assert not np.array_equal(A, before)


def test_inplace_solve_rejects_what_it_cannot_overwrite():
    laplacian = 2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)
    with pytest.raises(ValueError, match="Fortran-contiguous"):
        eig_sym_inplace(np.ascontiguousarray(laplacian))
    with pytest.raises(ValueError, match="Fortran-contiguous"):
        eig_sym_inplace(np.asfortranarray(np.eye(6))[::2, ::2])
    frozen = np.asfortranarray(laplacian)
    frozen.setflags(write=False)
    with pytest.raises(ValueError, match="writeable"):
        eig_sym_inplace(frozen)
    for other in (laplacian.astype(np.float32, order="F"), laplacian.astype(complex, order="F"),
                  np.zeros((2, 3), order="F"), laplacian.tolist()):
        with pytest.raises(ValueError, match="square float64"):
            eig_sym_inplace(other)


def test_inplace_solve_reports_dsyevd_failure(monkeypatch):
    monkeypatch.setattr(eigmatch.eig, "_bind_dsyevd", lambda: lambda a: (np.zeros(a.shape[0]), 5))
    with pytest.raises(np.linalg.LinAlgError, match=r"dsyevd failed \(info=5\)"):
        eig_sym_inplace(np.asfortranarray(np.eye(3)))


@pytest.fixture
def no_numpy_dsyevd(monkeypatch):
    """Bind dsyevd as on a numpy without a vendored OpenBLAS."""
    monkeypatch.setattr(eigmatch.eig, "_numpy_openblas", lambda: None)
    eigmatch.eig._bind_dsyevd.cache_clear()
    yield
    eigmatch.eig._bind_dsyevd.cache_clear()


def test_inplace_solve_without_dsyevd_is_eigvalsh(no_numpy_dsyevd, table_coeffs):
    assert eigmatch.eig._bind_dsyevd() is None
    for half in toeplitz_halves(table_coeffs["e3"], 65):
        assert np.array_equal(eig_sym_inplace(half).values, np.linalg.eigvalsh(half))


@pytest.mark.parametrize("solve", [eig_sym, eig_sym_inplace], ids=["eig_sym", "inplace"])
def test_hermitian_check_reaches_the_last_row_panel(solve):
    # the check compares one panel of rows at a time; an asymmetry whose
    # positive side lies only in the last, partial panel must still count
    n = 300
    rows = eigmatch.eig._CHECK_PANEL // n
    assert rows < n - 1 and n % rows  # several panels, the last one partial
    A = np.asfortranarray(np.eye(n))
    A[n - 1, 0] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        solve(A)
    A[n - 1, 0] = 0.0
    A[0, n - 1] = -1e-6  # the same asymmetry, seen from the first panel
    with pytest.raises(ValueError, match="not Hermitian"):
        solve(A)
    A[n - 1, 0] = -1e-6
    assert solve(A).n == n
    assert eigmatch.eig._CHECK_PANEL // 159 >= 159  # spline matrices stay one panel


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["A", "asymmetric A", "complex A", "K", "M", "in-place A"])
def test_dense_solvers_reject_non_finite(bad, where):
    laplacian = 2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    X = laplacian.astype(complex) if where == "complex A" else laplacian.copy()
    X[1, 2] = complex(0.0, bad) if where == "complex A" else bad
    if where != "asymmetric A":  # there the non-finite entry must be reported first
        X[2, 1] = X[1, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic on the bad entry
        with pytest.raises(ValueError, match="infs or NaNs") as raised:
            if where == "K":
                eig_gen_sym_def(X, np.eye(4))
            elif where == "M":
                eig_gen_sym_def(laplacian, X)
            elif where == "in-place A":
                eig_sym_inplace(np.asfortranarray(X))
            else:
                eig_sym(X)
    assert not isinstance(raised.value, NotPositiveDefiniteError)


def test_spectrum_requires_ascending():
    with pytest.raises(ValueError):
        Spectrum(np.array([2.0, 1.0]))


@pytest.mark.parametrize("values", [[1.0, math.nan, 0.5], [math.nan, 1.0], [0.0, math.nan],
                                    [math.nan], [math.inf, math.inf], [-math.inf]])
def test_spectrum_rejects_nan(values):
    with pytest.raises(ValueError, match="ascending"):
        Spectrum(np.array(values))


def test_concurrent_first_tridiag_calls_load_no_scipy(numpy_dsterf):
    # eight concurrent first calls, in a fresh interpreter, with a short switch
    # interval: each gets the right values, and with numpy's OpenBLAS bound
    # no scipy module (and so no second OpenBLAS) is loaded
    script = """
import json, sys, threading
import numpy as np
from eigmatch.eig import eig_sym_tridiag

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
results = []

def solve():
    barrier.wait()
    results.append(eig_sym_tridiag(np.full(3, 2.0), np.full(2, -1.0)).values.tolist())

threads = [threading.Thread(target=solve) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "results": results,
                  "modules": modules}))
"""
    report = _run_fresh(script)
    assert report["alive"] == 0
    expected = _scipy_tridiag(np.full(3, 2.0), np.full(2, -1.0)).tolist()
    assert report["results"] == [expected] * 8
    if numpy_dsterf:
        assert report["modules"] == []


def test_weyl_stability_property():
    weyl_suite(trials=100)
