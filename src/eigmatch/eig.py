"""Eigenvalue computation contracts used by every experiment.

Thin wrappers around LAPACK fixing the package-wide conventions: ascending
order, Hermiticity validated on input, an empty spectrum for a 0 x 0 dense
matrix, and a tridiagonal path that never densifies (the n = 10^4
finite-difference tables are the binding size).

Importing the package does not load scipy (about 0.3 s of a CLI start),
and no dense or pencil solve does.  ``eig_sym`` is numpy's ``eigvalsh``:
LAPACK ``syevd`` for real input and ``heevd`` for complex input, whatever
its imaginary part (every matrix the package builds is real).  It solves
a copy of its input; that is cheap at the spline sizes, where a ctypes
call cost about 25 us more than numpy's own at N = 20-60 (2-CPU Xeon).

``eig_sym_inplace`` makes numpy's real call, ``dsyevd`` with jobz 'N',
uplo 'L' and the queried workspace, on the caller's own Fortran-ordered
array, which it destroys, so its values are ``eig_sym``'s bit for bit and
no copy is made: ``mn-table`` holds one 2048-wide Toeplitz half at
n = 4096, not the half and a copy of it.

``eig_gen_sym_def`` solves a real pencil (K, M) with one LAPACK ``dsygv``
call: the Cholesky factor M = L L^T, the reduction to L^-1 K L^-T in place
(``dsygst``) and a symmetric solve, about 2.7 N^3 flops where an explicit
inverse and two products take about 7 N^3.  Its workspace size comes from
an ``lwork = -1`` query, as ``scipy.linalg.eigh(K, M, driver="gv")`` asks
it.  A complex pencil, the stacked symbol pencils of ``galerkin``, and a
real pencil where numpy's OpenBLAS exports no ``dsygv`` go through the same
reduction in numpy (``_pencil_eigvalsh``), forming L^-1 explicitly: it is
the only batched path.

The tridiagonal path calls LAPACK ``dsterf`` (Pal-Walker-Kahan QR, values
only), the routine that ``scipy.linalg.eigh_tridiagonal(d, e,
eigvals_only=True)`` reaches too, so the values are bit-identical to it.

``dsterf``, ``dsygv`` and ``dsyevd`` are bound with ``ctypes`` from the
OpenBLAS that numpy's wheels vendor and have already loaded
(``scipy_dsterf_64_`` in numpy 2, ``dsterf_64_`` in the numpy 1.x ILP64
wheels, both with 64-bit LAPACK integers; likewise for the others), so no
second LAPACK is loaded, and a ctypes call releases the interpreter lock,
so the concurrent solves of ``mn-table2d`` run on separate cores.  Where
numpy vendors no such library (conda, MKL, Accelerate builds), ``dsterf``
falls back to scipy's public ``scipy.linalg.lapack.dsterf`` (numpy has no
tridiagonal solver): the same routine and the same values, but its
wrapper holds the lock for the whole solve, so there the solves run one
at a time; ``eig_sym_inplace`` falls back to ``np.linalg.eigvalsh``, which
copies.  Each routine is bound on its first solve, never at import.

Dense and pencil inputs must be finite and Hermitian within 1e-10 of their
largest entry: otherwise ``ValueError`` is raised before LAPACK sees them,
as on the tridiagonal path.  The check compares one panel of rows at a
time, so it holds no n x n temporary either.

``one_blas_thread`` pins the OpenBLAS that numpy vendors to one thread for
the duration of a ``with`` block, or of a call to a function it decorates;
the CLI's ``main`` runs in one from its first line, before the arguments
are parsed, and every experiment and every runner that solves holds its
own, so a runner called from Python pins and restores the count too.
At the package's sizes (at most a few hundred) a second thread saves no
wall time, and OpenBLAS's idle workers busy-wait after each threaded call,
about doubling the CPU time.  numpy's OpenBLAS starts its workers when
numpy is imported, and a count of 1 leaves them spinning, so the
outermost scope also stops them with ``blas_thread_shutdown_``, after
setting the count: any later set starts them again, as restoring the
count does on exit (from the CLI, once, when ``main`` returns).  It stops
them only when its thread is the only Python thread, since a stop frees
the buffers of a threaded call that another thread may be in.  The
setting is process-wide (OpenBLAS's thread-local setter changes it for
every thread too), so it belongs to the caller that owns the run, not to
each solve: a per-solve toggle would race between Python threads and make
the round-off depend on timing.  The get, set and shutdown functions are bound with ``ctypes`` on
the first use, never at import; with another BLAS nothing is bound and the
count is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "NotPositiveDefiniteError", "eig_sym", "eig_sym_inplace", "eig_sym_tridiag",
           "eig_gen_sym_def"]

_HERM_RTOL = 1e-10
_CHECK_PANEL = 2**15  # entries per row panel of the Hermitian check

# C get/set pairs for the thread count of the OpenBLAS in numpy's wheels,
# newest naming first (numpy 2.x, then the 64-bit and plain builds)
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _numpy_openblas():
    """The OpenBLAS shared library numpy vendors, as a ``ctypes.CDLL``, or None.

    Another BLAS (MKL, Accelerate, a system library) is not vendored there.
    """
    import glob  # kept out of the CLI start, like the bindings themselves

    package = np.__path__[0]
    paths = sorted(glob.glob(os.path.join(os.path.dirname(package), "numpy.libs", "*openblas*"))
                   + glob.glob(os.path.join(package, ".dylibs", "*openblas*")))
    for path in paths:
        try:
            return ctypes.CDLL(path)  # already loaded by numpy: the same instance
        except OSError:
            continue
    return None


@functools.cache
def _bind_blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy vendors, or None.

    Without such a pair the thread count is left alone.
    """
    lib = _numpy_openblas()
    if lib is None:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_FUNCS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            return (ctypes.CFUNCTYPE(ctypes.c_int)((get_name, lib)),
                    ctypes.CFUNCTYPE(None, ctypes.c_int)((set_name, lib)))
    return None


_INT_P, _DOUBLE_P = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)


def _numpy_lapack(names, *argtypes):
    """The first routine of ``names`` that numpy's OpenBLAS exports, or None.

    Returned as a ``ctypes`` function of ``argtypes`` returning nothing;
    CFUNCTYPE (not PYFUNCTYPE), so each call releases the GIL.
    """
    lib = _numpy_openblas()
    name = next((n for n in names if lib is not None and hasattr(lib, n)), None)
    return None if name is None else ctypes.CFUNCTYPE(None, *argtypes)((name, lib))


# LAPACK routines in numpy's OpenBLAS, newest naming first; both take 64-bit integers
_DSTERF_NAMES = ("scipy_dsterf_64_", "dsterf_64_")
_DSYGV_NAMES = ("scipy_dsygv_64_", "dsygv_64_")
_DSYEVD_NAMES = ("scipy_dsyevd_64_", "dsyevd_64_")


@functools.cache
def _bind_dsterf():
    """``solve(d, e) -> info``: dsterf on float64 C arrays, d overwritten in place.

    On success d holds the eigenvalues ascending and e is destroyed.  Bound
    from numpy's OpenBLAS, else from scipy.  Concurrent first calls may each
    bind; the results are equivalent.
    """
    dsterf = _numpy_lapack(_DSTERF_NAMES, _INT_P, _DOUBLE_P, _DOUBLE_P, _INT_P)
    if dsterf is None:
        from scipy.linalg.lapack import dsterf as scipy_dsterf  # holds the GIL for the solve

        def solve(d, e):
            values, info = scipy_dsterf(d, e, overwrite_d=True, overwrite_e=True)
            d[:] = values
            return info

        return solve

    def solve(d, e):
        n, info = ctypes.c_int64(d.size), ctypes.c_int64(0)
        dsterf(ctypes.byref(n), d.ctypes.data_as(_DOUBLE_P), e.ctypes.data_as(_DOUBLE_P),
               ctypes.byref(info))
        return info.value

    return solve


@functools.cache
def _bind_dsygv():
    """``solve(a, b) -> (w, info)``: dsygv eigenvalues of the pencil (a, b).

    Itype 1 (a x = w b x), jobz 'N', uplo 'L', on float64 Fortran arrays
    that are destroyed; the workspace size comes from an ``lwork = -1``
    query, as in ``scipy.linalg.eigh(a, b, driver="gv")``.  Bound from
    numpy's OpenBLAS; None where it exports no dsygv.  Concurrent first
    calls may each bind; the results are equivalent.
    """
    char_p, size = ctypes.c_char_p, ctypes.c_size_t
    # ITYPE, JOBZ, UPLO, N, A, LDA, B, LDB, W, WORK, LWORK, INFO, then the
    # lengths of the two character arguments that Fortran passes hidden
    dsygv = _numpy_lapack(_DSYGV_NAMES, _INT_P, char_p, char_p, _INT_P, _DOUBLE_P, _INT_P,
                          _DOUBLE_P, _INT_P, _DOUBLE_P, _DOUBLE_P, _INT_P, _INT_P, size, size)
    if dsygv is None:
        return None

    def call(a, b, w, work, lwork):
        itype, n = ctypes.c_int64(1), ctypes.c_int64(a.shape[0])
        lwork, info = ctypes.c_int64(lwork), ctypes.c_int64(0)
        dsygv(ctypes.byref(itype), b"N", b"L", ctypes.byref(n), a.ctypes.data_as(_DOUBLE_P),
              ctypes.byref(n), b.ctypes.data_as(_DOUBLE_P), ctypes.byref(n),
              w.ctypes.data_as(_DOUBLE_P), work.ctypes.data_as(_DOUBLE_P), ctypes.byref(lwork),
              ctypes.byref(info), 1, 1)
        return info.value

    def solve(a, b):
        w, query = np.empty(a.shape[0]), np.empty(1)
        info = call(a, b, w, query, -1)  # the optimal workspace size lands in query[0]
        if info == 0:
            lwork = int(query[0])
            info = call(a, b, w, np.empty(lwork), lwork)
        return w, info

    return solve


@functools.cache
def _bind_dsyevd():
    """``solve(a) -> (w, info)``: dsyevd eigenvalues of a, which is destroyed.

    Jobz 'N', uplo 'L', on a float64 Fortran array; ``lwork`` and
    ``liwork`` come from a query with both at -1, the call numpy's
    ``eigvalsh`` makes on its own copy.  Bound from numpy's OpenBLAS; None
    where it exports no dsyevd.  Concurrent first calls may each bind; the
    results are equivalent.
    """
    char_p, size = ctypes.c_char_p, ctypes.c_size_t
    # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO, then the
    # lengths of the two character arguments that Fortran passes hidden
    dsyevd = _numpy_lapack(_DSYEVD_NAMES, char_p, char_p, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P,
                           _DOUBLE_P, _INT_P, _INT_P, _INT_P, _INT_P, size, size)
    if dsyevd is None:
        return None

    def call(a, w, work, lwork, iwork, liwork):
        n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64(0)
        lwork, liwork = ctypes.c_int64(lwork), ctypes.c_int64(liwork)
        dsyevd(b"N", b"L", ctypes.byref(n), a.ctypes.data_as(_DOUBLE_P), ctypes.byref(n),
               w.ctypes.data_as(_DOUBLE_P), work.ctypes.data_as(_DOUBLE_P), ctypes.byref(lwork),
               iwork.ctypes.data_as(_INT_P), ctypes.byref(liwork), ctypes.byref(info), 1, 1)
        return info.value

    def solve(a):
        w, query, iquery = np.empty(a.shape[0]), np.empty(1), np.empty(1, dtype=np.int64)
        info = call(a, w, query, -1, iquery, -1)  # the optimal sizes land in the queries
        if info == 0:
            lwork, liwork = int(query[0]), int(iquery[0])
            info = call(a, w, np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)
        return w, info

    return solve


@functools.cache
def _bind_blas_shutdown():
    """``shutdown()``: stop the worker threads of numpy's OpenBLAS, or None.

    OpenBLAS's ``blas_thread_shutdown_``; the next set of the thread count,
    or the next threaded call, starts the workers again.  None where numpy's
    OpenBLAS exports no such function.
    """
    return _numpy_lapack(("blas_thread_shutdown_",))


_THREADS_LOCK = threading.Lock()
_one_thread_depth = 0
_saved_threads = 0


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count.

    The count is process state, so overlapping scopes (nested, or in other
    Python threads) share one setting: the first to enter saves the count
    and the last to leave restores it.  The first to enter also stops the
    idle workers, which would otherwise spin, when it is the only Python
    thread: stopping them while another thread is in a threaded BLAS call
    would free that call's buffers.  Restoring the count starts them again.
    Binds on the first use.  As a decorator, ``@one_blas_thread()``, it
    scopes each call of the function.
    """
    global _one_thread_depth, _saved_threads
    pair = _bind_blas_threads()
    if pair is None:
        yield
        return
    get, set_ = pair
    with _THREADS_LOCK:
        if _one_thread_depth == 0:
            _saved_threads = get()
            set_(1)  # after a shutdown, any set starts the workers again
            shutdown = _bind_blas_shutdown()
            if shutdown is not None and threading.active_count() == 1:
                shutdown()
        _one_thread_depth += 1
    try:
        yield
    finally:
        with _THREADS_LOCK:
            _one_thread_depth -= 1
            if _one_thread_depth == 0:
                set_(_saved_threads)


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a matrix, finite and ascending."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1).copy()
        # finite first: a lone NaN has no differences, and inf - inf warns
        if not (np.isfinite(v).all() and np.all(np.diff(v) >= 0)):
            raise ValueError("spectrum values must be finite and ascending")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def _check_hermitian(A: np.ndarray, name: str = "matrix"):
    """Entrywise |A - A^H| <= 1e-10 * max(1, max|A|), so the test scales with A.

    A NaN or infinity in A raises ValueError first.  The difference is
    taken one panel of rows at a time, at most ``_CHECK_PANEL`` entries
    each, so no n x n temporary is formed; a matrix up to 181 wide is one
    panel.  For real A, A - A^T is exactly antisymmetric in floating point,
    so its maximum is max|A - A^T| and neither |A| nor |A - A^T| is formed.
    """
    real = not np.iscomplexobj(A)
    n = A.shape[0]
    rows = max(1, _CHECK_PANEL // n)
    if real:
        peak = max(float(A.max()), -float(A.min()))
    else:
        peak = max(float(np.abs(A[i : i + rows]).max()) for i in range(0, n, rows))
    if not math.isfinite(peak):
        raise ValueError("array must not contain infs or NaNs")
    tol = _HERM_RTOL * max(1.0, peak)
    asymmetry = 0.0
    for i in range(0, n, rows):
        mirror = A[:, i : i + rows].T
        diff = A[i : i + rows] - (mirror if real else mirror.conj())
        asymmetry = max(asymmetry, float(diff.max() if real else np.abs(diff).max()))
    if asymmetry > tol:
        raise ValueError(f"{name} is not Hermitian within {tol:.3g} entrywise")


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """The mass matrix of a generalized problem failed its Cholesky factorization.

    A ``np.linalg.LinAlgError``, and so a ``ValueError``.
    """


def _pencil_eigvalsh(K: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian pencils (K, M), stacked over (..., k, k).

    With M = L L^H, solves the standard problem for L^-1 K L^-H, forming
    L^-1 explicitly: one inverse and two products were faster than two
    general solves.  Raises ``NotPositiveDefiniteError`` when a Cholesky
    factorization fails, that is when some M is not positive definite; a
    failure of the symmetric solve stays a plain ``np.linalg.LinAlgError``.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"mass matrix is not positive definite: {exc}") from exc
    Li = np.linalg.inv(L)
    return np.linalg.eigvalsh(Li @ K @ Li.conj().swapaxes(-1, -2))


def eig_sym(A) -> Spectrum:
    """Eigenvalues of a real symmetric or complex Hermitian matrix, ascending."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.size == 0:
        return Spectrum(np.empty(0))
    _check_hermitian(A)
    return Spectrum(np.linalg.eigvalsh(A))


def eig_sym_inplace(A: np.ndarray) -> Spectrum:
    """Eigenvalues of a real symmetric matrix, ascending, solved in A's own storage.

    A must be a writeable, Fortran-contiguous float64 square array, and it
    is destroyed: LAPACK ``dsyevd`` reads its lower triangle, the call that
    numpy's ``eigvalsh`` makes on a copy, so the values equal
    ``eig_sym(A)`` bit for bit.  The input checks are ``eig_sym``'s.  The
    first call with n >= 1 binds ``dsyevd``; where numpy's OpenBLAS exports
    none, A is solved by ``np.linalg.eigvalsh``, which copies it.
    """
    if not (isinstance(A, np.ndarray) and A.dtype == np.float64 and A.ndim == 2
            and A.shape[0] == A.shape[1]):
        raise ValueError("matrix must be a square float64 array")
    if not (A.flags.f_contiguous and A.flags.writeable):
        raise ValueError("matrix must be writeable and Fortran-contiguous")
    if A.size == 0:
        return Spectrum(np.empty(0))
    _check_hermitian(A)
    dsyevd = _bind_dsyevd()
    if dsyevd is None:
        return Spectrum(np.linalg.eigvalsh(A))
    w, info = dsyevd(A)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed (info={info})")
    return Spectrum(w)


def eig_sym_tridiag(diag, offdiag) -> Spectrum:
    """Eigenvalues of a symmetric tridiagonal matrix, ascending.

    Stays in band storage; intended for sizes up to 1e4 and beyond.  LAPACK
    works in place on private copies, and the solve releases the GIL.  The
    first call with n >= 2 binds ``dsterf``.
    """
    d = np.array(diag, dtype=np.float64, order="C").reshape(-1)
    e = np.array(offdiag, dtype=np.float64, order="C").reshape(-1)
    if d.size == 0 or e.size != d.size - 1:
        raise ValueError(f"inconsistent lengths: diag {d.size}, offdiag {e.size}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if d.size == 1:
        return Spectrum(d)
    info = _bind_dsterf()(d, e)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsterf failed to converge (info={info})")
    return Spectrum(d)


def eig_gen_sym_def(K, M) -> Spectrum:
    """Eigenvalues of the pencil (K, M) with M symmetric positive definite.

    Real input is one LAPACK ``dsygv`` call (Cholesky reduction of M, then
    a symmetric solve) on private copies; complex input, and real input
    where numpy's OpenBLAS exports no ``dsygv``, go through the same
    reduction in numpy.  All eigenvalues are real and returned
    ascending.  A failed Cholesky raises ``NotPositiveDefiniteError``, a
    symmetric solve that fails to converge ``np.linalg.LinAlgError``.
    """
    K = np.asarray(K)
    M = np.asarray(M)
    if K.shape != M.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K and M must be square matrices of the same size")
    if K.size == 0:
        return Spectrum(np.empty(0))
    for name, X in (("K", K), ("M", M)):
        _check_hermitian(X, name)
    dsygv = None if np.iscomplexobj(K) or np.iscomplexobj(M) else _bind_dsygv()
    if dsygv is None:
        return Spectrum(_pencil_eigvalsh(K, M))
    n = K.shape[0]
    w, info = dsygv(np.array(K, dtype=np.float64, order="F"),
                    np.array(M, dtype=np.float64, order="F"))
    if info > n:  # the leading minor of order info - n is not positive definite
        raise NotPositiveDefiniteError(
            f"mass matrix is not positive definite: leading minor of order {info - n}")
    if info != 0:
        raise np.linalg.LinAlgError(f"dsygv failed (info={info})")
    return Spectrum(w)
