"""Eigenvalue computation contracts used by every experiment.

Thin wrappers around LAPACK fixing the package-wide conventions: ascending
order, input that is finite and Hermitian within 1e-10 of its largest
entry (``ValueError`` before LAPACK sees it), an empty spectrum for a
0 x 0 dense matrix, and a tridiagonal path that never densifies (the
n = 10^4 finite-difference tables are the binding size).

Importing the package loads no scipy (about 0.3 s of a CLI start), and no
dense or pencil solve does.  ``dsyevd``, ``dsygv`` and ``dsterf`` are bound
with ``ctypes``, each on its first solve and never at import, from the
OpenBLAS that numpy's wheels vendor and have already loaded, so no second
LAPACK is loaded; a ctypes call releases the interpreter lock, so the
concurrent solves of ``mn-table2d`` run on separate cores.  A binder
returns its routine, or None where numpy vendors no such library (conda,
MKL, Accelerate builds), and each solver owns its fallback:
``eig_sym_inplace`` calls ``np.linalg.eigvalsh``, which copies,
``eig_gen_sym_def`` reduces the pencil in numpy, and ``eig_sym_tridiag``
calls scipy's ``dsterf``, the same routine with the same values, whose
wrapper holds the lock for the whole solve.

``one_blas_thread`` runs its body with numpy's OpenBLAS on one thread.  At
the package's sizes (at most a few hundred) a second thread saves no wall
time, OpenBLAS's idle workers busy-wait after each threaded call, about
doubling the CPU time, and one thread makes the round-off independent of
the core count.  The count is process-wide (OpenBLAS's thread-local setter
changes it for every thread too), so it belongs to the caller that owns
the run, not to each solve: a per-solve toggle would race between Python
threads and make the round-off depend on timing.  numpy starts the workers
at import and every set of the count starts them again, so each set is
followed by ``blas_thread_shutdown_`` when only one Python thread runs; a
later threaded call starts them again.  With another BLAS nothing is bound
and the count is left alone.
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


def _numpy_lapack(names, restype=None):
    """The first function of ``names`` that numpy's OpenBLAS exports, or None.

    A ``ctypes`` function returning ``restype``, with no declared argument
    types; CFUNCTYPE (not PYFUNCTYPE), so each call releases the GIL.
    """
    lib = _numpy_openblas()
    name = next((n for n in names if lib is not None and hasattr(lib, n)), None)
    return None if name is None else ctypes.CFUNCTYPE(restype)((name, lib))


_CHAR_LENGTH = ctypes.c_size_t(1)  # the hidden length of a character argument


def _fortran(names):
    """``call(*args) -> info`` for the first LAPACK routine of ``names``, or None.

    The routine must take 64-bit integers.  An int is passed as such an
    integer by reference, an array as its data pointer and ``bytes`` as a
    character; INFO is appended, then the hidden length of each character.
    """
    routine = _numpy_lapack(names)
    if routine is None:
        return None

    def call(*args):
        info = ctypes.c_int64(0)
        refs = [ctypes.byref(ctypes.c_int64(a)) if type(a) is int
                else a if type(a) is bytes else ctypes.c_void_p(a.ctypes.data) for a in args]
        routine(*refs, ctypes.byref(info), *[_CHAR_LENGTH for a in args if type(a) is bytes])
        return info.value

    return call


def _with_workspace(call, args, dtypes):
    """INFO of ``call(*args, work, lwork, ...)``, with one workspace array per dtype.

    Each array is followed by its size.  A query with every size -1 leaves
    the optimal sizes in the query arrays; then the routine runs with
    arrays of those sizes, unless the query failed.
    """
    queries = [np.empty(1, dtype) for dtype in dtypes]
    info = call(*args, *(x for query in queries for x in (query, -1)))
    if info == 0:
        sizes = [int(query[0]) for query in queries]
        info = call(*args, *(x for size, dtype in zip(sizes, dtypes)
                             for x in (np.empty(size, dtype), size)))
    return info


# Each binder returns its routine, or None where numpy's OpenBLAS exports
# none; concurrent first calls may each bind, with equivalent results.
# LAPACK symbols are tried newest naming first: numpy 2, then numpy 1.x.

@functools.cache
def _bind_blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy vendors, or None."""
    for get_name, set_name in _OPENBLAS_THREAD_FUNCS:
        get, set_ = _numpy_lapack((get_name,), ctypes.c_int), _numpy_lapack((set_name,))
        if get is not None and set_ is not None:
            return get, set_
    return None


@functools.cache
def _bind_blas_shutdown():
    """``shutdown()``: stop the worker threads of numpy's OpenBLAS, or None.

    OpenBLAS's ``blas_thread_shutdown_``; the next set of the thread count,
    or the next threaded call, starts the workers again.
    """
    return _numpy_lapack(("blas_thread_shutdown_",))


@functools.cache
def _bind_dsterf():
    """``solve(d, e) -> info``: dsterf on float64 C arrays, d overwritten in place.

    On success d holds the eigenvalues ascending and e is destroyed.
    """
    call = _fortran(("scipy_dsterf_64_", "dsterf_64_"))
    return None if call is None else lambda d, e: call(d.size, d, e)


@functools.cache
def _bind_dsygv():
    """``solve(a, b) -> (w, info)``: dsygv eigenvalues of the pencil (a, b).

    Itype 1 (a x = w b x), jobz 'N', uplo 'L', on float64 Fortran arrays
    that are destroyed, with the workspace query of
    ``scipy.linalg.eigh(a, b, driver="gv")``.
    """
    call = _fortran(("scipy_dsygv_64_", "dsygv_64_"))
    if call is None:
        return None

    def solve(a, b):
        n = a.shape[0]
        w = np.empty(n)
        # ITYPE, JOBZ, UPLO, N, A, LDA, B, LDB, W, then WORK and LWORK
        return w, _with_workspace(call, (1, b"N", b"L", n, a, n, b, n, w), (np.float64,))

    return solve


@functools.cache
def _bind_dsyevd():
    """``solve(a) -> (w, info)``: dsyevd eigenvalues of a, which is destroyed.

    Jobz 'N', uplo 'L', on a float64 Fortran array, with the workspace
    query that numpy's ``eigvalsh`` makes on its own copy.
    """
    call = _fortran(("scipy_dsyevd_64_", "dsyevd_64_"))
    if call is None:
        return None

    def solve(a):
        n = a.shape[0]
        w = np.empty(n)
        # JOBZ, UPLO, N, A, LDA, W, then WORK, LWORK, IWORK and LIWORK
        return w, _with_workspace(call, (b"N", b"L", n, a, n, w), (np.float64, np.int64))

    return solve


_THREADS_LOCK = threading.Lock()
_one_thread_depth = 0
_saved_threads = 0


def _set_threads(set_, count):
    """Set the thread count, then stop the workers that the set starts.

    Only when this is the one Python thread: a stop frees the buffers of a
    threaded call that another thread may be in.
    """
    set_(count)
    shutdown = _bind_blas_shutdown()
    if shutdown is not None and threading.active_count() == 1:
        shutdown()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count.

    The count is process state, so overlapping scopes (nested, or in other
    Python threads) share one setting: the first to enter saves the count
    and the last to leave restores it, each through ``_set_threads``, so
    neither leaves an idle worker spinning when it is the only Python
    thread.  Binds on the first use.  As a decorator,
    ``@one_blas_thread()``, it scopes each call of the function.
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
            _set_threads(set_, 1)
        _one_thread_depth += 1
    try:
        yield
    finally:
        with _THREADS_LOCK:
            _one_thread_depth -= 1
            if _one_thread_depth == 0:
                _set_threads(set_, _saved_threads)


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
    """Eigenvalues of a real symmetric or complex Hermitian matrix, ascending.

    numpy's ``eigvalsh`` (LAPACK syevd, or heevd for complex input) on a
    copy of A: at N = 20-60 that is about 21 us faster than the ctypes
    call of ``eig_sym_inplace`` (2-CPU Xeon).
    """
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
    ``dsterf`` (Pal-Walker-Kahan QR, values only, the routine that
    ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)`` reaches, so
    the values are bit-identical to it) works in place on private copies,
    and the solve releases the GIL.  The first call with n >= 2 binds it;
    where numpy's OpenBLAS exports none, scipy's ``dsterf`` solves instead.
    """
    d = np.array(diag, dtype=np.float64, order="C").reshape(-1)
    e = np.array(offdiag, dtype=np.float64, order="C").reshape(-1)
    if d.size == 0 or e.size != d.size - 1:
        raise ValueError(f"inconsistent lengths: diag {d.size}, offdiag {e.size}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if d.size == 1:
        return Spectrum(d)
    dsterf = _bind_dsterf()
    if dsterf is None:
        from scipy.linalg.lapack import dsterf as scipy_dsterf  # holds the GIL for the solve

        d, info = scipy_dsterf(d, e, overwrite_d=True, overwrite_e=True)
    else:
        info = dsterf(d, e)
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
