import pytest

from eigmatch.eig import _bind_blas_threads, _bind_dsterf


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for the test."""
    pair = _bind_blas_threads()
    if pair is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    get, set_ = pair
    old = get()
    set_(2)
    yield get
    set_(old)


@pytest.fixture
def numpy_dsterf():
    """Whether numpy's vendored OpenBLAS exports dsterf, so that no solve needs scipy."""
    return _bind_dsterf() is not None
