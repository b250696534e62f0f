import pytest

from eigmatch.eig import _DSTERF_NAMES, _bind_blas_threads, _numpy_openblas


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
    lib = _numpy_openblas()
    return lib is not None and any(hasattr(lib, name) for name in _DSTERF_NAMES)
