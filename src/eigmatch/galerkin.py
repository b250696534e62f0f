"""Discretization matrix builders and the spline symbol/grid machinery.

Covers three matrix families used by the experiments:

- variable-coefficient second-order finite differences (tridiagonal),
- the tensor-product biquadratic Galerkin matrix K (x) M + M (x) K, built
  from the C^1 quadratic spline matrices below,
- stiffness/mass matrices of degree-p, smoothness-C^k spline spaces on [0, 1],
  together with their (p-k) x (p-k) block symbols and the uniform grids on
  which the scaled matrices have exactly the branch samples as eigenvalues.

B-splines are evaluated with the knot-span table recursion, batched over
arrays of points and knot vectors: one pass covers every quadrature node of
an assembly, or of a whole sweep over n (``assemble_KM_sweep``).  The basis
stays private; the module exposes the assembled matrices.  All
Galerkin integrals use Gauss-Legendre with p+1 nodes per knot span, which is
exact for the degree <= 2p piecewise-polynomial integrands, so the assembled
matrices agree with the symbolic ones to rounding error.

The block symbols take a scalar angle or an array of angles.  The
verification and inference routines take the branch values as a table: the
ascending branch values at the n+1 angles of the full grid, shape
(n+1, number of branches), from which they read n and the branch count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .eig import NotPositiveDefiniteError, Spectrum, _pencil_eigvalsh
from .match import sorted_match

__all__ = [
    "ReferenceBlocks",
    "GridKind",
    "reference_blocks",
    "symbol_f",
    "symbol_h",
    "symbol_e_branches",
    "assemble_KM",
    "assemble_KM_sweep",
    "fd_matrix",
    "iga_2d_matrix",
    "seq_a",
    "alpha",
    "grid_points",
    "grid_assign_M",
    "grid_assign_L",
    "verify_eig_formula",
    "infer_grid_assignment",
]


# ---------------------------------------------------------------------------
# B-spline evaluation (knot-span table algorithm, batched over points)
# ---------------------------------------------------------------------------

def _basis_table(knots_list: Sequence[np.ndarray], p: int,
                 xs_list: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knot spans and the p+1 B-spline values and derivatives alive on them.

    Takes a list of knot vectors and a matching list of point arrays, and
    runs the Cox-de Boor table recursion once over all the points.  Returns
    (spans, values, derivs) concatenated in list order: for point q of
    ``xs_list[i]``, ``spans[q]`` satisfies t[s] <= x[q] < t[s+1] in
    ``knots_list[i]``, clamped into that basis domain, and row q of
    ``values``/``derivs`` (shape (N, p+1)) holds functions spans[q]-p ..
    spans[q].  Every point is computed as if alone, so batching changes no bit.
    """
    xs = [np.asarray(x, dtype=float).reshape(-1) for x in xs_list]
    spans = np.concatenate([
        np.clip(np.searchsorted(t, x, side="right") - 1, p, t.size - p - 2)
        for t, x in zip(knots_list, xs)
    ])
    # spans into the concatenated knot vectors
    starts = np.cumsum([0] + [t.size for t in knots_list[:-1]])
    at = spans + np.repeat(starts, [x.size for x in xs])
    knots = np.concatenate(knots_list)
    x = np.concatenate(xs)
    offsets = np.arange(1, p + 1)[:, None]
    left = x - knots[at + 1 - offsets]  # left[j-1] = x - t_{s+1-j}
    right = knots[at + offsets] - x  # right[j-1] = t_{s+j} - x
    values = np.ones((1, x.size))
    for j in range(1, p + 1):
        # ratio[r] = N_{s-j+1+r, j-1}(x) / (t_{s+r+1} - t_{s+r+1-j}), r = 0..j-1
        ratio = values / (right[:j] + left[j - 1::-1])
        values = np.zeros((j + 1, x.size))
        values[:j] = right[:j] * ratio
        values[1:] += left[j - 1::-1] * ratio
    # N'_{s-p+r, p} = p * (ratio[r-1] - ratio[r]) with the last (j = p) ratios
    derivs = np.zeros_like(values)
    derivs[1:] += ratio
    derivs[:-1] -= ratio
    derivs *= p
    return spans, values.T, derivs.T


def _full_rows(knots: np.ndarray, p: int, x) -> np.ndarray:
    """Every basis function, then every derivative, at every point: shape (2, N, nf)."""
    spans, values, derivs = _basis_table([knots], p, [x])
    out = np.zeros((2, spans.size, knots.size - p - 1))
    out[:, np.arange(spans.size)[:, None], spans[:, None] - p + np.arange(p + 1)] = values, derivs
    return out


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    gx.setflags(write=False)
    gw.setflags(write=False)
    return gx, gw


def _check_degrees(p: int, k: int):
    if p < 1 or not 0 <= k <= p - 1:
        raise ValueError(f"need p >= 1 and 0 <= k <= p-1, got p={p}, k={k}")


def _open_knots(n: int, p: int, k: int) -> np.ndarray:
    """Open knot vector of the degree-p, C^k spline space on [0, 1] with n elements.

    Boundary knots have multiplicity p+1 and the interior knots i/n
    multiplicity p-k, so the full basis holds n(p-k)+k+1 functions.
    """
    return np.concatenate(
        [np.zeros(p + 1), np.repeat(np.arange(1, n) / n, p - k), np.ones(p + 1)]
    )


# ---------------------------------------------------------------------------
# Reference basis on [0, eta] and its stiffness/mass blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceBlocks:
    """Blocks of the interior (block Toeplitz) pattern of the spline matrices.

    ``Kblocks[l]`` and ``Mblocks[l]`` hold the (p-k) x (p-k) integrals of the
    reference basis derivatives/values against their shift by l, l = 0..eta-1.
    The l = 0 mass block is symmetric positive definite and the l = 0
    stiffness block symmetric positive semidefinite.
    """

    p: int
    k: int
    eta: int
    Kblocks: tuple[np.ndarray, ...]
    Mblocks: tuple[np.ndarray, ...]


def _reference_knots(p: int, k: int) -> tuple[np.ndarray, int, int]:
    """Padded knot vector of the reference basis plus (first index, eta).

    The reference functions live on integers 0..eta with every knot of
    multiplicity p-k; padding both ends up to multiplicity p+1 clamps the
    vector without changing the p-k functions of interest, whose padded
    indices start at k+1.
    """
    eta = math.ceil((p + 1) / (p - k))
    ref = np.repeat(np.arange(eta + 1), p - k).astype(float)
    padded = np.concatenate([np.zeros(k + 1), ref, np.full(k + 1, float(eta))])
    return padded, k + 1, eta


def _reference_values(p: int, k: int, ts: np.ndarray) -> np.ndarray:
    """Matrices beta_r(t), then beta_r'(t), for r = 1..p-k: shape (2, ts.size, p-k)."""
    knots, first, eta = _reference_knots(p, k)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    out = _full_rows(knots, p, ts)[:, :, first:first + p - k]
    out[:, (ts < 0.0) | (ts > eta)] = 0.0
    return out


@lru_cache(maxsize=None)
def reference_blocks(p: int, k: int) -> ReferenceBlocks:
    """Stiffness and mass blocks of the reference basis, exactly integrated.

    One basis-table pass gives the values and derivatives at every
    quadrature node t and its shifts t - l; the (l, span) terms are summed
    in span order, so each block is bit-identical to integrating span by span.
    """
    _check_degrees(p, k)
    _, _, eta = _reference_knots(p, k)
    gx, gw = _gauss_legendre(p + 1)
    w = 0.5 * gw
    ts = np.arange(eta)[:, None] + 0.5 + 0.5 * gx  # (span, node)
    shifted = ts - np.arange(eta)[:, None, None]  # (l, span, node): t - l
    V, D = _reference_values(p, k, shifted).reshape((2,) + shifted.shape + (p - k,))
    Kblocks, Mblocks = [], []
    for ell in range(eta):
        K = np.zeros((p - k, p - k))
        M = np.zeros((p - k, p - k))
        for span in range(ell, eta):  # beta(t - ell) vanishes for t < ell
            # entry (r, s) integrates beta_s(t) * beta_r(t - ell)
            K += np.einsum("q,qs,qr->rs", w, D[0, span], D[ell, span])
            M += np.einsum("q,qs,qr->rs", w, V[0, span], V[ell, span])
        Kblocks.append(K)
        Mblocks.append(M)
    return ReferenceBlocks(p=p, k=k, eta=eta, Kblocks=tuple(Kblocks), Mblocks=tuple(Mblocks))


def _trig_block_sum(blocks: Sequence[np.ndarray], theta) -> np.ndarray:
    """B_0 + sum_l (B_l e^{il theta} + B_l^T e^{-il theta}), batched over theta.

    A scalar angle gives shape (m, m); an array of angles of shape S gives
    shape S + (m, m).
    """
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + blocks[0].shape, dtype=complex)
    out += blocks[0]
    for ell in range(1, len(blocks)):
        phase = np.exp(1j * ell * theta)[..., None, None]
        out += blocks[ell] * phase + blocks[ell].T * np.conj(phase)
    return out


def symbol_f(p: int, k: int, theta) -> np.ndarray:
    """Stiffness symbol: Hermitian (p-k) x (p-k) trigonometric block sum.

    ``theta`` may be a scalar (result (p-k, p-k)) or an array of N angles
    (result (N, p-k, p-k)).
    """
    rb = reference_blocks(p, k)
    return _trig_block_sum(rb.Kblocks, theta)


def symbol_h(p: int, k: int, theta) -> np.ndarray:
    """Mass symbol: Hermitian positive definite block sum (batched like symbol_f)."""
    rb = reference_blocks(p, k)
    return _trig_block_sum(rb.Mblocks, theta)


def symbol_e_branches(p: int, k: int, theta) -> np.ndarray:
    """Ascending generalized eigenvalues of (stiffness, mass) symbols at theta.

    Reduces F x = lambda H x to the standard problem for L^-1 F L^-H with
    H = L L^H (the LAPACK *hegv reduction), stacked over all angles: a scalar
    angle gives shape (p-k,), an array of N angles shape (N, p-k).
    """
    F = symbol_f(p, k, theta)
    H = symbol_h(p, k, theta)
    try:
        return _pencil_eigvalsh(F, H)
    except NotPositiveDefiniteError as exc:  # mass symbol is PD by construction
        raise RuntimeError(f"mass symbol not positive definite at theta={theta}") from exc


# ---------------------------------------------------------------------------
# Galerkin assembly on [0, 1]
# ---------------------------------------------------------------------------

def assemble_KM_sweep(ns: Sequence[int], p: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stiffness and mass matrices of the boundary-vanishing spline basis, per n.

    Yields (K, M) for each n of ``ns`` in order, as :func:`assemble_KM`
    builds them, bit for bit.  Element-wise Gauss-Legendre assembly with p+1
    nodes per element: one B-spline table pass covers the n(p+1) nodes of
    every n, and one contraction forms every element block.  Each n's
    blocks are scattered with one ``add.at`` only when its pair is
    requested, so a caller that drops each pair holds one n's matrices at a
    time; the two dropped boundary functions land in a pad row/column that
    is sliced off.
    The arguments are checked at the call, before the first pair.
    """
    ns = list(ns)
    if any(n < 2 for n in ns):
        raise ValueError("n must be >= 2")
    _check_degrees(p, k)
    if not ns:
        return iter(())
    gx, gw = _gauss_legendre(p + 1)
    h = [1.0 / n for n in ns]
    xs = [(np.arange(n)[:, None] + 0.5 + 0.5 * gx) * hn for n, hn in zip(ns, h)]
    w = np.repeat([0.5 * hn * gw for hn in h], ns, axis=0)  # (element, node)
    spans, values, derivs = _basis_table([_open_knots(n, p, k) for n in ns], p, xs)
    shape = (-1, p + 1, p + 1)  # (element, node, local function)
    V, D = values.reshape(shape), derivs.reshape(shape)
    Ke = np.einsum("eq,eqa,eqb->eab", w, D, D)
    Me = np.einsum("eq,eqa,eqb->eab", w, V, V)
    first = spans.reshape(-1, p + 1)[:, :1] - p - 1  # matrix index of local function 0
    return _scatter_KM(ns, p, k, first, Ke, Me)


def _scatter_KM(ns, p, k, first, Ke, Me):
    """Scatter each n's element blocks into its (K, M), one n per ``next``."""
    start = 0
    for n in ns:
        dim = n * (p - k) + k - 1  # the first and last basis functions are dropped
        local = first[start:start + n] + np.arange(p + 1)
        local = np.where((local >= 0) & (local < dim), local, dim)
        rows, cols = local[:, :, None], local[:, None, :]
        K = np.zeros((dim + 1, dim + 1))
        M = np.zeros((dim + 1, dim + 1))
        np.add.at(K, (rows, cols), Ke[start:start + n])
        np.add.at(M, (rows, cols), Me[start:start + n])
        start += n
        yield K[:dim, :dim], M[:dim, :dim]


def assemble_KM(n: int, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and mass matrices of the boundary-vanishing spline basis.

    Both matrices are symmetric and positive definite of size n(p-k)+k-1.
    The one-element case of :func:`assemble_KM_sweep`.
    """
    return next(assemble_KM_sweep([n], p, k))


# ---------------------------------------------------------------------------
# Finite differences and the tensor-product biquadratic matrix
# ---------------------------------------------------------------------------

def fd_matrix(a: Callable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference matrix for -(a(x) u')' on the grid i/(n+1).

    Returns (diag, offdiag) of the symmetric tridiagonal matrix:
    diag_i = a_{i-1/2} + a_{i+1/2} and offdiag_i = -a_{i+1/2}, where
    a_t = a(t/(n+1)).  Raises ValueError unless n is an integer >= 1 and
    ``a`` returns n+1 finite values.
    """
    if not (float(n).is_integer() and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    half = (np.arange(n + 1) + 0.5) / (n + 1)  # t = 1/2, 3/2, ..., n+1/2
    av = np.asarray(a(half), dtype=float)
    if av.shape != half.shape:
        raise ValueError(f"coefficient a returned shape {av.shape}, expected {n + 1} values")
    finite = np.isfinite(av)
    if not finite.all():
        raise ValueError(f"coefficient a is not finite at x={float(half[~finite][0])!r}")
    diag = av[:-1] + av[1:]
    offdiag = -av[1:-1]
    return diag, offdiag


def iga_2d_matrix(n: int) -> np.ndarray:
    """Tensor-product biquadratic Galerkin matrix K (x) M + M (x) K, size n^2.

    K and M are the C^1 quadratic (p, k) = (2, 1) matrices of
    :func:`assemble_KM`, so n >= 2.  Scaled as K/n and n*M they have the
    interior stencils (6, -2, -1)/6 and (66, 26, 1)/120; the two scalings
    cancel in each Kronecker product.
    """
    K, M = assemble_KM(n, 2, 1)
    A = np.kron(K, M)
    A += np.kron(M, K)  # in place: two n^2 x n^2 buffers at a time, not three
    return A


# ---------------------------------------------------------------------------
# Integer sequence and eigenvalue grid taxonomy
# ---------------------------------------------------------------------------

def seq_a(m: int) -> int:
    """a(m) = m + floor(sqrt(8m)), computed with integer square roots."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return m + math.isqrt(8 * m)


def alpha(p: int) -> int:
    """Index of the first partial sum of seq_a reaching p - 2.

    Direct scan: the smallest a >= 1 with seq_a(1) + ... + seq_a(a) >= p - 2.
    Steps at p = 6, 12, 19, ... (the gap between consecutive steps is the next
    sequence term), which places the full-grid branch of the mass-family
    eigenvalue formulas; validated against the assembled matrices for every
    p <= 16 in the test suite.
    """
    if p < 3:
        raise ValueError("alpha is defined for p >= 3")
    total = 0
    a = 0
    while total < p - 2:
        a += 1
        total += seq_a(a)
    return max(a, 1)


class GridKind(Enum):
    """The four uniform grids {i*pi/n} with endpoints optionally removed."""

    FULL = "full"
    NO_ZERO = "no_zero"
    NO_PI = "no_pi"
    INTERIOR = "interior"


# Whether each grid kind keeps lambda_j(0) and lambda_j(pi), in the order
# inference prefers the kinds.
_KIND_KEEPS = {
    GridKind.FULL: (True, True),
    GridKind.NO_ZERO: (False, True),
    GridKind.NO_PI: (True, False),
    GridKind.INTERIOR: (False, False),
}


def _kind_rows(kind: GridKind) -> slice:
    """The rows of the full grid {i*pi/n : i = 0..n} that ``kind`` keeps."""
    keep_zero, keep_pi = _KIND_KEEPS[kind]
    return slice(0 if keep_zero else 1, None if keep_pi else -1)


def grid_points(kind: GridKind, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    # the last angle is pi itself: n * pi / n rounds off it for some n (11, 13, ...)
    return np.append(np.arange(n) * math.pi / n, math.pi)[_kind_rows(kind)]


def _check_branch_index(p: int, k: int, j: int):
    if not 0 <= k <= min(1, p - 1):
        raise ValueError(f"grid assignments cover k in {{0, 1}}, got k={k}")
    if not 1 <= j <= p - k:
        raise ValueError(f"branch index j={j} out of range 1..{p - k}")


def grid_assign_M(p: int, k: int, j: int) -> GridKind:
    """Grid on which branch j of the mass symbol matches eig(n*M) exactly."""
    _check_branch_index(p, k, j)
    if k == 0:
        if j == p:
            return GridKind.INTERIOR
        return GridKind.NO_ZERO if (p + j) % 2 == 1 else GridKind.NO_PI
    if p == 2:
        return GridKind.NO_ZERO
    pivot = p - alpha(p) - 1
    if j == pivot:
        return GridKind.FULL
    if j == p - 1:
        return GridKind.INTERIOR
    odd = (p + j) % 2 == 1
    if j < pivot:
        return GridKind.NO_ZERO if odd else GridKind.NO_PI
    return GridKind.NO_PI if odd else GridKind.NO_ZERO


def grid_assign_L(p: int, k: int, j: int) -> GridKind:
    """Grid for branch j of the pencil symbol against eig(n^-2 M^-1 K)."""
    _check_branch_index(p, k, j)
    if (p + j) % 2 == 1:
        return GridKind.NO_ZERO if j == 1 else GridKind.FULL
    return GridKind.INTERIOR


# ---------------------------------------------------------------------------
# Exact-eigenvalue verification
# ---------------------------------------------------------------------------

def _branch_table(branches: np.ndarray) -> np.ndarray:
    """The branch table as floats, checked to be (angles, branches) with angles >= 2."""
    table = np.asarray(branches, dtype=float)
    if table.ndim != 2 or table.shape[0] < 2:
        raise ValueError(f"branch table has shape {table.shape}, expected (angles, branches) "
                         "with at least the angles 0 and pi")
    return table


def _assignment_values(table: np.ndarray, assignment: Sequence[GridKind]) -> np.ndarray:
    return np.concatenate([table[_kind_rows(kind), j] for j, kind in enumerate(assignment)])


def verify_eig_formula(
    spectrum: Spectrum,
    branches: np.ndarray,
    assignment: Sequence[GridKind],
    tol: float,
) -> tuple[bool, float]:
    """Check that a spectrum equals branch samples on the assigned grids.

    Forms the multiset {lambda_j(theta) : theta in grid(assignment[j])},
    sorted-matches it against the spectrum, and reports (max_error <= tol,
    max_error).  ``branches`` holds the ascending branch values at the n+1
    angles of the full grid {i*pi/n : i = 0..n}, shape (n+1, m), so one table
    can serve both inference and verification; n and m are read from it.
    Raises ValueError unless there is one grid kind per branch and the
    assigned grids hold as many points as the spectrum, so a table for
    another n or another branch count is refused.
    """
    table = _branch_table(branches)
    if len(assignment) != table.shape[1]:
        raise ValueError(f"{table.shape[1]} branches but {len(assignment)} grid kinds")
    values = _assignment_values(table, assignment)
    if values.size != spectrum.n:
        raise ValueError(f"assigned grids hold {values.size} points, spectrum has {spectrum.n}")
    err = sorted_match(values, spectrum.values).m_n
    return err <= tol, err


def infer_grid_assignment(spectrum: Spectrum, branches: np.ndarray,
                          tol: float) -> tuple[GridKind, ...] | None:
    """Infer grids on which the branch samples equal the spectrum, or None.

    Passing means the grids hold as many points as the spectrum and the
    sorted samples are within ``tol`` of the sorted spectrum; the first
    passing assignment in FULL < NO_ZERO < NO_PI < INTERIOR order per branch
    is returned, in O(p + dim log dim) work.  The reconstruction is
    empirical: it recovers a figure-encoded table, not a closed formula.
    ``branches`` is as in :func:`verify_eig_formula`, so a table for another
    n or another branch count gives None.

    The grid kinds share the interior samples and differ only in the
    endpoint values they keep.  Endpoint values chained within ``tol`` form
    clusters; the spectrum values within ``tol`` of a cluster, less the
    interior samples there, count the r members it keeps.  Branch by branch,
    the first kind that leaves every cluster able to reach its r gives the
    lexicographically first assignment with these counts.  This presumes a
    match well within ``tol`` and clusters more than ``tol`` apart; the
    final check holds regardless.
    """
    table = _branch_table(branches)
    m = table.shape[1]
    interior = np.sort(table[1:-1].ravel())
    ends = np.concatenate([table[0], table[-1]])  # lambda_j(0) at j, lambda_j(pi) at m + j
    order = np.argsort(ends, kind="stable")
    gap = np.diff(ends[order]) > tol
    cluster = np.empty(2 * m, dtype=int)
    cluster[order] = np.concatenate([[0], np.cumsum(gap)])
    lo = ends[order][np.concatenate([[True], gap])] - tol
    hi = ends[order][np.concatenate([gap, [True]])] + tol

    def near(values: np.ndarray) -> np.ndarray:
        return np.searchsorted(values, hi, side="right") - np.searchsorted(values, lo, side="left")

    need = (near(spectrum.values) - near(interior)).tolist()
    size = np.bincount(cluster).tolist()
    if any(not 0 <= r <= s for r, s in zip(need, size)):
        return None
    cluster = cluster.tolist()
    still = list(need)  # members each cluster must still keep
    left = list(size)  # members on branches not yet assigned
    assignment = []
    for j in range(m):
        ends_j = (cluster[j], cluster[m + j])
        for c in ends_j:
            left[c] -= 1
        for kind, keeps in _KIND_KEEPS.items():
            gain = dict.fromkeys(ends_j, 0)
            for c, keep in zip(ends_j, keeps):
                gain[c] += keep
            if all(0 <= still[c] - g <= left[c] for c, g in gain.items()):
                break
        for c, g in gain.items():
            still[c] -= g
        assignment.append(kind)
    values = _assignment_values(table, assignment)
    if values.size != spectrum.n or not sorted_match(values, spectrum.values).m_n <= tol:
        return None
    return tuple(assignment)
