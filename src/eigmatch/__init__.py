"""Sorted-matching diagnostics between eigenvalue multisets and symbol samples.

The package builds structured matrix families (Toeplitz sections, variable
coefficient finite differences, spline Galerkin matrices), computes their
spectra, and measures how closely the sorted eigenvalues track sorted samples
of the describing symbol over asymptotically uniform grids.  It also matches
the spectrum of a matrix-valued symbol's family against the stacked samples
of all its branches, reporting each branch's pairs, and checks the
exact-eigenvalue grid formulas of the spline families.
"""

from .core import MatrixSymbol, Rect, ScalarSymbol, make_uniform_grid
from .eig import (
    NotPositiveDefiniteError,
    Spectrum,
    eig_gen_sym_def,
    eig_sym,
    eig_sym_inplace,
    eig_sym_tridiag,
)
from .galerkin import (
    GridKind,
    ReferenceBlocks,
    alpha,
    assemble_KM,
    assemble_KM_sweep,
    fd_matrix,
    grid_assign_L,
    grid_assign_M,
    grid_points,
    iga_2d_matrix,
    infer_grid_assignment,
    reference_blocks,
    seq_a,
    symbol_e_branches,
    symbol_f,
    symbol_h,
    verify_eig_formula,
)
from .match import MatchResult, branch_match, mn_curve, sorted_match
from .toeplitz import FourierCoeffs, fourier_coeffs, toeplitz_build, toeplitz_halves

__version__ = "0.1.0"
