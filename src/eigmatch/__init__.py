"""Sorted-matching diagnostics between eigenvalue multisets and symbol samples.

The package builds structured matrix families (Toeplitz sections, variable
coefficient finite differences, spline Galerkin matrices), computes their
spectra, and measures how closely the sorted eigenvalues track sorted samples
of the describing symbol over asymptotically uniform grids, including the
branch-splitting pipeline for matrix-valued symbols and the exact-eigenvalue
grid formulas of the spline families.
"""

from .core import (
    AUGrid,
    IntervalUnion,
    MatrixSymbol,
    RealMultiset,
    Rect,
    ScalarSymbol,
    count_grid_in_interval,
    grid_deviation,
    make_uniform_grid,
    restrict_mask,
)
from .eig import NotPositiveDefiniteError, Spectrum, eig_gen_sym_def, eig_sym, eig_sym_tridiag
from .galerkin import (
    BSplineBasis,
    GridKind,
    ReferenceBlocks,
    alpha,
    assemble_KM,
    bspline_deriv,
    bspline_eval,
    count_grid_assignments,
    fd_matrix,
    grid_assign_L,
    grid_assign_M,
    grid_points,
    iga_2d_matrix,
    infer_grid_assignment,
    make_basis,
    reference_blocks,
    seq_a,
    symbol_e_branches,
    symbol_f,
    symbol_h,
    verify_eig_formula,
)
from .match import (
    MatchResult,
    MonotonePiece,
    NoPreimageError,
    min_perm_match,
    mn_curve,
    mn_curve_2d,
    preimage_grid,
    sorted_match,
)
from .rearrange import (
    QuantileInterpolant,
    empirical_quantile,
    essential_range,
    quantile_eval,
    quantile_oracle,
)
from .split import (
    DisplacementGraph,
    Partition,
    PartitionInvariantError,
    concat_branches,
    graph_path,
    initial_split,
    refine_split,
    restriction,
    restriction_indices,
    split_and_match,
)
from .toeplitz import (
    FourierCoeffs,
    block_fourier_coeffs,
    block_toeplitz_build,
    fourier_coeff,
    fourier_coeffs,
    toeplitz_build,
)

__version__ = "0.1.0"
