"""Batch experiment runner: reproduces the packaged tables and exactness checks.

Every subcommand emits CSV (header row, comma separator, no locale
formatting) to stdout or ``--output``.  Table values are printed with 4
decimals next to a full-precision sidecar column, exactness errors with 12
significant digits, so identical invocations produce byte-identical files.

Exit codes: 0 on success, 1 when a tolerance check fails (failing rows are
listed on stderr), 2 on usage errors and when ``--output`` cannot be
written.

``main``, from its first line, every ``run_*`` function that solves, and
``run`` around a whole experiment, run with numpy's OpenBLAS on one thread
and restore the previous count afterwards, so a ``run_*`` called from
Python gives the CLI's bytes.  The dense solves here are at most a few
hundred wide (the 512-wide Toeplitz halves, 159-wide spline matrices, one
900-wide e4p matrix): a second BLAS thread saves no wall time on them, and
its worker, started when numpy is imported, busy-waits.  So the outermost
scope also stops that idle worker when it is the only Python thread, and
restoring the count starts it again.  From the command line the outermost
scope is ``main``'s: the worker is stopped before the arguments are parsed,
and the count is restored once, when ``main`` returns.  One thread also
makes the CSV bytes independent of the machine's core count.  The count is
process state, so it is set once per run rather than around each solve.
The tridiagonal solves (``dsterf``) are single-threaded LAPACK and are
unaffected.  Only ``mn-table2d`` starts a thread pool, and it alone
imports ``concurrent.futures``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import problems
from .core import make_uniform_grid
from .eig import (
    Spectrum,
    eig_gen_sym_def,
    eig_sym,
    eig_sym_inplace,
    eig_sym_tridiag,
    one_blas_thread,
)
from .galerkin import (
    GridKind,
    assemble_KM,
    assemble_KM_sweep,
    fd_matrix,
    grid_assign_L,
    grid_assign_M,
    grid_points,
    iga_2d_matrix,
    infer_grid_assignment,
    symbol_e_branches,
    symbol_f,
    symbol_h,
    verify_eig_formula,
)
from .match import branch_match, mn_curve, sorted_match
from .toeplitz import fourier_coeffs, toeplitz_build, toeplitz_halves

DEFAULT_TABLE_NS = "8,16,32,64,128,256,512,1024"
DEFAULT_TABLE2D_NS = "900,1600,2500,3600,4900,6400,8100,10000"

_MN_EXAMPLES = {
    "e2": problems.plateau_ramp_symbol,
    "e3": problems.cos_dip_ramp_symbol,
}

#: The grids on which the two branches of the C^0 quadratic family are sampled.
_C0_GRIDS = (GridKind.NO_ZERO, GridKind.INTERIOR)


def _max_workers(tasks: int) -> int:
    """Pool size: the usable CPU count, capped by the task count.

    The usable CPUs are the process's affinity set where the platform has
    one (``taskset``, a cpuset), else all of them.
    """
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, tasks))


def _parse_ns(spec: str) -> list[int]:
    ns = [int(tok) for tok in spec.split(",") if tok.strip()]
    if not ns or any(n < 1 for n in ns):
        raise argparse.ArgumentTypeError(f"invalid n list: {spec!r}")
    return ns


def _emit(path: str | None, header: list[str], rows: list[list[str]]):
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _report_failures(failures: list[str]) -> int:
    if not failures:
        return 0
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@one_blas_thread()
def run_mn_table(example: str, ns: list[int]) -> list[tuple[int, float]]:
    """Sorted-match curve of a Toeplitz family against its symbol on [0, pi].

    Each distinct n is solved once, as the two half-size problems of the
    symmetric Toeplitz section.  Each half is a temporary, solved in its
    own storage by :func:`eig_sym_inplace` as :func:`toeplitz_halves`
    yields it, and dropped before the next is built, so a row holds one
    half and no copy of it.  The solves run serially: solving the two
    halves concurrently cut the wall time by 5-14% at n <= 1024 but raised
    the peak resident size by 12.6%, since a pool thread's own malloc
    arena holds a second set of solve buffers.  The two halves' values are
    concatenated unsorted: ``mn_curve`` sorts them.
    """
    symbol = _MN_EXAMPLES[example]()
    coeffs = fourier_coeffs(symbol, max(ns) - 1 if max(ns) > 1 else 1)

    def lam(n: int) -> np.ndarray:
        halves = toeplitz_halves(coeffs, n)
        even = eig_sym_inplace(next(halves)).values
        return np.concatenate([even, eig_sym_inplace(next(halves)).values])

    lambdas = {n: lam(n) for n in dict.fromkeys(ns)}
    return mn_curve(symbol, problems.eigen_angle_grid, lambdas, ns)


@one_blas_thread()
def run_mn_table_2d(coef: str, ns: list[int]) -> list[tuple[int, float]]:
    """Sorted-match curve of the finite-difference family, tridiagonal solver.

    The solves run on a thread pool: with ``dsterf`` bound from numpy's
    OpenBLAS, ``eig_sym_tridiag`` releases the interpreter lock, so they
    proceed on separate cores.  This is the one command that starts a pool,
    so ``concurrent.futures`` (with ``logging``, ``queue`` and
    ``traceback``) is imported here rather than at every CLI start.
    """
    from concurrent.futures import ThreadPoolExecutor

    a = problems.fd_coefficients[coef]
    symbol = problems.fd_symbol_2d(a)
    for n in ns:
        root = math.isqrt(n)
        if root * root != n:
            raise ValueError(f"n={n} is not a perfect square")

    def lam(n: int) -> np.ndarray:
        diag, off = fd_matrix(a, n)
        return eig_sym_tridiag(diag, off).values

    # Each distinct n once, largest (costliest) first: that keeps the workers'
    # makespan short, and mn_curve reads the rows in the requested order.
    distinct = sorted(set(ns), reverse=True)
    with ThreadPoolExecutor(max_workers=_max_workers(len(distinct))) as pool:
        lambdas = dict(zip(distinct, pool.map(lam, distinct)))
    return mn_curve(symbol, lambda n: make_uniform_grid(symbol.domain, (math.isqrt(n),) * 2),
                    lambdas, ns)


@one_blas_thread()
def run_exactness_e1(ns: list[int], a: float, b: float) -> list[tuple[int, float]]:
    """M_n of each full cosine section against its exact eigenvalues a + b cos(i pi/(n+1))."""
    symbol = problems.cosine_symbol(a, b)
    coeffs = fourier_coeffs(symbol, max(max(ns) - 1, 1))
    lambdas = {n: eig_sym(toeplitz_build(coeffs, n)).values for n in dict.fromkeys(ns)}
    return mn_curve(symbol, problems.eigen_angle_grid, lambdas, ns)


@one_blas_thread()
def run_exactness_e4p(ns: list[int]) -> tuple[list[tuple[int, float]], list[str]]:
    """M_n of the C^1 biquadratic family, and one failure per requested n outside [0, 3/2]."""
    symbol = problems.iga2d_symbol()
    lambdas = {n: eig_sym(iga_2d_matrix(n)).values for n in dict.fromkeys(ns)}
    range_failures = [f"n={n}: spectrum [{lambdas[n][0]!r}, {lambdas[n][-1]!r}] leaves [0, 3/2]"
                      for n in ns if lambdas[n][0] < -1e-9 or lambdas[n][-1] > 1.5 + 1e-9]
    rows = mn_curve(symbol, lambda n: make_uniform_grid(symbol.domain, (n, n)), lambdas, ns)
    return rows, range_failures


@one_blas_thread()
def run_exactness_e5(ns: list[int]) -> list[tuple[int, float]]:
    """M_n of the C^0 quadratic eig(K/n) against its exact branch samples, each distinct n once.

    Each branch is sampled on its grid in ``_C0_GRIDS``.
    """
    branches = problems.c0_quadratic_branches()
    errors = {}
    for n in dict.fromkeys(ns):
        spec = _scaled_spectrum("K", *assemble_KM(n, 2, 0), n)
        samples = np.concatenate([f(grid_points(kind, n)) for f, kind in zip(branches, _C0_GRIDS)])
        errors[n] = sorted_match(samples, spec.values).m_n
    return [(n, errors[n]) for n in ns]


def run_counterexample(ns: list[int]) -> list[tuple[int, float]]:
    symbol = problems.endpoint_indicator()
    lambdas = {n: np.zeros(n) for n in ns}
    return mn_curve(symbol, lambda n: make_uniform_grid(symbol.domain, (n,)), lambdas, ns)


@one_blas_thread()
def run_split_demo(n: int) -> list[tuple[int, int, float]]:
    """(branch, cardinality, M_n) of the C^0 quadratic family's ``branch_match``.

    Needs n >= 2: the second branch's grid has n - 1 points.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    values = _scaled_spectrum("K", *assemble_KM(n, 2, 0), n).values
    grids = [grid_points(kind, n) for kind in _C0_GRIDS]
    result, labels = branch_match(values, problems.c0_quadratic_symbol(), grids)
    return [(j + 1, grid.size, float(np.max(np.abs(result.paired_diffs[labels == j]))))
            for j, grid in enumerate(grids)]


def _check_tol(tol: float):
    """Reject a tolerance no error can meaningfully be compared against."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _check_spline_args(pmax: int, nmax: int, tol: float):
    """Reject sweeps that would check no row or compare against a meaningless tol."""
    if pmax < 1:
        raise ValueError(f"pmax must be >= 1, got {pmax}")
    if nmax < 2:
        raise ValueError(f"nmax must be >= 2, got {nmax}")
    _check_tol(tol)


def _scaled_spectrum(family: str, K: np.ndarray, M: np.ndarray, n: int) -> Spectrum:
    """Spectrum of a scaled spline matrix: n M (``M``), n^-2 M^-1 K (``L``) or K/n (``K``)."""
    if family == "M":
        return eig_sym(n * M)
    if family == "L":
        return Spectrum(eig_gen_sym_def(K, M).values / n**2)
    return eig_sym(K / n)


def _spline_batches(family: str, pmax: int, ns: list[int]):
    """Yield (p, k, [(n, scaled spectrum, branch table) for n in ns]) for p <= pmax, k < min(2, p).

    One :func:`assemble_KM_sweep` builds every n's (K, M), each dropped once its
    spectrum is taken; one symbol evaluation on the distinct angles of the
    concatenated full grids (130 of 228 at n = 2..20), expanded to every
    angle, gives every n's branch table, bit for bit the per-n one: every
    stacked solve treats each angle alone.
    """
    theta, inverse = np.unique(np.concatenate([grid_points(GridKind.FULL, n) for n in ns]),
                               return_inverse=True)
    bounds = np.cumsum([n + 1 for n in ns])[:-1]
    for p in range(1, pmax + 1):
        for k in range(min(2, p)):
            if family == "L":
                tables = symbol_e_branches(p, k, theta)
            else:
                tables = np.linalg.eigvalsh((symbol_h if family == "M" else symbol_f)(p, k, theta))
            spectra = [_scaled_spectrum(family, K, M, n)
                       for n, (K, M) in zip(ns, assemble_KM_sweep(ns, p, k))]
            yield p, k, list(zip(ns, spectra, np.split(tables[inverse], bounds)))


@one_blas_thread()
def run_bspline_verify(family: str, pmax: int, nmax: int, tol: float):
    """Exact-eigenvalue check of a spline matrix family over (p, k, n).

    Each (p, k) is one :func:`_spline_batches` batch over n = 2..nmax.  ``K`` infers
    each row's grid assignment from the table it is checked against (error inf
    without one); ``M`` and ``L`` have theirs in closed form.  Rows run serially: a
    thread pool only adds contention for the interpreter lock.
    """
    if family not in ("K", "M", "L"):
        raise ValueError(f"unknown family {family!r}")
    _check_spline_args(pmax, nmax, tol)
    closed_form = {"M": grid_assign_M, "L": grid_assign_L}.get(family)
    rows = []
    for p, k, batch in _spline_batches(family, pmax, list(range(2, nmax + 1))):
        if closed_form:
            assignment = [closed_form(p, k, j) for j in range(1, p - k + 1)]
        for n, spectrum, branches in batch:
            if not closed_form:
                assignment = infer_grid_assignment(spectrum, branches, tol)
            ok, err = ((False, math.inf) if assignment is None
                       else verify_eig_formula(spectrum, branches, assignment, tol))
            rows.append((p, k, n, err, ok))
    return rows


@one_blas_thread()
def run_grid_infer(pmax: int, nmax: int, tol: float):
    """Recover the stiffness-family grid assignments and their n-stability.

    Each (p, k) is one ``K`` batch of :func:`_spline_batches` over the probe
    n (those of 5, 10, 20 up to nmax, else nmax); stable rows infer one
    assignment at every probe.
    """
    _check_spline_args(pmax, nmax, tol)
    probe_ns = [n for n in (5, 10, 20) if n <= nmax] or [nmax]
    rows = []
    for p, k, batch in _spline_batches("K", pmax, probe_ns):
        found = [infer_grid_assignment(spectrum, branches, tol) for _, spectrum, branches in batch]
        stable = all(a is not None and a == found[0] for a in found)
        label = "+".join(kind.value for kind in found[0]) if found[0] else "none"
        rows.append((p, k, label, probe_ns, stable))
    return rows


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

def _mn_rows(rows: list[tuple[int, float]]) -> list[list[str]]:
    return [[str(n), f"{m:.4f}", f"{m:.12g}"] for n, m in rows]


def _exp_mn_table(params):
    rows = run_mn_table(params["example"], params["ns"])
    return ["n", "M_n", "M_n_full"], _mn_rows(rows), []


def _exp_mn_table_2d(params):
    rows = run_mn_table_2d(params["coef"], params["ns"])
    return ["n", "M_n", "M_n_full"], _mn_rows(rows), []


def _exp_exactness(params):
    example = params["example"]
    if example == "e1":
        # rejects a non-finite a or b before the default tol is derived from them
        problems.cosine_symbol(params["a"], params["b"])
    tol = params["tol"]
    if tol is None:
        tol = 1e-10 * (abs(params["a"]) + abs(params["b"])) if example == "e1" else 1e-8
    _check_tol(tol)
    failures: list[str] = []
    if example == "e1":
        ns = params["ns"] or _parse_ns("10,50,100,200")
        rows = run_exactness_e1(ns, params["a"], params["b"])
    elif example == "e4p":
        ns = params["ns"] or _parse_ns("5,10,20,30")
        rows, failures = run_exactness_e4p(ns)
    else:
        ns = params["ns"] or _parse_ns("20,50,100")
        rows = run_exactness_e5(ns)
    failures += [f"exactness {example} n={n}: error {err:.3e} > tol {tol:.3e}"
                 for n, err in rows if not err <= tol]
    return ["n", "max_error"], [[str(n), f"{e:.12g}"] for n, e in rows], failures


def _exp_counterexample(params):
    rows = run_counterexample(params["ns"])
    failures = [f"counterexample n={n}: M_n={m!r} != 1" for n, m in rows if m != 1.0]
    return ["n", "M_n", "M_n_full"], _mn_rows(rows), failures


def _exp_split_demo(params):
    tol = params["tol"]
    _check_tol(tol)
    rows = run_split_demo(params["n"])
    failures = [f"split-demo branch {j}: M_n={m:.3e} > tol {tol:.3e}"
                for j, c, m in rows if not m <= tol]
    return (
        ["branch", "cardinality", "M_n", "M_n_full"],
        [[str(j), str(c), f"{m:.4f}", f"{m:.12g}"] for j, c, m in rows],
        failures,
    )


def _exp_bspline_verify(params):
    family = params["family"]
    rows = run_bspline_verify(family, params["pmax"], params["nmax"], params["tol"])
    failures = [f"family {family} p={p} k={k} n={n}: error {e:.3e}"
                for p, k, n, e, ok in rows if not ok]
    return (
        ["p", "k", "n", "max_error", "pass"],
        [[str(p), str(k), str(n), f"{e:.12g}", "1" if ok else "0"]
         for p, k, n, e, ok in rows],
        failures,
    )


def _exp_grid_infer(params):
    rows = run_grid_infer(params["pmax"], params["nmax"], params["tol"])
    failures = [f"grid-infer p={p} k={k}: assignment {label} unstable or missing"
                for p, k, label, ns, stable in rows if not stable]
    return (
        ["p", "k", "assignment", "ns_checked", "stable"],
        [[str(p), str(k), label, ";".join(map(str, ns)), "1" if stable else "0"]
         for p, k, label, ns, stable in rows],
        failures,
    )


EXPERIMENTS = {
    "mn-table": _exp_mn_table,
    "mn-table2d": _exp_mn_table_2d,
    "exactness": _exp_exactness,
    "counterexample": _exp_counterexample,
    "split-demo": _exp_split_demo,
    "bspline-verify": _exp_bspline_verify,
    "grid-infer": _exp_grid_infer,
}


def run(name: str, params: dict, output: str | None = None) -> int:
    """Run a registered experiment, emit its CSV, and return the exit code.

    ``params`` maps the subcommand's option names to their parsed values, as
    :func:`main` builds them; the CSV goes to the file ``output``, or to
    stdout when it is None; the file is opened only after the experiment
    has run, and one it cannot write exits 2.  The experiment runs with
    numpy's OpenBLAS on one thread (see the module docstring); the previous
    count is restored however it ends.
    """
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    try:
        with one_blas_thread():
            header, rows, failures = EXPERIMENTS[name](params)
    except ValueError as exc:  # bad parameter values (e.g. non-square n)
        print(f"eigmatch {name}: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(output, header, rows)
    except OSError as exc:  # a missing directory, a directory, no permission
        print(f"eigmatch {name}: cannot write {output or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return _report_failures(failures)


# ---------------------------------------------------------------------------
# Command-line wiring
# ---------------------------------------------------------------------------

@one_blas_thread()
def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``), :func:`run` its subcommand, return the exit code.

    The whole call, parsing included, is one ``one_blas_thread`` scope (see
    the module docstring), also when the parser exits.
    """
    parser = argparse.ArgumentParser(
        prog="eigmatch", description="experiment runner for sorted eigenvalue/sample matching"
    )
    parser.add_argument("--output", help="write CSV here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("mn-table", help="Toeplitz family match curve (flat-ramp or cos-dip symbol)")
    q.add_argument("--example", choices=sorted(_MN_EXAMPLES), required=True)
    q.add_argument("--ns", type=_parse_ns, default=_parse_ns(DEFAULT_TABLE_NS))

    q = sub.add_parser("mn-table2d", help="finite-difference family match curve (2-d symbol)")
    q.add_argument("--coef", choices=sorted(problems.fd_coefficients), required=True)
    q.add_argument("--ns", type=_parse_ns, default=_parse_ns(DEFAULT_TABLE2D_NS))

    q = sub.add_parser("exactness", help="families whose eigenvalues are exact symbol samples")
    q.add_argument("--example", choices=["e1", "e4p", "e5"], required=True)
    q.add_argument("--ns", type=_parse_ns)
    q.add_argument("--a", type=float, default=2.0, help="cosine symbol offset (e1)")
    q.add_argument("--b", type=float, default=-2.0, help="cosine symbol amplitude (e1)")
    q.add_argument("--tol", type=float, help="per-row failure threshold")

    q = sub.add_parser("counterexample", help="endpoint indicator symbol: the match never improves")
    q.add_argument("--ns", type=_parse_ns, default=_parse_ns("10,100,1000"))

    q = sub.add_parser("split-demo", help="per-branch matches of the block-symbol family")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--tol", type=float, default=1e-8)

    q = sub.add_parser("bspline-verify", help="exact eigenvalue formulas of the spline families")
    q.add_argument("--family", choices=["K", "M", "L"], required=True)
    q.add_argument("--pmax", type=int, default=8)
    q.add_argument("--nmax", type=int, default=20)
    q.add_argument("--tol", type=float, default=1e-8)

    q = sub.add_parser("grid-infer", help="recover stiffness-family grid assignments empirically")
    q.add_argument("--pmax", type=int, default=5)
    q.add_argument("--nmax", type=int, default=20)
    q.add_argument("--tol", type=float, default=1e-8)

    args = parser.parse_args(argv)
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "output")}
    return run(args.command, params, args.output)


if __name__ == "__main__":
    sys.exit(main())
