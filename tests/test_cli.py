import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eigmatch.cli import _max_workers, main, run_bspline_verify, run_grid_infer
from eigmatch.eig import _bind_blas_threads, one_blas_thread
from eigmatch.galerkin import assemble_KM_sweep, symbol_f


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mn_table_single_row(capsys):
    code, out, err = run_cli(capsys, "mn-table", "--example", "e2", "--ns", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,M_n,M_n_full"
    assert lines[1].startswith("8,0.0851,")


def test_mn_table_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "mn-table", "--example", "e3", "--ns", "8,16")
    _, second, _ = run_cli(capsys, "mn-table", "--example", "e3", "--ns", "8,16")
    assert first == second
    assert first.splitlines()[1].startswith("8,0.7220,")


@pytest.mark.parametrize("example", ["e2", "e3"])
def test_mn_table_half_solves_match_full_solves(example):
    # n = 1 has an empty odd half; odd and even n split differently
    from eigmatch import problems
    from eigmatch.cli import _MN_EXAMPLES, run_mn_table
    from eigmatch.eig import eig_sym
    from eigmatch.match import mn_curve
    from eigmatch.toeplitz import fourier_coeffs, toeplitz_build

    ns = [1, 2, 3, 64, 65]
    symbol = _MN_EXAMPLES[example]()
    coeffs = fourier_coeffs(symbol, max(ns) - 1)
    lambdas = {n: eig_sym(toeplitz_build(coeffs, n)).values for n in ns}
    expected = mn_curve(symbol, problems.eigen_angle_grid, lambdas, ns)
    rows = run_mn_table(example, ns)
    assert [n for n, _ in rows] == ns
    assert max(abs(m - e) for (_, m), (_, e) in zip(rows, expected)) <= 1e-13


@pytest.mark.parametrize("example", ["e2", "e3"])
def test_mn_table_n1_solves_an_empty_odd_half(example, monkeypatch):
    # T_1 = [f_0] splits into a 1 x 1 even half and a 0 x 0 odd half
    import eigmatch.cli as cli
    from eigmatch import problems
    from eigmatch.match import mn_curve
    from eigmatch.toeplitz import fourier_coeffs

    sizes = []
    solver = cli.eig_sym_inplace

    def counted(A):
        spectrum = solver(A)
        sizes.append(spectrum.n)
        return spectrum

    monkeypatch.setattr(cli, "eig_sym_inplace", counted)
    rows = cli.run_mn_table(example, [1])
    assert sizes == [1, 0]
    symbol = cli._MN_EXAMPLES[example]()
    f0 = fourier_coeffs(symbol, 1).data[0]
    expected = mn_curve(symbol, problems.eigen_angle_grid, {1: np.array([f0])}, [1])
    assert rows[0][0] == 1 and rows[0][1] == pytest.approx(expected[0][1], rel=0, abs=1e-15)


def test_mn_table_never_builds_the_section(capsys, monkeypatch):
    # the halves come straight from the coefficients; T_n itself is never formed
    import eigmatch.cli as cli

    argv = ("mn-table", "--example", "e3", "--ns", "1,8,9,64")
    _, expected, _ = run_cli(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("mn-table built a dense Toeplitz section")

    monkeypatch.setattr(cli, "toeplitz_build", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected


def test_mn_table_holds_one_half_at_a_time(monkeypatch):
    # T_1024 splits into two 512 x 512 halves, each solved in its own
    # storage: one half fits under the bound, and a copy of it would not
    import tracemalloc

    import eigmatch.cli as cli

    coeffs = cli.fourier_coeffs(cli._MN_EXAMPLES["e2"](), 1023)
    monkeypatch.setattr(cli, "fourier_coeffs", lambda symbol, order: coeffs)
    tracemalloc.start()
    try:
        rows = cli.run_mn_table("e2", [1024])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [n for n, _ in rows] == [1024]
    assert peak < 1.5 * 512**2 * 8


@pytest.mark.parametrize("example", ["e2", "e3"])
def test_mn_table_rows_without_dsyevd_are_unchanged(example, monkeypatch):
    # where numpy's OpenBLAS exports no dsyevd, the halves go to eigvalsh
    import eigmatch.cli as cli
    import eigmatch.eig

    ns = [1, 2, 3, 64, 65, 1024]
    expected = cli.run_mn_table(example, ns)
    monkeypatch.setattr(eigmatch.eig, "_bind_dsyevd", lambda: None)
    assert cli.run_mn_table(example, ns) == expected


def test_mn_table2d_small_square(capsys):
    code, out, _ = run_cli(capsys, "mn-table2d", "--coef", "exp", "--ns", "900")
    assert code == 0
    assert out.splitlines()[1].startswith("900,0.0684,")


def test_exactness_e1(capsys):
    code, out, err = run_cli(capsys, "exactness", "--example", "e1", "--ns", "50")
    assert code == 0 and err == ""
    n, value = out.strip().splitlines()[1].split(",")
    assert n == "50" and float(value) <= 1e-10


def test_exactness_failure_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "exactness", "--example", "e1", "--ns", "50", "--tol", "1e-30"
    )
    assert code == 1
    assert "FAIL" in err


def test_counterexample_locked_at_one(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--ns", "10,100")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["1.0000", "1.0000"]
    assert [r[2] for r in rows] == ["1", "1"]


def test_split_demo(capsys):
    code, out, _ = run_cli(capsys, "split-demo", "--n", "20")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("1", "20"), ("2", "19")]
    assert all(float(r[3]) <= 1e-8 for r in rows)


@pytest.mark.parametrize("n", [2, 3, 20, 100])
def test_split_demo_matches_each_branch_exactly(capsys, n):
    code, out, _ = run_cli(capsys, "split-demo", "--n", str(n))
    assert code == 0
    assert [line.rsplit(",", 1)[0] for line in out.splitlines()] == [
        "branch,cardinality,M_n", f"1,{n},0.0000", f"2,{n - 1},0.0000"]


def test_spline_exactness_checks_start_at_two_elements(capsys):
    code, out, err = run_cli(capsys, "exactness", "--example", "e5", "--ns", "1")
    assert (code, out, err) == (2, "", "eigmatch exactness: n must be >= 2\n")
    code, out, err = run_cli(capsys, "exactness", "--example", "e4p", "--ns", "2")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "n,max_error"
    assert out.splitlines()[1].startswith("2,")


@pytest.mark.parametrize("n", [1, 0, -3])
def test_split_demo_rejects_n_below_two(capsys, n):
    code, out, err = run_cli(capsys, "split-demo", "--n", str(n))
    assert code == 2 and out == ""
    assert err == f"eigmatch split-demo: n must be >= 2, got {n}\n"


def test_bspline_verify_small_sweep(capsys):
    code, out, err = run_cli(
        capsys, "bspline-verify", "--family", "M", "--pmax", "3", "--nmax", "6"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "p,k,n,max_error,pass"
    assert len(lines) == 1 + 5 * 5  # (p,k) in {(1,0),(2,0),(2,1),(3,0),(3,1)} x n in 2..6
    assert all(line.endswith(",1") for line in lines[1:])


def test_grid_infer_reports_expected_row(capsys):
    code, out, _ = run_cli(capsys, "grid-infer", "--pmax", "2", "--nmax", "10")
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in out.strip().splitlines()[1:]}
    assert rows[("2", "0")][2] == "no_zero+interior"
    assert rows[("2", "0")][4] == "1"


def test_grid_infer_default_csv(capsys):
    code, out, err = run_cli(capsys, "grid-infer")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "p,k,assignment,ns_checked,stable",
        "1,0,interior,5;10;20,1",
        "2,0,no_zero+interior,5;10;20,1",
        "2,1,no_zero,5;10;20,1",
        "3,0,interior+full+interior,5;10;20,1",
        "3,1,no_zero+no_pi,5;10;20,1",
        "4,0,no_zero+interior+full+interior,5;10;20,1",
        "4,1,no_zero+no_zero+no_pi,5;10;20,1",
        "5,0,interior+full+interior+full+interior,5;10;20,1",
        "5,1,interior+full+no_zero+no_pi,5;10;20,1",
    ]


def test_grid_infer_falls_back_to_nmax_probe(capsys):
    code, out, err = run_cli(capsys, "grid-infer", "--pmax", "2", "--nmax", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "p,k,assignment,ns_checked,stable",
        "1,0,interior,3,1",
        "2,0,no_zero+interior,3,1",
        "2,1,no_zero,3,1",
    ]


def test_stiffness_inference_reaches_degree_12():
    rows = run_bspline_verify("K", 12, 20, 1e-8)
    assert len(rows) == 23 * 19
    assert all(ok for *_, ok in rows), [row for row in rows if not row[-1]]
    inferred = run_grid_infer(12, 20, 1e-8)
    assert len(inferred) == 23
    assert all(stable for *_, stable in inferred), [row for row in inferred if not row[-1]]


@pytest.mark.parametrize("family", ["K", "M", "L"])
def test_spline_branch_tables_equal_the_all_angle_evaluation(family):
    # the tables are evaluated once per distinct angle (130 of the 228 here)
    from eigmatch.cli import _spline_batches
    from eigmatch.galerkin import GridKind, grid_points, symbol_e_branches, symbol_h

    ns = list(range(2, 21))
    theta = np.concatenate([grid_points(GridKind.FULL, n) for n in ns])
    for p, k, batch in _spline_batches(family, 6, ns):
        if family == "L":
            tables = symbol_e_branches(p, k, theta)
        else:
            tables = np.linalg.eigvalsh((symbol_h if family == "M" else symbol_f)(p, k, theta))
        expected = np.split(tables, np.cumsum([n + 1 for n in ns])[:-1])
        assert [n for n, _, _ in batch] == ns
        assert all(np.array_equal(table, e) for (_, _, table), e in zip(batch, expected))


def test_pencil_family_passes_at_degree_9():
    # criterion 8 stops at p = 8; at p = 9 the worst row is within 1e-8 by
    # about a tenth on one BLAS thread, as every CLI run solves, and thread
    # round-off alone can cross that margin
    if _bind_blas_threads() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    with one_blas_thread():
        rows = run_bspline_verify("L", 9, 20, 1e-8)
    assert len(rows) == 17 * 19
    assert all(ok for *_, ok in rows), [row for row in rows if not row[-1]]


def test_library_runner_solves_on_one_blas_thread(blas_threads):
    # called from Python, not through the CLI, with numpy's OpenBLAS on 2 threads
    rows = run_bspline_verify("L", 9, 20, 1e-8)
    assert blas_threads() == 2
    with one_blas_thread():
        assert rows == run_bspline_verify("L", 9, 20, 1e-8)
    assert all(ok for *_, ok in rows), [row for row in rows if not row[-1]]


@pytest.mark.parametrize("sweep,n_rows", [
    (lambda: run_bspline_verify("K", 3, 6, 1e-8), 5 * 5),  # 5 pairs, n = 2..6 each
    (lambda: run_grid_infer(3, 20, 1e-8), 5),  # 5 pairs, probes n = 5, 10, 20
], ids=["bspline-verify", "grid-infer"])
def test_stiffness_rows_build_one_branch_table(monkeypatch, sweep, n_rows):
    import eigmatch.cli as cli

    symbols, assemblies = [], []

    def counted_symbol(p, k, theta):
        symbols.append((p, k))
        return symbol_f(p, k, theta)

    def counted_sweep(ns, p, k):
        assemblies.append((p, k))
        return assemble_KM_sweep(ns, p, k)

    def per_n_assembly(n, p, k):
        raise AssertionError("assembled one n at a time")

    monkeypatch.setattr(cli, "symbol_f", counted_symbol)
    monkeypatch.setattr(cli, "assemble_KM_sweep", counted_sweep)
    monkeypatch.setattr(cli, "assemble_KM", per_n_assembly)
    rows = sweep()
    assert len(rows) == n_rows and all(row[-1] for row in rows)
    # one assembly sweep and one symbol table per (p, k) serve every n
    assert symbols == assemblies == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]


@pytest.mark.parametrize("argv,message", [
    (["bspline-verify", "--family", "K", "--pmax", "0"], "pmax must be >= 1"),
    (["grid-infer", "--pmax", "0"], "pmax must be >= 1"),
    (["bspline-verify", "--family", "M", "--nmax", "1"], "nmax must be >= 2"),
    (["grid-infer", "--nmax", "1"], "nmax must be >= 2"),
    (["bspline-verify", "--family", "L", "--tol=-1e-8"], "tol must be finite and >= 0"),
    (["grid-infer", "--tol=-1e-8"], "tol must be finite and >= 0"),
    (["bspline-verify", "--family", "K", "--tol", "nan"], "tol must be finite and >= 0"),
    (["grid-infer", "--tol", "inf"], "tol must be finite and >= 0"),
])
def test_bad_spline_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_unknown_spline_family_is_usage_error_before_assembly(capsys, monkeypatch):
    import eigmatch.cli as cli

    def no_sweep(ns, p, k):
        raise AssertionError("assembled for an unknown family")

    monkeypatch.setattr(cli, "assemble_KM_sweep", no_sweep)
    params = {"family": "X", "pmax": 2, "nmax": 3, "tol": 1e-8}
    assert cli.run("bspline-verify", params) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "eigmatch bspline-verify: unknown family 'X'\n"


@pytest.mark.parametrize("argv", [
    ["exactness", "--example", "e1", "--ns", "50", "--tol", "nan"],
    ["split-demo", "--n", "20", "--tol", "nan"],
    ["split-demo", "--n", "20", "--tol=-1"],
])
def test_bad_tolerance_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "tol must be finite and >= 0" in err


def test_nan_error_fails_the_row(capsys, monkeypatch):
    import eigmatch.cli as cli

    monkeypatch.setattr(cli, "run_exactness_e1", lambda ns, a, b: [(n, math.nan) for n in ns])
    code, out, err = run_cli(capsys, "exactness", "--example", "e1", "--ns", "50")
    assert code == 1 and "FAIL exactness e1 n=50" in err


@pytest.mark.parametrize("argv,binding,solved", [
    (["mn-table2d", "--coef", "exp", "--ns", "900,900,1600"], "eig_sym_tridiag", [1600, 900]),
    # each Toeplitz section is solved as its two centrosymmetric halves
    (["mn-table", "--example", "e2", "--ns", "16,8,16,8"], "eig_sym_inplace", [8, 8, 4, 4]),
    (["exactness", "--example", "e1", "--ns", "3,50,3"], "eig_sym", [3, 50]),
    (["exactness", "--example", "e4p", "--ns", "3,2,3"], "eig_sym", [9, 4]),
    (["exactness", "--example", "e5", "--ns", "20,3,20"], "eig_sym", [39, 5]),
])
def test_duplicate_ns_solved_once(capsys, monkeypatch, argv, binding, solved):
    import eigmatch.cli as cli

    sizes = []
    solver = getattr(cli, binding)

    def counted(*args):
        spectrum = solver(*args)
        sizes.append(spectrum.n)
        return spectrum

    # one usable CPU, so one worker: calls arrive in submission order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli, binding, counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sizes == solved
    requested = argv[-1].split(",")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == requested
    first = {}
    for n, *values in rows:
        assert first.setdefault(n, values) == values


def test_e4p_range_failure_fails_every_requested_row(capsys, monkeypatch):
    import eigmatch.cli as cli

    monkeypatch.setattr(cli, "iga_2d_matrix", lambda n: 2.0 * np.eye(n * n))
    code, _, err = run_cli(capsys, "exactness", "--example", "e4p", "--ns", "3,2,3", "--tol", "10")
    two = repr(np.float64(2.0))
    assert code == 1
    assert err.splitlines() == [f"FAIL n={n}: spectrum [{two}, {two}] leaves [0, 3/2]" for n in (3, 2, 3)]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "--output", str(target), "counterexample", "--ns", "10"
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "10,1.0000,1"


@pytest.mark.parametrize("where,reason", [("missing/x.csv", "No such file or directory"),
                                          (".", "Is a directory")])
def test_unwritable_output_is_usage_error(tmp_path, capsys, where, reason):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "--output", str(target), "counterexample", "--ns", "10")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"eigmatch counterexample: cannot write {target}: {reason}"]


def test_output_file_untouched_by_usage_error(tmp_path, capsys):
    # the file is opened only once the experiment has run
    target = tmp_path / "table.csv"
    target.write_text("kept\n")
    code, _, _ = run_cli(capsys, "--output", str(target), "split-demo", "--n", "1")
    assert code == 2 and target.read_text() == "kept\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["mn-table", "--example", "bogus"])
    assert exc.value.code == 2


def test_mn_table2d_pool_follows_cpu_affinity(monkeypatch, capsys):
    import concurrent.futures

    pools = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def recorded(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorded)
    code, out, _ = run_cli(capsys, "mn-table2d", "--coef", "exp", "--ns", "900,1600")
    assert code == 0 and pools == [1]
    assert out.splitlines()[1:] == ["900,0.0684,0.0684420962491", "1600,0.0559,0.0559256023132"]


def test_mn_table_starts_no_thread(monkeypatch, capsys):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("mn-table must solve on the calling thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    code, out, _ = run_cli(capsys, "mn-table", "--example", "e2", "--ns", "8,16")
    assert code == 0 and out.splitlines()[1].startswith("8,0.0851,")


def test_thread_count_capped_by_cpus_and_tasks():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _max_workers(3) == min(cpus, 3)
    assert _max_workers(10**6) == cpus
    assert _max_workers(1) == 1


def test_default_thread_count_follows_cpu_affinity(monkeypatch):
    # a run pinned to one CPU (taskset, a cpuset) must not oversubscribe it
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert _max_workers(8) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _max_workers(8) == 8


def _run_python(*args, **env_extra) -> str:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **env_extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.linalg would add about 0.3 s to every run; every solve
    # is numpy's or binds numpy's OpenBLAS
    out = _run_python("-c", "import sys, eigmatch.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


_SCIPY_FREE_STEPS = [
    ["mn-table", "--example", "e2", "--ns", "1,8,9"],
    ["exactness", "--example", "e1", "--ns", "10"],
    ["exactness", "--example", "e4p", "--ns", "5"],
    ["exactness", "--example", "e5", "--ns", "20"],
    ["split-demo", "--n", "7"],
    ["bspline-verify", "--family", "L", "--pmax", "3", "--nmax", "4"],
    ["grid-infer", "--pmax", "3", "--nmax", "5"],
]


def test_no_cli_step_loads_scipy(numpy_dsterf):
    script = """
import contextlib, io, json, sys
from eigmatch.cli import main

def loaded():
    return any(m.split('.')[0] == 'scipy' for m in sys.modules)

report = {"codes": [], "scipy_after": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(main(argv))
    report["scipy_after"].append(loaded())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["codes"].append(main(["mn-table2d", "--coef", "exp", "--ns", "900,1600"]))
report["scipy_after"].append(loaded())
report["mn_table2d"] = out.getvalue()
print(json.dumps(report))
"""
    report = json.loads(_run_python("-c", script, json.dumps(_SCIPY_FREE_STEPS)))
    assert report["codes"] == [0] * (len(_SCIPY_FREE_STEPS) + 1)
    # without numpy's OpenBLAS, the tridiagonal solve falls back to scipy
    assert report["scipy_after"] == [False] * len(_SCIPY_FREE_STEPS) + [not numpy_dsterf]
    # the same rows whichever library dsterf binds from
    assert report["mn_table2d"] == ("n,M_n,M_n_full\n900,0.0684,0.0684420962491\n"
                                    "1600,0.0559,0.0559256023132\n")


def test_programmatic_experiment_registry(capsys):
    from eigmatch.cli import run

    code = run("counterexample", {"ns": [10]})
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1] == "10,1.0000,1"


def test_unknown_experiment_is_usage_error(capsys):
    from eigmatch.cli import run

    assert run("bogus", {}) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_non_square_n_is_usage_error(capsys):
    code = main(["mn-table2d", "--coef", "exp", "--ns", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not a perfect square" in err


@pytest.mark.parametrize("argv,message", [
    (["--a", "nan"], "a=nan, b=-2.0"),
    (["--a", "nan", "--tol", "1e-8"], "a=nan, b=-2.0"),
    (["--a", "1e308", "--b", "1e308"], "a=1e+308, b=1e+308"),
    (["--b", "inf"], "a=2.0, b=inf"),
])
def test_non_finite_cosine_parameters_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "exactness", "--example", "e1", "--ns", "10", *argv)
    assert code == 2 and out == ""
    assert f"cosine symbol needs finite a, b and a +- |b|, got {message}" in err
    assert "tol" not in err and "declared_inf" not in err


def _recording_experiment(get, seen, outcome):
    def experiment(params):
        seen.append(get())
        if outcome == "usage":
            raise ValueError("bad parameter")
        if outcome == "raise":
            raise RuntimeError("experiment crashed")
        return ["n"], [["1"]], ["row 1"] if outcome == "fail" else []
    return experiment


@pytest.mark.parametrize("outcome,code", [("ok", 0), ("fail", 1), ("usage", 2)])
def test_experiments_run_on_one_blas_thread(capsys, monkeypatch, blas_threads, outcome, code):
    import eigmatch.cli as cli

    seen = []
    monkeypatch.setitem(cli.EXPERIMENTS, "counterexample",
                        _recording_experiment(blas_threads, seen, outcome))
    assert run_cli(capsys, "counterexample")[0] == code
    assert seen == [1]
    assert blas_threads() == 2


def test_parser_runs_on_one_blas_thread_and_its_exit_restores_the_count(capsys, monkeypatch,
                                                                         blas_threads):
    import argparse

    seen = []
    error = argparse.ArgumentParser.error

    def recorded(self, message):
        seen.append(blas_threads())
        error(self, message)

    monkeypatch.setattr(argparse.ArgumentParser, "error", recorded)
    with pytest.raises(SystemExit) as exc:
        main(["mn-table"])
    assert exc.value.code == 2 and "--example" in capsys.readouterr().err
    assert seen == [1]
    assert blas_threads() == 2


def test_main_stops_the_idle_workers_before_parsing():
    # a fresh interpreter: the shutdown runs only when main's is the one Python thread
    import eigmatch.eig

    if _bind_blas_threads() is None or eigmatch.eig._bind_blas_shutdown() is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count or shutdown functions")
    script = """
import argparse, os
import eigmatch.eig
from eigmatch.cli import main

calls = []
shutdown = eigmatch.eig._bind_blas_shutdown()
eigmatch.eig._bind_blas_shutdown = lambda: lambda: (calls.append("shutdown"), shutdown())
parse_args = argparse.ArgumentParser.parse_args

def recorded(self, *args, **kwargs):
    calls.append("parse")
    return parse_args(self, *args, **kwargs)

argparse.ArgumentParser.parse_args = recorded
code = main(["--output", os.devnull, "counterexample", "--ns", "10"])
print(code, *calls)
"""
    assert _run_python("-c", script).split() == ["0", "shutdown", "parse"]


def test_blas_thread_count_restored_when_experiment_raises(monkeypatch, blas_threads):
    import eigmatch.cli as cli

    seen = []
    monkeypatch.setitem(cli.EXPERIMENTS, "counterexample",
                        _recording_experiment(blas_threads, seen, "raise"))
    with pytest.raises(RuntimeError, match="experiment crashed"):
        cli.run("counterexample", {"ns": [10]})
    assert seen == [1]
    assert blas_threads() == 2


def test_experiments_run_without_a_blas_binding(capsys, monkeypatch):
    # MKL, Accelerate or a system BLAS: nothing is bound, results unchanged
    import eigmatch.eig

    bound = run_cli(capsys, "split-demo", "--n", "7")
    monkeypatch.setattr(eigmatch.eig, "_bind_blas_threads", lambda: None)
    code, out, err = run_cli(capsys, "split-demo", "--n", "7")
    assert (code, out, err) == bound
    assert code == 0
    assert out.splitlines()[1:] == ["1,7,0.0000,1.55431223448e-15", "2,6,0.0000,2.6645352591e-15"]


def test_cli_import_binds_no_blas():
    out = _run_python("-c", "import eigmatch.cli, eigmatch.eig; "
                      "print(eigmatch.eig._bind_blas_threads.cache_info().currsize)")
    assert out.strip() == "0"


def test_cli_import_loads_no_thread_pool():
    # only mn-table2d starts a pool, and it imports concurrent.futures itself
    out = _run_python("-c", "import sys, numpy; before = set(sys.modules); import eigmatch.cli; "
                      "print(sorted(m for m in set(sys.modules) - before "
                      "if m.split('.')[0] == 'concurrent'))")
    assert out.strip() == "[]"


def test_csv_independent_of_openblas_thread_count():
    # with a second thread numpy's OpenBLAS rounded rows (6,0,17), (6,0,18) and (6,1,20) differently
    argv = ["-m", "eigmatch.cli", "bspline-verify", "--family", "L", "--pmax", "6", "--nmax", "20"]
    one, two = (_run_python(*argv, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert one == two
    assert one.count("\n") == 1 + 11 * 19
