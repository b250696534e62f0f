import math
import os
import subprocess
import sys

import pytest

from eigmatch.cli import _max_workers, main, run_bspline_verify, run_grid_infer
from eigmatch.galerkin import symbol_f


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
    code, out, _ = run_cli(capsys, "split-demo", "--example", "e5", "--n", "20")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("1", "20"), ("2", "19")]
    assert all(float(r[3]) <= 1e-8 for r in rows)


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


def test_stiffness_inference_reaches_degree_12():
    rows = run_bspline_verify("K", 12, 20, 1e-8)
    assert len(rows) == 23 * 19
    assert all(ok for *_, ok in rows), [row for row in rows if not row[-1]]
    inferred = run_grid_infer(12, 20, 1e-8)
    assert len(inferred) == 23
    assert all(stable for *_, stable in inferred), [row for row in inferred if not row[-1]]


def test_stiffness_rows_build_one_branch_table(monkeypatch):
    import eigmatch.cli as cli

    calls = []

    def counted(p, k, theta):
        calls.append((p, k))
        return symbol_f(p, k, theta)

    monkeypatch.setattr(cli, "symbol_f", counted)
    rows = run_bspline_verify("K", 3, 6, 1e-8)
    assert all(ok for *_, ok in rows)
    assert len(calls) == len(rows) == 5 * 5


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
    (["mn-table", "--example", "e2", "--ns", "16,8,16,8"], "eig_sym", [16, 8]),
])
def test_duplicate_ns_solved_once(capsys, monkeypatch, argv, binding, solved):
    import eigmatch.cli as cli

    sizes = []
    solver = getattr(cli, binding)

    def counted(*args):
        spectrum = solver(*args)
        sizes.append(spectrum.n)
        return spectrum

    monkeypatch.setenv("EIGMATCH_THREADS", "1")  # one worker: calls arrive in submission order
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


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "--output", str(target), "counterexample", "--ns", "10"
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "10,1.0000,1"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["mn-table", "--example", "bogus"])
    assert exc.value.code == 2


def test_threads_env_override(monkeypatch, capsys):
    import eigmatch.cli as cli

    pools = []
    real_pool = cli.ThreadPoolExecutor

    def recorded(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setenv("EIGMATCH_THREADS", "1")
    monkeypatch.setattr(cli, "ThreadPoolExecutor", recorded)
    code, out, _ = run_cli(capsys, "mn-table2d", "--coef", "exp", "--ns", "900,1600")
    assert code == 0 and pools == [1]
    assert out.splitlines()[1:] == ["900,0.0684,0.0684420962491", "1600,0.0559,0.0559256023132"]


def test_mn_table_starts_no_thread(monkeypatch, capsys):
    import eigmatch.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("mn-table must solve on the calling thread")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    code, out, _ = run_cli(capsys, "mn-table", "--example", "e2", "--ns", "8,16")
    assert code == 0 and out.splitlines()[1].startswith("8,0.0851,")


def test_thread_count_capped_by_cpus_and_tasks(monkeypatch):
    monkeypatch.setenv("EIGMATCH_THREADS", str(10**9))
    cpus = os.cpu_count() or 1
    assert _max_workers(3) == min(cpus, 3)
    assert _max_workers(10**6) == cpus
    monkeypatch.setenv("EIGMATCH_THREADS", "1")
    assert _max_workers(8) == 1
    monkeypatch.delenv("EIGMATCH_THREADS")
    assert _max_workers(1) == 1


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # importing scipy.interpolate would add about a quarter second to every run
    code = "import sys, eigmatch.cli; print('scipy.interpolate' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_programmatic_experiment_registry(capsys):
    from eigmatch.cli import ExperimentSpec, run

    code = run(ExperimentSpec(name="counterexample", params={"ns": [10]}))
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1] == "10,1.0000,1"


def test_unknown_experiment_is_usage_error(capsys):
    from eigmatch.cli import ExperimentSpec, run

    assert run(ExperimentSpec(name="bogus")) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_non_square_n_is_usage_error(capsys):
    code = main(["mn-table2d", "--coef", "exp", "--ns", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not a perfect square" in err
