"""Tests of the benchmark itself: row checks, tracing wrappers and smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import eigmatch.cli  # noqa: E402
import eigmatch.galerkin  # noqa: E402
from eigmatch import problems  # noqa: E402

import reference  # noqa: E402
from spans import LAYERS, Tracer, peak_concurrency, union_length  # noqa: E402
from workloads import WORKLOADS, Step, pass_steps  # noqa: E402

MN_E2 = Step("mn-table", (("example", "e2"), ("ns", "8,16,32")))
SPLINE_M = Step("bspline-verify", (("family", "M"), ("pmax", "3"), ("nmax", "5")))
GRID = Step("grid-infer", (("pmax", "3"), ("nmax", "10")))


def cli_csv(step: Step, tmp_path: Path) -> str:
    out = tmp_path / "out.csv"
    assert eigmatch.cli.main(["--output", str(out)] + step.argv()) == 0
    return out.read_text()


@pytest.mark.parametrize("step", [MN_E2, SPLINE_M, GRID], ids=lambda s: s.command)
def test_cli_output_passes(step, tmp_path):
    attempted, problems_ = reference.check_csv(step, cli_csv(step, tmp_path))
    assert attempted == len(reference.expected_rows(step)) > 0
    assert problems_ == []


def test_perturbed_reference_value_fails_its_row(tmp_path, monkeypatch):
    text = cli_csv(MN_E2, tmp_path)
    perturbed = dict(reference.MN_TABLES["e2"])
    perturbed[16] += 1e-4
    monkeypatch.setitem(reference.MN_TABLES, "e2", perturbed)
    attempted, problems_ = reference.check_csv(MN_E2, text)
    assert attempted == 3
    assert len(problems_) == 1 and "row (16,)" in problems_[0]


def test_corrupted_rows_fail(tmp_path):
    lines = cli_csv(MN_E2, tmp_path).splitlines()
    header, rows = lines[0], lines[1:]
    n8, n16, n32 = (row.split(",") for row in rows)
    n8[2] = str(float(n8[2]) + 1e-3)  # value off by 1e-3
    n16[2] = "nan"
    corrupted = "\n".join([header, ",".join(n8), ",".join(n16)]) + "\n"  # n=32 missing
    attempted, problems_ = reference.check_csv(MN_E2, corrupted)
    assert attempted == 3 and len(problems_) == 3


def test_spline_and_grid_rows_fail_on_bad_values(tmp_path):
    text = cli_csv(SPLINE_M, tmp_path)
    bad = text.replace(",1\n", ",0\n", 1)
    assert len(reference.check_csv(SPLINE_M, bad)[1]) == 1
    text = cli_csv(GRID, tmp_path)
    bad = text.replace("no_zero+interior", "full+interior")
    assert len(reference.check_csv(GRID, bad)[1]) == 1


def test_no_output_fails_every_row():
    attempted, problems_ = reference.check_csv(SPLINE_M, None)
    assert attempted == len(problems_) == 5 * 4


def test_wrappers_return_results_unchanged():
    symbol = problems.plateau_ramp_symbol()
    theta = np.linspace(-3.0, 3.0, 101)
    K, _ = eigmatch.galerkin.assemble_KM(6, 3, 1)
    expected = {
        "coeffs": eigmatch.cli.fourier_coeffs(symbol, 32).data,
        "eig": eigmatch.cli.eig_sym(K).values,
        "sample": symbol.sample(theta),
        "match": eigmatch.galerkin.sorted_match(theta, theta[::-1]).m_n,
        "symbol": eigmatch.cli.symbol_e_branches(3, 1, 0.5),
    }
    originals = {name: getattr(eigmatch.cli, name) for name in ("fourier_coeffs", "eig_sym")}
    with Tracer() as tracer:
        assert eigmatch.cli.eig_sym is not originals["eig_sym"]
        got = {
            "coeffs": eigmatch.cli.fourier_coeffs(symbol, 32).data,
            "eig": eigmatch.cli.eig_sym(K).values,
            "sample": symbol.sample(theta),
            "match": eigmatch.galerkin.sorted_match(theta, theta[::-1]).m_n,
            "symbol": eigmatch.cli.symbol_e_branches(3, 1, 0.5),
        }
        with pytest.raises(ValueError):
            eigmatch.cli.eig_sym(np.ones((2, 3)))
    for key in expected:
        assert np.array_equal(expected[key], got[key]), key
    for name, fn in originals.items():
        assert getattr(eigmatch.cli, name) is fn
    names = [span[1] for span in tracer.spans]
    # fourier_coeffs samples the symbol inside its own span; symbol_e_branches
    # calls symbol_f and symbol_h, each counted.
    assert names.count("core.sample") == 2 and names.count("galerkin.symbol") == 3
    assert names.count("eig.eig_sym") == 2  # the failing call is recorded too
    assert tracer.counters["eig.eig_sym.dof"] == K.shape[0]
    fourier = [s[0] for s in tracer.spans if s[1] == "toeplitz.fourier_coeffs"]
    assert [s[4] for s in tracer.spans if s[1] == "core.sample"] == [fourier[0], None]
    assert tracer.counters["core.sample.points"] > 101


def test_traced_cli_output_is_byte_identical(tmp_path):
    plain = cli_csv(SPLINE_M, tmp_path)
    with Tracer() as tracer:
        traced = cli_csv(SPLINE_M, tmp_path)
    assert traced == plain
    assert tracer.counters["galerkin.verify_eig_formula.passed"] == 5 * 4


def test_interval_helpers():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([]) == 0.0
    assert peak_concurrency([(0.0, 2.0), (1.0, 3.0), (2.0, 4.0)]) == 2


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_workloads():
    spec = benchmark_spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert all(pass_steps(w) and pass_steps(w, smoke=True) for w in WORKLOADS.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_every_workload(workload):
    spec = benchmark_spec()
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert {f"{layer.name}.busy_s" for layer in LAYERS} <= set(result["metrics"])


def test_smoke_run_end_to_end_metrics():
    spec = benchmark_spec()
    proc = run_bench("--workload", "toeplitz-tables", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert all(metrics[name]["value"] > 0 for name in metrics)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "fd-table", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
