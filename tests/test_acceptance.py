"""Acceptance suite: quantitative reproduction of the packaged table values and
exactness claims at full scale, plus the randomized property backstop.

Each criterion prints one pass/fail line (visible with ``pytest -v -s`` or in
the captured output of a failing run).
"""

import math
import time

import numpy as np

from eigmatch.cli import (
    run_bspline_verify,
    run_counterexample,
    run_exactness_e1,
    run_exactness_e4p,
    run_grid_infer,
    run_mn_table,
    run_mn_table_2d,
    run_split_demo,
)
from eigmatch.galerkin import symbol_f, symbol_h

import property_suites

TABLE_NS = [8, 16, 32, 64, 128, 256, 512, 1024]
TABLE2D_NS = [900, 1600, 2500, 3600, 4900, 6400, 8100, 10000]

E2_VALUES = [0.0851, 0.0632, 0.0454, 0.0312, 0.0206, 0.0132, 0.0082, 0.0050]
E3_VALUES = [0.7220, 0.5625, 0.4471, 0.2956, 0.1783, 0.1096, 0.0605, 0.0373]
E4_VALUES = {
    "exp": [0.0684, 0.0559, 0.0473, 0.0411, 0.0364, 0.0326, 0.0296, 0.0271],
    "cos3": [0.1471, 0.1132, 0.0890, 0.0738, 0.0634, 0.0558, 0.0484, 0.0436],
    "xlog": [0.1240, 0.0915, 0.0717, 0.0583, 0.0497, 0.0435, 0.0383, 0.0344],
}


def _report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _check_table(rows, expected):
    worst = 0.0
    for (n, computed), printed in zip(rows, expected):
        worst = max(worst, abs(round(computed, 4) - printed))
    return worst


def test_criterion_1_flat_ramp_table():
    start = time.monotonic()
    rows = run_mn_table("e2", TABLE_NS)
    elapsed = time.monotonic() - start
    worst = _check_table(rows, E2_VALUES)
    _report(
        "criterion 1 (flat-ramp match table)",
        worst <= 5e-5 + 1e-12 and elapsed < 30.0,
        f"max table deviation {worst:.2e}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_2_cos_dip_table():
    start = time.monotonic()
    rows = run_mn_table("e3", TABLE_NS)
    elapsed = time.monotonic() - start
    worst = _check_table(rows, E3_VALUES)
    _report(
        "criterion 2 (cos-dip match table)",
        worst <= 5e-5 + 1e-12 and elapsed < 30.0,
        f"max table deviation {worst:.2e}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_3_finite_difference_tables():
    start = time.monotonic()
    worst = 0.0
    for coef, expected in E4_VALUES.items():
        rows = run_mn_table_2d(coef, TABLE2D_NS)
        worst = max(worst, _check_table(rows, expected))
    elapsed = time.monotonic() - start
    _report(
        "criterion 3 (finite-difference tables, all coefficients)",
        worst <= 5e-5 + 1e-12 and elapsed < 300.0,
        f"max table deviation {worst:.2e}, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_4_cosine_family_exactness():
    worst_ratio = 0.0
    for a, b in [(2.0, -2.0), (0.0, 1.0), (5.0, 3.0)]:
        rows = run_exactness_e1(list(range(1, 201)), a, b)
        worst = max(err for _, err in rows)
        worst_ratio = max(worst_ratio, worst / (abs(a) + abs(b)))
    _report(
        "criterion 4 (cosine-family exact eigenvalues, n <= 200)",
        worst_ratio <= 1e-10,
        f"max scaled error {worst_ratio:.2e} <= 1e-10",
    )


def test_criterion_5_tensor_product_exactness():
    rows, range_failures = run_exactness_e4p([5, 10, 20, 30])
    worst = max(err for _, err in rows)
    _report(
        "criterion 5 (tensor-product biquadratic exactness)",
        worst <= 1e-8 and not range_failures,
        f"max match error {worst:.2e} <= 1e-8, spectrum within [0, 3/2]",
    )


def test_criterion_6_block_split_pipeline():
    worst = 0.0
    ok = True
    for n in (20, 50, 100):
        rows = run_split_demo(n)
        ok = ok and [(j, c) for j, c, _ in rows] == [(1, n), (2, n - 1)]
        worst = max(worst, max(m for _, _, m in rows))
    _report(
        "criterion 6 (branch split pipeline, per-branch match)",
        ok and worst <= 1e-8,
        f"cardinalities (n, n-1), max branch error {worst:.2e} <= 1e-8",
    )


def test_criterion_7_counterexample():
    rows = run_counterexample([10, 100, 1000])
    values = [m for _, m in rows]
    _report(
        "criterion 7 (endpoint-indicator counterexample)",
        values == [1.0, 1.0, 1.0],
        f"match values {values} == 1 exactly",
    )


def test_criterion_8_mass_and_pencil_formulas():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for family in ("M", "L"):
        rows = run_bspline_verify(family, 8, 20, 1e-8)
        ok = ok and all(passed for *_, passed in rows)
        worst = max(worst, max(err for *_, err, _ in rows))
    elapsed = time.monotonic() - start
    _report(
        "criterion 8 (mass/pencil eigenvalue formulas, p <= 8, n <= 20)",
        ok and elapsed < 120.0,
        f"max error {worst:.2e} <= 1e-8, runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_9_stiffness_grid_inference():
    rows = run_grid_infer(5, 20, 1e-8)
    ok = all(stable and label != "none" for _, _, label, _, stable in rows)
    by_pk = {(p, k): label for p, k, label, _, _ in rows}
    ok = ok and by_pk[(2, 0)] == "no_zero+interior"
    _report(
        "criterion 9 (stiffness grid inference, stable across n)",
        ok,
        f"assignments {sorted(by_pk.items())}",
    )


def test_criterion_10_worksheet_symbols():
    rng = np.random.default_rng(42)
    worst = 0.0
    for theta in rng.uniform(0.0, math.pi, size=50):
        e = np.exp(1j * theta)
        f_expected = np.array(
            [[4 / 3, -2 / 3 - 2 * e / 3],
             [-2 / 3 - 2 * np.conj(e) / 3, 8 / 3 - 4 * np.cos(theta) / 3]]
        )
        h_expected = np.array(
            [[2 / 15, 1 / 10 + e / 10],
             [1 / 10 + np.conj(e) / 10, 2 / 5 + np.cos(theta) / 15]]
        )
        worst = max(worst, float(np.max(np.abs(symbol_f(2, 0, theta) - f_expected))))
        worst = max(worst, float(np.max(np.abs(symbol_h(2, 0, theta) - h_expected))))
    _report(
        "criterion 10 (worksheet symbol entries)",
        worst <= 1e-12,
        f"max entry deviation {worst:.2e} <= 1e-12 over 50 angles",
    )


def test_criterion_11_property_suites():
    suites = [
        ("sorted-pair inequality", property_suites.sorted_pair_suite, 1000),
        ("exhaustive = sorted matching", property_suites.min_perm_suite, 100),
        ("quantile measure preservation", property_suites.quantile_measure_suite, 1000),
        ("quantile integral identity", property_suites.quantile_integral_suite, 1000),
        ("eigenvalue perturbation stability", property_suites.weyl_suite, 100),
    ]
    for name, suite, trials in suites:
        suite(trials=trials)
    _report(
        "criterion 11 (randomized property suites)",
        True,
        ", ".join(f"{name} x{trials}" for name, _, trials in suites),
    )
