"""The benchmark's own reference values and the per-row check of CLI output.

The table values are the published 4-decimal tables (flat-ramp e2, cos-dip
e3 and the three finite-difference coefficients).  A computed value passes
when, rounded to 4 decimals, it is within 5e-5 of the printed one.  Spline
rows pass when the CLI marks them passed and their error is at most 1e-8;
grid-infer rows pass when stable, with the known (2, 0) assignment.
"""

from __future__ import annotations

import csv
import io

from workloads import (
    DEFAULT_TABLE2D_NS,
    DEFAULT_TABLE_NS,
    GRID_INFER_DEFAULT_PMAX,
    Step,
)

TABLE_TOL = 5e-5 + 1e-12
SPLINE_TOL = 1e-8

TABLE_NS = [8, 16, 32, 64, 128, 256, 512, 1024]
TABLE2D_NS = [900, 1600, 2500, 3600, 4900, 6400, 8100, 10000]

MN_TABLES = {
    "e2": dict(zip(TABLE_NS, [0.0851, 0.0632, 0.0454, 0.0312, 0.0206, 0.0132, 0.0082, 0.0050])),
    "e3": dict(zip(TABLE_NS, [0.7220, 0.5625, 0.4471, 0.2956, 0.1783, 0.1096, 0.0605, 0.0373])),
}
FD_TABLES = {
    "exp": dict(zip(TABLE2D_NS, [0.0684, 0.0559, 0.0473, 0.0411, 0.0364, 0.0326, 0.0296, 0.0271])),
    "cos3": dict(zip(TABLE2D_NS, [0.1471, 0.1132, 0.0890, 0.0738, 0.0634, 0.0558, 0.0484, 0.0436])),
    "xlog": dict(zip(TABLE2D_NS, [0.1240, 0.0915, 0.0717, 0.0583, 0.0497, 0.0435, 0.0383, 0.0344])),
}
GRID_INFER_KNOWN = {(2, 0): "no_zero+interior"}


def _pk_pairs(pmax: int) -> list[tuple[int, int]]:
    return [(p, k) for p in range(1, pmax + 1) for k in (0, 1) if k <= p - 1]


def _ns(spec: str) -> list[int]:
    return [int(tok) for tok in spec.split(",") if tok.strip()]


def expected_rows(step: Step) -> list[tuple]:
    """Row keys the step's CSV must hold, in CLI order."""
    if step.command == "mn-table":
        return [(n,) for n in _ns(step.option("ns", DEFAULT_TABLE_NS))]
    if step.command == "mn-table2d":
        return [(n,) for n in _ns(step.option("ns", DEFAULT_TABLE2D_NS))]
    if step.command == "bspline-verify":
        pmax, nmax = int(step.option("pmax")), int(step.option("nmax"))
        return [(p, k, n) for p, k in _pk_pairs(pmax) for n in range(2, nmax + 1)]
    if step.command == "grid-infer":
        pmax = int(step.option("pmax", str(GRID_INFER_DEFAULT_PMAX)))
        return [(p, k) for p, k in _pk_pairs(pmax)]
    raise ValueError(f"no reference for command {step.command!r}")


def _row_problem(step: Step, key: tuple, row: dict[str, str]) -> str | None:
    """Why one parsed row fails its acceptance check, or None when it passes."""
    if step.command in ("mn-table", "mn-table2d"):
        table = (MN_TABLES[step.option("example")] if step.command == "mn-table"
                 else FD_TABLES[step.option("coef")])
        if key[0] not in table:
            return "no reference value"
        value = float(row["M_n_full"])
        if not abs(round(value, 4) - table[key[0]]) <= TABLE_TOL:
            return f"M_n {value!r} vs reference {table[key[0]]}"
        return None
    if step.command == "bspline-verify":
        err = float(row["max_error"])
        if row["pass"] != "1" or not err <= SPLINE_TOL:
            return f"pass={row['pass']} max_error={row['max_error']}"
        return None
    label = row["assignment"]
    if row["stable"] != "1" or label == "none":
        return f"assignment {label} stable={row['stable']}"
    if key in GRID_INFER_KNOWN and label != GRID_INFER_KNOWN[key]:
        return f"assignment {label} vs reference {GRID_INFER_KNOWN[key]}"
    return None


def check_csv(step: Step, text: str | None) -> tuple[int, list[str]]:
    """Check a step's CSV; return (rows attempted, one message per failed row).

    ``text`` is None when the CLI produced no output or exited nonzero, in
    which case every expected row fails.
    """
    keys = expected_rows(step)
    if text is None:
        return len(keys), [f"{' '.join(step.argv())}: no output"] * len(keys)
    reader = csv.DictReader(io.StringIO(text))
    key_fields = (reader.fieldnames or [])[: len(keys[0]) if keys else 0]
    by_key: dict[tuple, dict[str, str]] = {}
    for row in reader:
        try:
            key = tuple(int(row[f]) for f in key_fields)
        except (TypeError, ValueError):
            continue  # malformed key: the expected row stays missing
        by_key[key] = row
    problems = []
    for key in keys:
        where = f"{' '.join(step.argv())} row {key}"
        if key not in by_key:
            problems.append(f"{where}: missing")
            continue
        try:
            problem = _row_problem(step, key, by_key[key])
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"unparseable ({exc!r})"
        if problem is not None:
            problems.append(f"{where}: {problem}")
    return len(keys), problems
