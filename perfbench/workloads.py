"""The benchmark's workloads: fixed sequences of eigmatch CLI invocations.

A pass runs every step of one workload, in one fresh child process, through
``eigmatch.cli.main``.  Sizes are the acceptance sizes of the paper's tables
and sweeps, which are deterministic: every seed gives the same inputs, and
the steps run in a fixed order, so no seed changes the work or its order.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_TABLE_NS = "8,16,32,64,128,256,512,1024"
DEFAULT_TABLE2D_NS = "900,1600,2500,3600,4900,6400,8100,10000"
GRID_INFER_DEFAULT_PMAX = 5


@dataclass(frozen=True)
class Step:
    """One CLI invocation: a subcommand and its options (name -> value)."""

    command: str
    options: tuple[tuple[str, str], ...] = ()

    def option(self, name: str, default: str | None = None) -> str | None:
        return dict(self.options).get(name, default)

    def argv(self) -> list[str]:
        out = [self.command]
        for name, value in self.options:
            out += [f"--{name}", value]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]
    smoke_steps: tuple[Step, ...]


def _mn(example: str, ns: str | None = None) -> Step:
    opts = (("example", example),) + ((("ns", ns),) if ns else ())
    return Step("mn-table", opts)


def _fd(coef: str, ns: str | None = None) -> Step:
    opts = (("coef", coef),) + ((("ns", ns),) if ns else ())
    return Step("mn-table2d", opts)


def _spline(family: str, pmax: int, nmax: int) -> Step:
    return Step("bspline-verify", (("family", family), ("pmax", str(pmax)), ("nmax", str(nmax))))


def _grid_infer(pmax: int | None = None, nmax: int | None = None) -> Step:
    if pmax is None:
        return Step("grid-infer")
    return Step("grid-infer", (("pmax", str(pmax)), ("nmax", str(nmax))))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toeplitz-tables",
            "mn-table e2 and e3 at n=8..1024: Fourier coefficients dominate, dense eigensolves "
            "second, no Galerkin work",
            (_mn("e2"), _mn("e3")),
            (_mn("e2", "8,16,32"), _mn("e3", "8,16,32")),
        ),
        Workload(
            "fd-table",
            "mn-table2d for exp, cos3 and xlog at n=900..10000: the banded tridiagonal "
            "eigensolver dominates; no assembly or Fourier coefficients",
            (_fd("exp"), _fd("cos3"), _fd("xlog")),
            (_fd("exp", "900,1600"), _fd("cos3", "900,1600"), _fd("xlog", "900,1600")),
        ),
        Workload(
            "spline-sweeps",
            "bspline-verify M and L at pmax 8, nmax 20: Python spline assembly and many small "
            "symbol evaluations; grids are closed-form, so no inference runs",
            (_spline("M", 8, 20), _spline("L", 8, 20)),
            (_spline("M", 3, 6), _spline("L", 3, 6)),
        ),
        Workload(
            "stiffness-inference",
            "bspline-verify K at pmax 7 plus grid-infer: the only workload that runs the "
            "4^(p-k) grid-assignment search",
            (_spline("K", 7, 20), _grid_infer()),
            (_spline("K", 3, 6), _grid_infer(3, 10)),
        ),
    )
}


def pass_steps(workload: Workload, smoke: bool = False) -> list[Step]:
    """The steps of one pass, at acceptance or (smoke) reduced sizes."""
    return list(workload.smoke_steps if smoke else workload.steps)
