"""eigmatch benchmark: time CLI workloads in fresh processes and check their output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  After one untimed warm-up import, the parent starts passes one at
a time, each in a fresh child process, until S seconds have gone by.  A pass
runs every CLI step of the workload through ``eigmatch.cli.main`` and its CSV
is checked row by row against the benchmark's reference values.

With ``--trace 0`` every pass runs untraced and the end-to-end metrics are
the medians over passes; ``setup_s`` also counts three import-only children
started before the passes.  With ``--trace 1`` passes alternate untraced and
traced, and the per-layer metrics are medians over the traced passes, plus
``trace_overhead`` = median traced wall / median untraced wall - 1.

The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (rows) and ``metrics``.  Pass details, the environment record and
the spans go to stderr and to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import check_csv
from spans import SPAN_FIELDS
from workloads import WORKLOADS, pass_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# The whole benchmark must end within 180 s: no pass starts after
# LAST_START_S, and a pass is killed once TOTAL_LIMIT_S has gone by.
LAST_START_S = 120.0
TOTAL_LIMIT_S = 170.0

# Import-only children per untimed run, so that setup_s is a median of at
# least this many set-ups even when a run holds only two passes.
SETUP_PROBES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

ENV_PROBE = """
import json, platform
import numpy, scipy
import eigmatch.cli
def blas(mod):
    try:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError, AttributeError):
        return "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


def child_env() -> tuple[dict[str, str], int]:
    """Environment for the children, and the worker count the CLI will use.

    The library's default worker count is os.cpu_count(); where that exceeds
    the CPUs this process may run on, EIGMATCH_THREADS caps it at the
    affinity count so that no pass runs more threads than cores.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("EIGMATCH_THREADS", None)
    cpus, affinity = os.cpu_count() or 1, len(os.sched_getaffinity(0))
    if cpus > affinity:
        env["EIGMATCH_THREADS"] = str(affinity)
        return env, affinity
    return env, cpus


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def warm_up(env: dict[str, str]) -> dict:
    """Untimed first import (byte-compiles, fills the file cache); returns versions."""
    proc = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import eigmatch from {ROOT / 'src'}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(index: int, steps, traced: bool, env, out_dir: Path, timeout: float) -> dict:
    """One pass in a fresh child; returns its timings, row counts and checksums."""
    csv_dir = out_dir / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "pass.json"
    for stale in [result_path, *csv_dir.glob("step-*.csv")]:
        stale.unlink(missing_ok=True)
    spawned = time.monotonic()
    cmd = [sys.executable, str(CHILD), repr(spawned), "1" if traced else "0",
           str(result_path), str(csv_dir)] + [json.dumps(step.argv()) for step in steps]
    result, error = None, None
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout:.0f} s"
    else:
        if proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        else:
            error = f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    record = {"index": index, "traced": traced, "error": error, "attempted": 0,
              "problems": [], "sha256": []}
    for i, step in enumerate(steps):
        csv_path = csv_dir / f"step-{i}.csv"
        text = None
        if result is not None and result["exit_codes"][i] == 0 and csv_path.is_file():
            text = csv_path.read_text()
            record["sha256"].append(hashlib.sha256(text.encode()).hexdigest())
        attempted, problems = check_csv(step, text)
        record["attempted"] += attempted
        record["problems"] += problems
    if result is not None:
        record.update(result)
    return record


def summarize(args, passes: list[dict], probes: list[dict]) -> dict:
    """The result line: row counts of every pass, medians over completed passes.

    setup_s is the median over the import-only probes and the untraced passes.
    """
    done = [p for p in passes if p["error"] is None]
    untraced = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    metrics = {}
    if args.trace:
        names = list(traced[0]["layers"])
        units = {name: ("s" if name.endswith("_s") else "count") for name in names}
        for name in names:
            metrics[name] = {"value": statistics.median(p["layers"][name] for p in traced),
                             "unit": units[name]}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in untraced) - 1.0)
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        setups = [p for p in probes if p["error"] is None] + untraced
        for name, unit in END_TO_END.items():
            samples = setups if name == "setup_s" else untraced
            metrics[name] = {"value": statistics.median(p[name] for p in samples), "unit": unit}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    began = time.monotonic()
    if not (ROOT / "src" / "eigmatch" / "cli.py").is_file():
        log(f"no eigmatch sources under {ROOT / 'src'}: run from a source checkout")
        return 2
    env, workers = child_env()
    try:
        versions = warm_up(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log(str(exc))
        return 1
    steps = pass_steps(WORKLOADS[args.workload], args.smoke)
    environment = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                   "cpu_model": cpu_model(), **versions, "workers": workers,
                   "seed": args.seed, "workload": args.workload,
                   "steps": [step.argv() for step in steps]}
    log("environment " + json.dumps(environment))

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    probes = [] if args.trace else [run_pass(-1, [], False, env, out_dir, TOTAL_LIMIT_S)
                                    for _ in range(SETUP_PROBES)]
    if probes:
        log("setup probes " + " ".join(f"{p['setup_s']:.3f}" for p in probes if p["error"] is None))
    passes: list[dict] = []
    measure_start = time.monotonic()
    while True:
        if len(passes) >= (2 if args.trace else 1) and (
                time.monotonic() - measure_start >= args.seconds
                or time.monotonic() - began > LAST_START_S):
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        record = run_pass(len(passes), steps, traced, env, out_dir,
                          TOTAL_LIMIT_S - (time.monotonic() - began))
        passes.append(record)
        log(f"pass {record['index']} traced={int(traced)} "
            + (f"setup {record['setup_s']:.3f} s wall {record['wall_s']:.3f} s "
               f"cpu {record['cpu_s']:.3f} s rss {record['peak_rss_mib']:.1f} MiB "
               if record["error"] is None else f"error: {record['error']} ")
            + f"rows {record['attempted'] - len(record['problems'])}/{record['attempted']} ok "
            + f"csv sha256 {[h[:12] for h in record['sha256']]}")
        for problem in record["problems"][:10]:
            log(f"  FAIL {problem}")
        if record.get("spans"):
            top = max(record["self_s"].items(), key=lambda kv: kv[1])
            log(f"  dominant layer {top[0]}: self time {top[1]:.3f} s summed over threads")

    done = {p["traced"] for p in passes if p["error"] is None}
    if not done or (args.trace and done != {False, True}):
        log("no complete pass of every kind: no result")
        return 1
    result = summarize(args, passes, probes)
    with open(out_dir / "record.json", "w") as fh:
        json.dump({"environment": environment, "result": result, "probes": probes,
                   "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]},
                  fh, indent=1)
    if args.trace:
        with open(out_dir / "spans.jsonl", "w") as fh:
            for p in passes:
                for span in p.get("spans", ()):
                    fh.write(json.dumps({"pass": p["index"], **dict(zip(SPAN_FIELDS, span))}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
