"""One benchmark pass in a fresh process: import eigmatch, run the CLI steps.

Usage: child.py SPAWN_MONOTONIC TRACE(0|1) RESULT_JSON CSV_DIR STEP_JSON...

The first thing the process does is import ``eigmatch.cli``, so that
``setup_s`` (spawn to import done, on the system-wide monotonic clock) covers
interpreter start, package import and its numpy/scipy imports, as any CLI
call pays them.  Each STEP_JSON is a CLI argv list; step i writes its CSV to
CSV_DIR/step-i.csv.  Timings, rusage, exit codes and, when tracing, spans are
written to RESULT_JSON.  An exception in a step propagates, and the process
exits nonzero without a result file.
"""

import sys
import time

import eigmatch.cli

ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from spans import Tracer, layer_metrics, self_times  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> None:
    spawned, trace, result_path, csv_dir = float(argv[0]), argv[1] == "1", argv[2], argv[3]
    steps = [json.loads(arg) for arg in argv[4:]]
    tracer = Tracer()
    if trace:
        tracer.install()
    exit_codes = []
    cpu0, start = _cpu_s(), time.perf_counter()
    for i, step in enumerate(steps):
        exit_codes.append(eigmatch.cli.main(["--output", os.path.join(csv_dir, f"step-{i}.csv")] + step))
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    tracer.uninstall()
    result = {
        "setup_s": ready - spawned,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
    }
    if trace:
        result["layers"] = layer_metrics(tracer.spans, tracer.counters, wall_s)
        result["self_s"] = self_times(tracer.spans)
        result["spans"] = [[s[0], s[1], s[2] - start, s[3] - start, s[4], s[5]] for s in tracer.spans]
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
