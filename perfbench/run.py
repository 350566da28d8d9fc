"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload join --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with no probe installed and reports
the end-to-end metrics of ``BENCHMARK.json`` (set-up and batch
operation times scaled to reference host speed, see ``hostspeed.py``;
the wall-clock figures are in the notes); ``--trace 1`` is a
separate run that alternates untraced and traced work and reports the
per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report with the
machine fingerprint.  The full result, and in a traced run the span
log, are also written under ``.perfbench/results/``.

The program is imported from ``src/`` next to this directory; the
benchmark builds nothing and installs nothing.  Scratch files (disk
datasets, spill runs, cluster worker directories) live under
``.perfbench/work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A timed run repeats set-up at least this many times, and until
#: ``SETUP_SHARE`` of ``--seconds`` has gone into it; ``setup_s`` is
#: the median.  A traced run sets up once.
SETUP_REPEATS = 3
SETUP_SHARE = 0.15


def metric_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def fingerprint() -> Dict[str, Any]:
    """Machine and source identity recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain source checkout
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, sizes: Optional[Dict] = None) -> Dict:
    """Set up, measure and tear down one workload; returns the result.

    ``sizes`` overrides :data:`workloads.SIZES` (the tests run tiny
    inputs through exactly this path).
    """
    import workloads
    from hostspeed import Bracket
    from repro.mapreduce import shutdown_shared_pools

    size = (sizes or workloads.SIZES)[name]
    cls = workloads.WORKLOADS[name]
    setups: List[float] = []  # scaled to reference host speed
    wall_setups: List[float] = []
    warmup = workloads.Measurement()
    workload = None
    try:
        bracket = Bracket()
        while not setups or (not trace and (
            len(setups) < SETUP_REPEATS
            or sum(wall_setups) < SETUP_SHARE * seconds
        )):
            if workload is not None:
                workload.close()
            workload = cls(seed, size, workdir, seconds)
            started = time.perf_counter()
            workload.setup(warmup, trace)
            wall_setups.append(time.perf_counter() - started)
            setups.append(bracket.scale(wall_setups[-1]))
        if trace:
            measured = workload.measure_traced(seconds)
        else:
            measured = workload.measure(seconds)
    finally:
        if workload is not None:
            workload.close()
        shutdown_shared_pools()
    units = metric_units()
    if trace:
        values = measured.layers
        wanted = units["per_layer"]
    else:
        summary = cls.summarize(measured.op_seconds)
        values = {
            "op_ms": 1000.0 * summary.pop("op_s"),
            "tail_ms": 1000.0 * summary.pop("tail_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        measured.notes.update(summary)
        wanted = units["end_to_end"]
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"workload {name} did not report {missing}")
    attempted = warmup.attempted + measured.attempted
    failed = warmup.failed + measured.failed
    correct = failed == 0
    if trace:
        reconciled = (
            values["trace.reconcile_error"]
            <= workloads.RECONCILE_TOLERANCE
        )
        measured.notes["reconciled"] = reconciled
        correct = correct and reconciled
    measured.notes.update(
        failed_ratio=failed / attempted,
        setup_runs=[round(s, 4) for s in setups],
        wall_setup_s=statistics.median(wall_setups),
    )
    return {
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric: {"value": values[metric], "unit": unit}
                for metric, unit in wanted.items()
            },
        },
        "notes": measured.notes,
        "spans": [span.to_dict() for span in measured.spans],
        "op_seconds": measured.op_seconds,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # Everything the program puts in a temporary directory -- cluster
    # worker directories, spill runs -- stays inside the checkout.
    workdir = os.path.join(
        ROOT, ".perfbench", "work", f"{args.workload}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = outcome["result"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        **result,
        "notes": outcome["notes"],
        "op_seconds": outcome["op_seconds"],
    }
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as f:
            json.dump({"spans": outcome["spans"]}, f)
    print(f"machine: {json.dumps(record['machine'])}")
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{result['attempted']} attempted, {result['failed']} failed"
    )
    print(f"notes: {json.dumps(outcome['notes'])}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
