"""Benchmark of the mrm pipeline: training and scoring throughput.

    python3 perfbench/run.py --workload short_train --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

A single-workload run prints the environment, every metric with its unit,
every failed check, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

# One BLAS thread: the load is one client, and a pinned count keeps runs
# comparable on a shared machine. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
MAX_FAILURES_SHOWN = 20


def _import_library():
    """Put this checkout's src/ first on the path and import mrm from it."""
    if not os.path.isfile(os.path.join(SRC, "mrm", "__init__.py")):
        sys.exit(f"perfbench: no mrm sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import mrm
    if os.path.dirname(os.path.abspath(mrm.__file__)) != os.path.join(SRC, "mrm"):
        sys.exit(f"perfbench: imported mrm from {mrm.__file__}, not {SRC}")


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import workloads

    w = workloads.WORKLOADS[name]
    print("env " + json.dumps(environment(name, seed), sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        if trace:
            layer, tally = workloads.measure_traced(w, seed, workdir)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            for k, (v, u) in layer.items():
                _print_metric(k, v, u)
        else:
            values, wall, extra, notes, tally = workloads.measure(w, seed, seconds,
                                                                  workdir)
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, (unit, _) in workloads.END_TO_END.items()}
            for k, m in metrics.items():
                _print_metric(k, m["value"], m["unit"],
                              f" (wall clock {wall[k]:.6g})")
            for k, unit in workloads.REPORTED_ONLY.items():
                _print_metric(k, extra[k], unit, " (reported, not in the result)")
            print("samples " + json.dumps(notes, sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    for message in tally.messages[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {message}")
    if len(tally.messages) > MAX_FAILURES_SHOWN:
        print(f"FAILED ... {len(tally.messages) - MAX_FAILURES_SHOWN} more")
    print(f"checks attempted={tally.attempted} failed={tally.failed}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from perfbench import workloads

    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    _import_library()
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
