"""Run one workload in this process and print its measurements.

Started by ``run.py``, which sets the BLAS thread count in the
environment before numpy loads.  The last line of standard output is one
JSON object; ``ready`` is the CLOCK_MONOTONIC time at which set-up ended
(imports and input generation), so the parent can measure set-up from the
moment it started this process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --workdir DIR
        [--trace 0|1] [--setup-only] [--budget SECONDS] [--spans PATH]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                found[os.path.basename(path)] = get()
                break
    return found


def _git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _openblas_threads(),
        "git_revision": _git_revision(),
    }


def _iteration(workload: str, spec: dict, inputs: dict) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    outputs = spec["iterate"](inputs)
    verdict = workloads.evaluate(workload, outputs)
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "verdict": verdict,
        "health": spec["health"](outputs),
        "artifact_bytes": outputs.get("artifact_bytes", 0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--budget", type=float, default=150.0,
                    help="start no iteration that would end later than this")
    ap.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    inputs = spec["setup"](args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "machine": machine_facts()}
    try:
        if args.trace:
            # the first iteration of a process pays one-time costs, so the
            # traced iteration is compared with a second, untraced one
            warmup = _iteration(args.workload, spec, inputs)
            untraced = _iteration(args.workload, spec, inputs)
            trace = tracer.Tracer()
            trace.install()
            try:
                traced = _iteration(args.workload, spec, inputs)
            finally:
                trace.uninstall()
            result["iterations"] = [warmup, untraced, traced]
            result["layers"] = tracer.layer_metrics(trace.spans, trace.counts,
                                                    traced["wall_s"])
            result["layers"]["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump(trace.spans, fh)
        else:
            deadline = ready + args.budget
            iterations = [_iteration(args.workload, spec, inputs)]
            while (sum(it["wall_s"] for it in iterations) < args.seconds
                   and time.monotonic() + iterations[-1]["wall_s"] < deadline):
                iterations.append(_iteration(args.workload, spec, inputs))
            result["iterations"] = iterations
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
