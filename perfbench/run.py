"""wpcurv benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload run_L3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, one table

Workloads (see README.md in this directory): run_L3 and operators_L4.  Each
runs in a child process (worker.py) with at most nproc BLAS threads, from
the package source in ``src/`` of the checkout.

With ``--trace 0`` the workload is timed untraced: ``wall_s`` is the median
iteration time, ``setup_s`` the median over several fresh processes of the
time from process start to the end of set-up, ``peak_rss_mb`` the peak RSS
of the measuring process.  With ``--trace 1`` a warm-up, an untraced and a
traced iteration run in one process and the per-layer metrics are reported.
Readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``attempted``
counts the checks evaluated and ``failed`` the checks whose outcome
differs from the documented one.  Without the package source the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("run_L3", "operators_L4")
#: fresh processes that only set up, besides the measuring one
SETUP_PROBES = 3
#: a run ends within this many seconds (the contract allows 180)
TIME_LIMIT = 170.0

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
#: numerical health values read from the outputs; 0 where not measured
HEALTH = ("wedge.two_path_rel", "surface.green_min_entry", "surface.lambda1_rel_err")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name in HEALTH or name.endswith("_frac"):
        return "1"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); its JSON line."""
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checks(iterations) -> dict:
    verdicts = [it["verdict"] for it in iterations]
    run = sum(v["run"] for v in verdicts)
    failed = sum(len(v["failed"]) for v in verdicts)
    return {
        "run": run,
        "failed": failed,
        "fail_frac": failed / run,
        "failed_names": sorted({n for v in verdicts for n in v["failed"]}),
        "unexpected": sorted({n for v in verdicts for n in v["unexpected"]}),
        "unexpected_count": sum(len(v["unexpected"]) for v in verdicts),
    }


def per_layer(res: dict, checks: dict) -> dict:
    """Per-layer metrics of a traced worker result (..., untraced, traced)."""
    untraced, traced = res["iterations"][-2:]
    metrics = dict(res["layers"])
    metrics.update({key: 0.0 for key in HEALTH})
    metrics.update(traced["health"])
    metrics.update({
        "cli.artifact_bytes": traced["artifact_bytes"],
        "checks.run": checks["run"],
        "checks.fail_frac": checks["fail_frac"],
        "process.cpu_s": untraced["cpu_s"],
        "trace.wall_s": traced["wall_s"],
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--workdir", workdir]
    record = {"workload": workload, "seed": seed, "trace": trace}
    try:
        if trace:
            record["spans_file"] = os.path.join(OUT, "spans-%s-%d.json" % (workload, seed))
            res = _spawn(base + ["--trace", "1", "--spans", record["spans_file"]], deadline)
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                start = time.monotonic()
                setups.append(_spawn(base + ["--setup-only"], deadline)["ready"] - start)
            start = time.monotonic()
            res = _spawn(base + ["--budget", str(deadline - start - 10)], deadline)
            setups.append(res["ready"] - start)
            record["setup_samples"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    its = res["iterations"]
    record.update(machine=res["machine"], checks=_checks(its),
                  wall_samples=[it["wall_s"] for it in its], health=its[-1]["health"])
    if trace:
        metrics = per_layer(res, record["checks"])
    else:
        metrics = {
            "wall_s": statistics.median(record["wall_samples"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    record["metrics"] = metrics
    with open(os.path.join(OUT, "result-%s-%d-trace%d.json" % (workload, seed, trace)),
              "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> list:
    """Readable lines: metrics with units and sample counts, checks, machine."""
    c, m = record["checks"], record["metrics"]
    lines = ["%s seed=%d trace=%d" % (record["workload"], record["seed"], record["trace"])]
    if record["trace"]:
        lines += ["  %-32s %14.6g %s" % (k, v, unit(k)) for k, v in sorted(m.items())]
        self_sum = sum(v for k, v in m.items()
                       if k.endswith("_s") and not k.startswith(("trace.", "process.")))
        lines.append("  self times %.4f s + uncovered %.4f s = traced wall %.4f s;"
                     " tracing overhead %.4f s"
                     % (self_sum, m["trace.uncovered_s"], m["trace.wall_s"],
                        m["trace.overhead_s"]))
    else:
        n_wall, n_setup = len(record["wall_samples"]), len(record["setup_samples"])
        lines += [
            "  wall_s          %12.4f s   median of %d iteration(s)" % (m["wall_s"], n_wall),
            "  setup_s         %12.4f s   median of %d set-ups" % (m["setup_s"], n_setup),
            "  peak_rss_mb     %12.1f MB  1 process" % m["peak_rss_mb"],
            "  check_fail_frac %12.4f     %d of %d checks failed"
            % (c["fail_frac"], c["failed"], c["run"]),
        ]
        if "surface.lambda1_rel_err" in record["health"]:
            lines.append("  lambda1_rel_err %12.3e     largest of 3, %d sample(s)"
                         % (record["health"]["surface.lambda1_rel_err"], n_wall))
    lines.append("  failed checks: %s" % (", ".join(c["failed_names"]) or "none"))
    lines.append("  unexpected outcomes: %s" % (", ".join(c["unexpected"]) or "none"))
    lines.append("  machine: %s" % json.dumps(record["machine"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wpcurv", "__init__.py")):
        print("perfbench: no package source at src/wpcurv; nothing to measure",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT
            records.append(measure(name, args.seed, args.seconds, args.trace, deadline))
            print("\n".join(report(records[-1])), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    if args.workload == "all":
        if not args.trace:
            print("%-13s %10s %8s %12s %16s %16s" % ("workload", "wall_s", "setup_s",
                  "peak_rss_mb", "check_fail_frac", "lambda1_rel_err"))
            for r in records:
                m, lam = r["metrics"], r["health"].get("surface.lambda1_rel_err")
                print("%-13s %10.4f %8.4f %12.1f %16.4f %16s" % (
                    r["workload"], m["wall_s"], m["setup_s"], m["peak_rss_mb"],
                    r["checks"]["fail_frac"], "-" if lam is None else "%.3e" % lam))
        return 0
    (record,) = records
    checks = record["checks"]
    print(json.dumps({
        "correct": checks["unexpected_count"] == 0,
        "attempted": checks["run"],
        "failed": checks["unexpected_count"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
