"""Tests of the benchmark itself: checks, metric names, tracing, exit codes.

    python3 -m pytest -q perfbench/test_perfbench.py

They feed hand-made outputs to the workload checks, so they run in a few
seconds and never run a workload.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from wpcurv import cli, fuchsian, qdiff, surface  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run_L3_outputs():
    checks = {name: {"pass": name != "quaternionic_null_vector"}
              for name in cli.CHECK_DESCRIPTIONS}
    checks["tensor_assembly"]["residual"] = {"two_path_rel": 1.3e-7}
    margins = {"worst_null_expansion": 8.0, "worst_j_invariance": 1e-16,
               "min_lstsq_resid": 0.7}
    checks["quaternionic_null_vector"]["residual"] = {"m1": margins, "m2": dict(margins)}
    return {
        "report": {"checks": checks},
        "spectrum": {"spectrum": {"counts": [9, 6, 0]}},
        "green": {"report": {"min_entry": 0.027}},
        "surrogate": {"all_counts_ok": True, "num_seeds": workloads.RUN_TRIALS,
                      "per_seed": [{"eigenvalues": [-1.0, 0.0], "tau": 1e-8}]},
        "artifact_bytes": 1,
    }


def _operators_L4_outputs():
    stage = {name: name != "tensor_assembly" for name in (
        "resolvent_operator", "green_kernel", "tensor_symmetries", "tensor_assembly",
        "xx_block_definite", "yy_block_definite", "cross_block_null", "reduction_null",
        "operator_nonpositive_kernel")}
    return {"stage_checks": stage, "health": {},
            "eigenvalues": [1e-14, 3.8302, 3.8376, 3.8376, 5.35, 5.35],
            "euler_characteristic": -2, "area": 12.5568}


def test_documented_failures_only():
    for name, outputs in (("run_L3", _run_L3_outputs()),
                          ("operators_L4", _operators_L4_outputs())):
        verdict = workloads.evaluate(name, outputs)
        assert verdict["unexpected"] == [], name
        assert set(verdict["failed"]) == workloads.EXPECTED_FAILURES[name], name
        assert verdict["fail_frac"] == 1 / verdict["run"], name


def test_flipped_check_raises_fail_frac():
    good = _run_L3_outputs()
    bad = copy.deepcopy(good)
    bad["report"]["checks"]["tensor_symmetries"]["pass"] = False
    before = workloads.evaluate("run_L3", good)
    after = workloads.evaluate("run_L3", bad)
    assert after["fail_frac"] > before["fail_frac"]
    assert after["unexpected"] == ["tensor_symmetries"]


def test_missing_report_check_fails():
    bad = _run_L3_outputs()
    del bad["report"]["checks"]["green_kernel"]
    assert "green_kernel" in workloads.evaluate("run_L3", bad)["unexpected"]


def test_documented_failure_that_passes_is_unexpected():
    outputs = _operators_L4_outputs()
    outputs["stage_checks"]["tensor_assembly"] = True
    verdict = workloads.evaluate("operators_L4", outputs)
    assert verdict["fail_frac"] == 0
    assert verdict["unexpected"] == ["tensor_assembly"]


def test_wrong_lambda1_reference_raises_fail_frac(monkeypatch):
    before = workloads.evaluate("operators_L4", _operators_L4_outputs())
    monkeypatch.setattr(workloads, "LAMBDA1", 3.9)
    after = workloads.evaluate("operators_L4", _operators_L4_outputs())
    assert after["fail_frac"] > before["fail_frac"]
    assert after["unexpected"] == ["lambda1"]


@pytest.mark.parametrize("corrupt, check", [
    (lambda o: o.update(euler_characteristic=0), "euler_characteristic"),
    (lambda o: o.update(area=4.0), "area"),
    (lambda o: o["eigenvalues"].__setitem__(0, -0.5), "zero_mode"),
])
def test_wrong_mesh_invariants_fail(corrupt, check):
    outputs = _operators_L4_outputs()
    corrupt(outputs)
    assert workloads.evaluate("operators_L4", outputs)["unexpected"] == [check]


@pytest.mark.parametrize("corrupt, check", [
    (lambda o: o["surrogate"]["per_seed"].append({"eigenvalues": [-1.0, 1e-3], "tau": 1e-8}),
     "surrogate_margin"),
    (lambda o: o["surrogate"].update(all_counts_ok=False), "surrogate_counts"),
    (lambda o: o["report"]["checks"]["quaternionic_null_vector"]["residual"]["m2"].update(
        min_lstsq_resid=0.2), "rankone_lstsq_m2"),
])
def test_wrong_sweep_outputs_fail(corrupt, check):
    outputs = _run_L3_outputs()
    corrupt(outputs)
    assert workloads.evaluate("run_L3", outputs)["unexpected"] == [check]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    emitted = run.per_layer(
        {"layers": {**tracer.layer_metrics([], Counter(), 1.0), "trace.overhead_s": 0.0},
         "iterations": [{"cpu_s": 1.0},
                        {"wall_s": 1.0, "health": {}, "artifact_bytes": 0}]},
        {"run": 1, "fail_frac": 0.0})
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {name: run.unit(name) for name in emitted}
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_self_times():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0], ["a", 11.0, 12.0, -1]]
    assert tracer.self_times(spans) == {"a": 7.0, "b": 3.0, "c": 1.0}
    assert tracer.layer_metrics(spans, Counter(), 13.0)["trace.uncovered_s"] == 2.0


def test_tracer_wraps_imported_names_and_restores():
    original = fuchsian.enumerate_words
    group = fuchsian.octagon_group(2)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert cli.enumerate_words is fuchsian.enumerate_words is qdiff.enumerate_words
        words = cli.enumerate_words(group, 2)
        surf = surface.build_mesh(group, 1)
        surface.apply_D(surf, surf.weights)
    finally:
        trace.uninstall()
    assert fuchsian.enumerate_words is original and cli.enumerate_words is original
    names = [s[0] for s in trace.spans]
    assert names == ["fuchsian.enumerate_words", "surface.build_mesh", "surface.apply_D",
                     "surface.DiscreteSurface.factorization"]
    assert trace.spans[3][3] == 2          # factorization ran inside apply_D
    assert trace.counts["fuchsian.words"] == len(words)
    assert trace.counts["surface.nodes"] == surf.num_nodes
    assert trace.counts["surface.lu_nnz"] > 0


def test_exits_without_result_when_source_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run_L3",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
