"""The benchmark workloads and the checks on their outputs.

A workload has three parts:

* ``setup(seed, workdir)`` makes the inputs from the seed (cheap);
* ``iterate(inputs)`` runs the program once and returns its outputs;
* ``checks(outputs)`` turns the outputs into named pass/fail results.

``checks`` is a pure function of the outputs, so a corrupted output can be
fed to it directly (see ``test_perfbench.py``).  The program is always
called through module attributes (``surface.build_mesh``, never a name
imported at load time), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

from wpcurv import cli, curvature, fuchsian, qdiff, surface, wedge
from wpcurv.errors import KernelDimMismatch

#: first non-zero Laplace eigenvalue of the Bolza surface (the regular
#: octagon with opposite sides glued), multiplicity 3: A. Strohmaier and
#: V. Uski, "An algorithm for the computation of eigenvalues, spectral
#: zeta functions and zeta-determinants on hyperbolic surfaces",
#: Comm. Math. Phys. 317 (2013)
LAMBDA1 = 3.8388872588421995
#: largest |lambda - LAMBDA1| / LAMBDA1 accepted at mesh level 4; the
#: error is 2.3e-3 there and falls fourfold per level (5.4e-4 at level 5)
LAMBDA1_TOL = 5e-3
#: relative tolerance of the quadrature area against 4 pi (Gauss-Bonnet);
#: the error is 7.6e-4 at level 4
AREA_TOL = 2e-3

#: checks that fail on a correct build, and why
#:   quaternionic_null_vector -- the paper's claimed null expansion is
#:       false (criterion 8; see the package README)
#:   tensor_assembly -- the two-path comparison on mixed elements: with
#:       generic fields the xx/xy cross value of Q has opposite signs in
#:       the tensor and integral paths (see README.md in this directory)
EXPECTED_FAILURES = {
    "run_L3": {"quaternionic_null_vector"},
    "operators_L4": {"tensor_assembly"},
}

#: every check the full pipeline's report.json must contain
REPORT_CHECKS = tuple(cli.CHECK_DESCRIPTIONS)
#: surrogate models and rankone trials of the default run
RUN_TRIALS = cli.RunConfig().seeds


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run_L3: the default `wpcurv run --mesh-level 3`


def setup_run_L3(seed: int, workdir: str) -> dict:
    # the CLI's defaults fix every input (RunConfig.seeds is both the trial
    # count and the check RNG seed), so the seed only names the output
    return {"out": os.path.join(workdir, "run_L3-%d" % seed)}


def iterate_run_L3(inputs: dict) -> dict:
    out = inputs["out"]
    shutil.rmtree(out, ignore_errors=True)
    cli.run(cli.RunConfig(mesh_level=3, out=out))
    return {
        "report": _load(os.path.join(out, "report.json")),
        "spectrum": _load(os.path.join(out, "spectrum.json")),
        "green": _load(os.path.join(out, "green.json")),
        "surrogate": _load(os.path.join(out, "surrogate.json")),
        "artifact_bytes": _dir_bytes(out),
    }


def checks_run_L3(outputs: dict) -> dict:
    """Every check of report.json, the Q spectrum counts, and the surrogate
    sweep and rankone margins (``cli.run`` adds no check for the surrogate
    stage, so ``wpcurv surrogate`` exits 0 whatever the sweep finds)."""
    reported = outputs["report"]["checks"]
    checks = {name: bool(reported.get(name, {}).get("pass", False))
              for name in REPORT_CHECKS}
    checks["spectrum_counts"] = outputs["spectrum"]["spectrum"]["counts"] == [9, 6, 0]
    sweep = outputs["surrogate"]
    checks["surrogate_counts"] = (bool(sweep["all_counts_ok"])
                                  and sweep["num_seeds"] == RUN_TRIALS)
    checks["surrogate_margin"] = all(max(r["eigenvalues"]) <= r["tau"]
                                     for r in sweep["per_seed"])
    margins = reported.get("quaternionic_null_vector", {}).get("residual", {})
    for m in ("m1", "m2"):
        checks["rankone_j_invariance_" + m] = (
            margins.get(m, {}).get("worst_j_invariance", math.inf) <= 1e-12)
        checks["rankone_lstsq_" + m] = margins.get(m, {}).get("min_lstsq_resid", 0) >= 0.5
    return checks


def health_run_L3(outputs: dict) -> dict:
    return {
        "wedge.two_path_rel":
            outputs["report"]["checks"]["tensor_assembly"]["residual"]["two_path_rel"],
        "surface.green_min_entry": outputs["green"]["report"]["min_entry"],
    }


# ---------------------------------------------------------------------------
# operators_L4: the level-4 surface with generic smooth Beltrami fields

#: degree of the random holomorphic polynomials theta
FIELD_DEGREE = 6


def setup_operators_L4(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    shape = (3, FIELD_DEGREE + 1)
    return {
        "theta": rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        "check_seed": int(rng.integers(2**31)),
    }


def generic_fields(theta: np.ndarray, surf) -> list:
    """mu = conj(theta) (1 - |z|^2)^2 / 4 for each row of coefficients."""
    z = surf.nodes
    return [qdiff.BeltramiField(np.conj(np.polynomial.polynomial.polyval(z, c))
                                * (1 - np.abs(z) ** 2) ** 2 / 4)
            for c in theta]


def surface_stage_checks(surf, fields, gram, rng, *, tau_rel=1e-8,
                         solver_rtol=1e-10):
    """The check set of ``cli.run_surface_stage``, without its exports.

    Samples, gates and the order of random draws are the CLI's; only the
    Beltrami fields differ.  Returns (checks, health).
    """
    n_nodes = surf.num_nodes
    asym = 0.0
    posmin = np.inf
    for _ in range(10):
        f = rng.standard_normal(n_nodes)
        g = rng.standard_normal(n_nodes)
        Df = surface.apply_D(surf, f, rtol=solver_rtol)
        Dg = surface.apply_D(surf, g, rtol=solver_rtol)
        nf = np.sqrt(surf.inner(f, f).real)
        ng = np.sqrt(surf.inner(g, g).real)
        asym = max(asym, abs(surf.inner(Df, g) - surf.inner(f, Dg)) / (nf * ng))
        posmin = min(posmin, surf.inner(Df, f).real / nf**2)
    checks = {"resolvent_operator": bool(asym <= 1e-10 and posmin >= -1e-10)}

    green = surface.green_kernel(surf)
    gr = green.report
    checks["green_kernel"] = bool(gr["min_entry"] > 0 and gr["asymmetry_rel"] <= 1e-8
                                  and gr["rowsum_err"] <= 1e-8)

    P = curvature.pairing_table(fields, surf)
    R = curvature.curvature_tensor(P)
    checks["tensor_symmetries"] = bool(max(R.residuals().values()) <= 1e-9)

    n = R.n
    diag_pos = [R.entries[i, i, i, i].real for i in range(n)]
    sectional = [curvature.holomorphic_sectional(R, gram, i) for i in range(n)]

    Q = wedge.assemble_Q(R)
    spec = wedge.spectrum(Q, tau_rel, strict=False)
    tau = spec.tau
    try:
        kr = wedge.kernel_check(Q, wedge.j_wedge_matrix(n), tau_rel)
        kernel_ok = kr["range_ok"] and kr["plus_eigenspace_negative"]
    except KernelDimMismatch:           # a rank mismatch fails the check
        kernel_ok = False

    WG = wedge.weighted_green(surf, green)
    two_path_rel = 0.0
    for _ in range(5):
        coeffs = {key: rng.standard_normal((n, n)) for key in "abc"}
        qt = Q.quad(wedge.wedge_vector(coeffs, n))
        qi = wedge.integral_form_Q(coeffs, fields, surf, green, WG=WG)
        two_path_rel = max(two_path_rel, abs(qt - qi) / max(1.0, abs(qt)))
    checks["tensor_assembly"] = bool(min(diag_pos) > 0 and max(sectional) < 0
                                     and two_path_rel <= 1e-6)

    def rand_antisym():
        a = rng.standard_normal((n, n))
        return a - a.T

    worst_xx = worst_yy = -np.inf
    worst_cross = worst_reduction = 0.0
    for _ in range(10):
        a = rand_antisym()
        worst_xx = max(worst_xx, Q.quad(wedge.wedge_vector({"a": a}, n)))
        worst_yy = max(worst_yy, Q.quad(wedge.wedge_vector({"c": a}, n)))
        b = rand_antisym()
        worst_cross = max(worst_cross, abs(Q.quad(wedge.wedge_vector({"b": b}, n))))
        d = rng.standard_normal((n, n))
        worst_reduction = max(worst_reduction, abs(
            Q.quad(wedge.wedge_vector({"a": d, "c": -d}, n))))
    checks["xx_block_definite"] = bool(worst_xx < -tau)
    checks["yy_block_definite"] = bool(worst_yy < -tau)
    checks["cross_block_null"] = bool(worst_cross <= tau)
    checks["reduction_null"] = bool(worst_reduction <= tau)
    checks["operator_nonpositive_kernel"] = bool(
        spec.num_positive == 0 and spec.num_zero == spec.kernel_dim_expected
        and kernel_ok)
    health = {"wedge.two_path_rel": float(two_path_rel),
              "surface.green_min_entry": gr["min_entry"]}
    return checks, health


def iterate_operators_L4(inputs: dict) -> dict:
    surf = surface.build_mesh(fuchsian.octagon_group(2), 4)
    eigenvalues = surface.laplacian_eigenvalues(surf, k=6)
    fields = generic_fields(inputs["theta"], surf)
    gram = qdiff.gram_matrix(fields, surf)
    fields, gram, _ = qdiff.orthonormalize(fields, gram)
    rng = np.random.default_rng(inputs["check_seed"])
    checks, health = surface_stage_checks(surf, fields, gram, rng)
    return {
        "stage_checks": checks,
        "health": health,
        "eigenvalues": [float(v) for v in eigenvalues],
        "euler_characteristic": surf.euler_characteristic(),
        "area": surf.area,
    }


def lambda1_rel_err(eigenvalues) -> float:
    """Largest relative error of the three lowest non-zero eigenvalues."""
    return max(abs(v - LAMBDA1) / LAMBDA1 for v in sorted(eigenvalues)[1:4])


def checks_operators_L4(outputs: dict) -> dict:
    """The surface stage's checks, plus the mesh invariants and lambda1."""
    ev = sorted(outputs["eigenvalues"])
    return {
        **outputs["stage_checks"],
        "euler_characteristic": outputs["euler_characteristic"] == -2,
        "area": abs(outputs["area"] - 4 * math.pi) / (4 * math.pi) <= AREA_TOL,
        "zero_mode": abs(ev[0]) <= 1e-8,
        "lambda1": lambda1_rel_err(ev) <= LAMBDA1_TOL,
    }


def health_operators_L4(outputs: dict) -> dict:
    return {**outputs["health"],
            "surface.lambda1_rel_err": lambda1_rel_err(outputs["eigenvalues"])}


WORKLOADS = {
    "run_L3": {"setup": setup_run_L3, "iterate": iterate_run_L3,
               "checks": checks_run_L3, "health": health_run_L3},
    "operators_L4": {"setup": setup_operators_L4, "iterate": iterate_operators_L4,
                     "checks": checks_operators_L4, "health": health_operators_L4},
}


def evaluate(name: str, outputs: dict) -> dict:
    """Check results against the expected outcomes of workload `name`.

    ``fail_frac`` counts every failed check, the documented ones too;
    ``unexpected`` lists checks whose outcome differs from the expected
    one (a documented failure that starts to pass is unexpected as well).
    """
    checks = WORKLOADS[name]["checks"](outputs)
    expected_fail = EXPECTED_FAILURES[name]
    failed = sorted(k for k, ok in checks.items() if not ok)
    unexpected = sorted(k for k, ok in checks.items() if ok == (k in expected_fail))
    unexpected += sorted(expected_fail - set(checks))
    return {
        "checks": checks,
        "run": len(checks),
        "failed": failed,
        "fail_frac": len(failed) / len(checks),
        "unexpected": unexpected,
    }
