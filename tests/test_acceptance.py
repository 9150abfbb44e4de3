"""Acceptance gate: the nine headline checks, one pass/fail line each.

The surface criteria read the check records that `cli.surface_stage`,
the stage `wpcurv run` runs, entered at mesh levels 3 and 4 (the
`pipe3` and `pipe4` fixtures); criterion 6 also reads Q on J's -1
eigenspace.  The surrogate and quaternionic criteria call their checks
of `wpcurv.checks` directly, each with its own seed and sample count.
"""

import time

import numpy as np

from wpcurv import checks, rankone, surrogate


def _report(num, ok, detail):
    print("[criterion %d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_spectrum(pipe4):
    """Level-4 Q: 9 negative, 6 zero, none positive, clear spectral gap."""
    check = pipe4["checks"]["operator_nonpositive_kernel"]
    res = check["residual"]
    ok = check["pass"] and res["counts"] == [9, 6, 0]
    _report(1, ok, "counts=%d/%d/%d gap_ratio=%.3g" % (*res["counts"], res["gap_ratio"]))


def test_criterion_2_kernel(pipe4):
    """Kernel of Q is exactly the range of (identity - J)."""
    check = pipe4["checks"]["operator_nonpositive_kernel"]
    res = check["residual"]
    ok = check["pass"] and res["rank"] == 9
    _report(2, ok, "range_resid=%.3g rank=%d worst_plus=%.3g"
            % (res["range_residual_rel"], res["rank"],
               res["worst_plus_eigenspace_value"]))


def test_criterion_3_two_path(pipe3):
    """Tensor-path and integral-path matrices of Q agree."""
    check = pipe3["checks"]["tensor_assembly"]
    _report(3, check["pass"], "relative 2-norm deviation %.3g"
            % check["residual"]["two_path_rel"])


def test_criterion_4_operator_hypotheses(pipe3):
    """Resolvent self-adjoint and positive; Green kernel positive/symmetric."""
    resolvent, green = (pipe3["checks"][name] for name in ("resolvent_operator", "green_kernel"))
    d, gr = resolvent["residual"], green["residual"]
    _report(4, resolvent["pass"] and green["pass"],
            "D_ldlt=%.3g D_posmin=%.3g G_min=%.3g G_asym=%.3g G_rowsum=%.3g"
            % (d["self_adjoint"], d["positivity_min"], gr["min_entry"],
               gr["asymmetry_rel"], gr["rowsum_err"]))


def test_criterion_5_tensor_symmetries(pipe3, pipe4):
    """Index symmetries, positive diagonal, negative sectional curvature,
    and the two paths of Q agreeing, at levels 3 and 4."""
    sym = [p["checks"]["tensor_symmetries"] for p in (pipe3, pipe4)]
    assembly = [p["checks"]["tensor_assembly"] for p in (pipe3, pipe4)]
    _report(5, all(c["pass"] for c in sym + assembly),
            "sym_resid=%.3g diag_min=%.3g sectional_max=%.3g two_path=%.3g"
            % (max(max(c["residual"].values()) for c in sym),
               min(c["residual"]["diag_min"] for c in assembly),
               max(c["residual"]["sectional_max"] for c in assembly),
               max(c["residual"]["two_path_rel"] for c in assembly)))


def test_criterion_6_zero_level_sets(pipe4, jmat3):
    """Null directions (antisymmetric cross block, and the range of
    identity - J, which is J's -1 eigenspace) and strict negativity of the
    pure blocks, read off Q's eigenvalues on each subspace."""
    tau = pipe4["spectrum"].tau
    lam, vecs = np.linalg.eigh(jmat3)
    kernel_worst = float(np.abs(pipe4["Q"].eigenvalues_on(vecs[:, lam < 0])).max())
    blocks = pipe4["checks"]
    null = blocks["cross_block_null"]
    definite = [blocks["xx_block_definite"], blocks["yy_block_definite"]]
    ok = null["pass"] and kernel_worst <= tau and all(c["pass"] for c in definite)
    _report(6, ok, "worst_null=%.3g worst_block=%.3g tau=%.3g"
            % (max(null["residual"], kernel_worst),
               max(c["residual"] for c in definite), tau))


def test_criterion_7_surrogate_suite():
    """100 synthetic-kernel models reproduce the counts; under a minute."""
    start = time.time()
    s3 = surrogate.run_seed_sweep(range(50), 40, 3)
    s2 = surrogate.run_seed_sweep(range(50), 20, 2)
    elapsed = time.time() - start
    c3, c2 = checks.surrogate_spectrum(s3), checks.surrogate_spectrum(s2)
    ok = (c3["pass"] and c2["pass"]
          and all(r["num_zero"] == 6 for r in s3["per_seed"])
          and all(r["num_zero"] == 2 for r in s2["per_seed"])
          and elapsed <= 60)
    _report(7, ok, "n3_ok=%s n2_ok=%s elapsed=%.1fs"
            % (c3["pass"], c2["pass"], elapsed))


def test_criterion_8_quaternionic_null_vector():
    """Claimed properties of v^Jv + Kv^Iv in quaternionic hyperbolic space.

    The J-invariance and least-squares margins hold; the claimed vanishing
    of the curvature expansion does not (the evaluator returns -8 for unit
    v, and the mixed term R(v,Jv,Kv,Iv) is 0 rather than
    -R(v,Jv,v,Jv)), so this criterion fails and is reported as such.
    """
    check = checks.quaternionic_null_vector(
        [rankone.lemma51_check(m, 20) for m in (1, 2)])
    margins = check["residual"].values()
    _report(8, check["pass"], "null_expansion=%.3g j_invariance=%.3g lstsq_margin=%.3g"
            % (max(r["worst_null_expansion"] for r in margins),
               max(r["worst_j_invariance"] for r in margins),
               min(r["min_lstsq_resid"] for r in margins)))


def test_criterion_9_mesh_convergence(pipe3, pipe4):
    """Spectral picture stable at levels 3 and 4; entries within 5%."""
    ok = True
    details = []
    for name, pipe in (("level3", pipe3), ("level4", pipe4)):
        check = pipe["checks"]["operator_nonpositive_kernel"]
        counts = check["residual"]["counts"]
        ok = (ok and check["pass"] and counts == [9, 6, 0]
              and pipe["checks"]["tensor_symmetries"]["pass"])
        details.append("%s counts=%d/%d/%d" % (name, *counts))
    scale = np.abs(pipe4["Q"].matrix).max()
    drift = np.abs(pipe3["Q"].matrix - pipe4["Q"].matrix).max() / scale
    ok = ok and drift <= 0.05
    _report(9, ok, "%s entry_drift=%.3g" % (" ".join(details), drift))
