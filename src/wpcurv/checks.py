"""Named checks shared by the CLI and the acceptance tests.

Each returns ``{pass, residual, tolerance, description}`` from pipeline
objects, and none draws a sample: the resolvent check reads the LU factor
of K + 2M, the two-path check compares two m x m matrices, and the block
checks read Q's eigenvalues on named subspaces of wedges.  Package
functions are called as module attributes (``wedge.wedge_vector``) so that
a wrapper installed there sees the call.
"""

from __future__ import annotations

import functools

import numpy as np

from . import curvature, wedge

#: check name -> human description printed by `explain`
CHECK_DESCRIPTIONS = {
    "resolvent_operator": "resolvent D is self-adjoint and positive in the weighted inner product",
    "green_kernel": "Green kernel entrywise positive, symmetric, weighted row sums equal 1",
    "tensor_symmetries": "curvature tensor satisfies the two index-swap symmetries and conjugation",
    "tensor_assembly": "diagonal entries positive, sectional curvatures negative, tensor and integral paths agree",
    "xx_block_definite": "Q strictly negative on the xx-wedges",
    "cross_block_null": "Q vanishes on the antisymmetric cross-wedges",
    "yy_block_definite": "Q strictly negative on the yy-wedges",
    "reduction_null": "Q vanishes when the yy block cancels the xx block (a = -c)",
    "operator_nonpositive_kernel": "Q non-positive with kernel exactly the range of (identity - J)",
    "surrogate_spectrum": "no synthetic-kernel model has a positive mode, each has kernel dimension n(n-1)",
    "quaternionic_null_vector": "quaternionic special 2-vector: null expansion, J-invariance, least-squares margin",
}


def _check(name, passed, residual, tolerance):
    return {"pass": bool(passed), "residual": residual, "tolerance": tolerance,
            "description": CHECK_DESCRIPTIONS[name]}


def resolvent_operator(surf):
    """The LU factor of K + 2M with perm_r == perm_c and U = diag(U) L^T is an
    LDL^T, so positive pivots (U's diagonal) make K + 2M positive definite by
    Sylvester's law of inertia: D = 2 (K + 2M)^-1 M is then self-adjoint and
    positive in the weighted inner product.  Residuals: max|U - diag(U) L^T|
    / max|U| (inf for unequal permutations or patterns), least pivot / max|pivot|."""
    lu = surf.factorization()
    U, L = lu.U.tocsr(), lu.L.sorted_indices()
    pivots = U.diagonal()
    ldlt = np.inf
    if (np.array_equal(lu.perm_r, lu.perm_c) and np.array_equal(U.indptr, L.indptr)
            and np.array_equal(U.indices, L.indices)):
        DLt = np.repeat(pivots, np.diff(U.indptr)) * L.data
        ldlt = np.abs(U.data - DLt).max() / np.abs(U.data).max()
    posmin = pivots.min() / np.abs(pivots).max()
    return _check("resolvent_operator", ldlt <= 1e-12 and posmin > 0,
                  {"self_adjoint": float(ldlt), "positivity_min": float(posmin)}, 1e-12)


def green_kernel(green):
    gr = green.report
    ok = gr["min_entry"] > 0 and gr["asymmetry_rel"] <= 1e-8 and gr["rowsum_err"] <= 1e-8
    return _check("green_kernel", ok, gr, 1e-8)


def tensor_symmetries(R):
    res = R.residuals()
    return _check("tensor_symmetries", max(res.values()) <= 1e-9, res, 1e-9)


def tensor_assembly(R, gram, two_path=None):
    """`two_path` is the pair (Q, Q_D + Q_G) of the tensor path's matrix and
    the sum of `wedge.integral_matrices`, compared in the 2-norm relative to
    Q (none: diagonal and sectional only)."""
    diag_min = float(min(R.entries[i, i, i, i].real for i in range(R.n)))
    sectional_max = max(curvature.holomorphic_sectional(R, gram, i) for i in range(R.n))
    rel = 0.0 if two_path is None else float(
        np.linalg.norm(two_path[1] - two_path[0], 2) / np.linalg.norm(two_path[0], 2))
    return _check("tensor_assembly", diag_min > 0 and sectional_max < 0 and rel <= 1e-12,
                  {"diag_min": diag_min, "sectional_max": sectional_max,
                   "two_path_rel": rel}, 1e-12)


@functools.cache
def _block_vectors(n):
    """Wedge vectors (one column per unit antisymmetric E = E_ij - E_ji,
    i < j) of the xx, yy, cross and reduction (a = -c) blocks, built once
    per n and read-only; each check reads Q on one through `eigenvalues_on`."""
    eye = np.eye(n)
    E = [np.outer(eye[i], eye[j]) - np.outer(eye[j], eye[i])
         for i, j in zip(*np.triu_indices(n, 1))]
    xx, yy, cross = (np.array([wedge.wedge_vector({k: e}, n) for e in E]).T for k in "acb")
    vectors = {"xx": xx, "yy": yy, "cross": cross, "reduction": xx - yy}
    for v in vectors.values():
        v.setflags(write=False)
    return vectors


# definite blocks pass when Q's largest eigenvalue there is below -tau, null
# blocks when its largest |eigenvalue| there is at most tau
def xx_block_definite(Q, tau):
    worst = float(Q.eigenvalues_on(_block_vectors(Q.n)["xx"]).max())
    return _check("xx_block_definite", worst < -tau, worst, -tau)


def yy_block_definite(Q, tau):
    worst = float(Q.eigenvalues_on(_block_vectors(Q.n)["yy"]).max())
    return _check("yy_block_definite", worst < -tau, worst, -tau)


def cross_block_null(Q, tau):
    worst = float(np.abs(Q.eigenvalues_on(_block_vectors(Q.n)["cross"])).max())
    return _check("cross_block_null", worst <= tau, worst, tau)


def reduction_null(Q, tau):
    worst = float(np.abs(Q.eigenvalues_on(_block_vectors(Q.n)["reduction"])).max())
    return _check("reduction_null", worst <= tau, worst, tau)


def operator_nonpositive_kernel(spec, kernel):
    """Sign counts and spectral gap of `wedge.spectrum`, and its `wedge.kernel_report`."""
    ok = (spec.num_positive == 0 and spec.num_zero == spec.kernel_dim_expected
          and spec.gap_ratio >= 1e2 and kernel["range_ok"]
          and kernel["plus_eigenspace_negative"])
    return _check("operator_nonpositive_kernel", ok,
                  {"counts": [spec.num_negative, spec.num_zero, spec.num_positive],
                   "gap_ratio": spec.gap_ratio, **kernel}, spec.tau_rel)


def surrogate_spectrum(summary):
    """On one `surrogate.run_seed_sweep` summary: its largest eigenvalue shows
    a positive mode, its kernel excess a wrong kernel dimension."""
    keys = ("worst_eigenvalue_margin", "worst_kernel_dim_excess")
    return _check("surrogate_spectrum", summary["all_counts_ok"],
                  {k: summary[k] for k in keys}, 0)


def quaternionic_null_vector(reports):
    """On `rankone.lemma51_check` reports, one per m."""
    keys = ("worst_null_expansion", "worst_j_invariance", "min_lstsq_resid")
    margins = {"m%d" % rep["m"]: {k: rep[k] for k in keys} for rep in reports}
    ok = all(rep["worst_null_expansion"] <= 1e-12 and rep["worst_j_invariance"] <= 1e-12
             and rep["min_lstsq_resid"] >= 0.5 for rep in reports)
    return _check("quaternionic_null_vector", ok, margins, 1e-12)
