"""Named checks shared by the CLI and the acceptance tests.

Each returns ``{pass, residual, tolerance, description}`` from the objects
the stage already holds (``block_checks`` one per block), and none draws a
sample: the resolvent check reads the LU factor of K + 2M, the two-path
check compares Q with the integral path's matrices of the stage's pairing
table, and one block rule reads Q's eigenvalues on four named subspaces of
wedges.  Package functions are called as module attributes
(``wedge.wedge_vector``) so that a wrapper installed there sees the call.
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
    "tensor_assembly": "diagonal entries positive, sectional curvatures negative, tensor and integral paths agree on one table",
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
    return _check("tensor_symmetries", np.max(list(res.values())) <= 1e-9, res, 1e-9)


def tensor_assembly(R, gram, Q, P):
    """Diagonal and sectional signs of R, and the tensor path's Q against
    the sum of `wedge.integral_matrices(P)` of the pairing table P in the
    2-norm relative to Q; both paths read one table, so this checks the
    wedge and sign bookkeeping."""
    diag_min = float(np.min(np.einsum("iiii->i", R.entries).real))    # a NaN propagates
    sectional_max = float(np.max([curvature.holomorphic_sectional(R, gram, i)
                                  for i in range(R.n)]))
    rel = float(np.linalg.norm(sum(wedge.integral_matrices(P)) - Q.matrix, 2)
                / np.linalg.norm(Q.matrix, 2))
    return _check("tensor_assembly", diag_min > 0 and sectional_max < 0 and rel <= 1e-12,
                  {"diag_min": diag_min, "sectional_max": sectional_max,
                   "two_path_rel": rel}, 1e-12)


@functools.cache
def _block_vectors(n):
    """Wedge vectors (one column per unit antisymmetric E = E_ij - E_ji,
    i < j) of the xx, yy, cross and reduction (a = -c) blocks, built once
    per n and read-only; `block_checks` reads Q on each through `eigenvalues_on`."""
    eye = np.eye(n)
    E = [np.outer(eye[i], eye[j]) - np.outer(eye[j], eye[i])
         for i, j in zip(*np.triu_indices(n, 1))]
    xx, yy, cross = (np.array([wedge.wedge_vector({k: e}, n) for e in E]).T for k in "acb")
    vectors = {"xx": xx, "yy": yy, "cross": cross, "reduction": xx - yy}
    for v in vectors.values():
        v.setflags(write=False)
    return vectors


def block_checks(Q, tau):
    """Q's eigenvalues on each block of `_block_vectors`, as the checks
    {name: (block, definite)}: a definite block passes when the largest is
    below -tau, a null block when the largest |eigenvalue| is at most tau."""
    results = {}
    for name, (block, definite) in {"xx_block_definite": ("xx", True),
                                    "yy_block_definite": ("yy", True),
                                    "cross_block_null": ("cross", False),
                                    "reduction_null": ("reduction", False)}.items():
        ev = Q.eigenvalues_on(_block_vectors(Q.n)[block])
        if definite:
            worst = float(ev.max())
            results[name] = _check(name, worst < -tau, worst, -tau)
        else:
            worst = float(np.abs(ev).max())
            results[name] = _check(name, worst <= tau, worst, tau)
    return results


def operator_nonpositive_kernel(Q, spec):
    """Sign counts and spectral gap of Q's `wedge.spectrum` `spec`, and the
    `wedge.kernel_report` read off it."""
    kernel = wedge.kernel_report(Q, spec, wedge.j_wedge_matrix(Q.n))
    ok = (spec.num_positive == 0 and spec.num_zero == spec.kernel_dim_expected
          and spec.gap_ratio >= 1e2 and kernel["range_ok"]
          and kernel["plus_eigenspace_negative"])
    return _check("operator_nonpositive_kernel", ok,
                  {"counts": spec.to_dict()["counts"], "gap_ratio": spec.gap_ratio, **kernel},
                  spec.tau_rel)


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
