"""Curvature algebra of quaternionic hyperbolic space.

The tangent space at a point of the quaternionic hyperbolic space of
real dimension 4m is modeled as R^{4m} with coordinates grouped in
blocks of 4 (the components 1, i, j, k of each quaternionic
coordinate).  Left multiplication by the unit quaternions gives three
orthogonal complex structures I, J, K with IJ = K and squares -id.

Two independent curvature evaluators are provided:

* `quat_curvature` -- the constant-quaternionic-curvature space-form
  tensor (sectional curvature range [-4, -1] normalization),
* `lie_triple_curvature` -- R(X,Y)Z = -[[X,Y],Z] through the bracket of
  the isometry Lie algebra sp(m,1), evaluated in quaternion arithmetic.

They agree up to overall normalization, which cross-validates both.

`lemma51_check` examines the special 2-vector

    omega = v ^ Jv + Kv ^ Iv :

its claimed Q-null property (the expansion R(v,Jv,v,Jv)
+ R(Kv,Iv,Kv,Iv) + 2 R(v,Jv,Kv,Iv)), its J-invariance, and the
least-squares residual of (identity - J)x = omega in the wedge space.
All three margins are reported per trial.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatch
from .wedge import induced_action, wedge_basis


def structures(m: int):
    """Orthogonal complex structures I, J, K on R^{4m} (IJ = K)."""
    # left multiplication by i, j, k on one quaternion block (1, i, j, k)
    Ib = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], float)
    Jb = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], float)
    Kb = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], float)
    eye = np.eye(m)
    return np.kron(eye, Ib), np.kron(eye, Jb), np.kron(eye, Kb)


def quat_curvature(X, Y, Z, W, m: int) -> float:
    """Space-form curvature R(X, Y, Z, W) of the quaternionic model.

    Multilinear, antisymmetric in (X,Y) and (Z,W), pair symmetric, and
    invariant under the isometries I, J, K.
    """
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
    for v in (X, Y, Z, W):
        if v.shape != (4 * m,):
            raise DimensionMismatch("expected vectors of length %d" % (4 * m))
    total = X @ Z * (Y @ W) - X @ W * (Y @ Z)
    for A in structures(m):
        AX, AY, AZ = A @ X, A @ Y, A @ Z
        total += (AX @ Z) * (AY @ W) - (AX @ W) * (AY @ Z) + 2 * (AX @ Y) * (AZ @ W)
    return float(-total)


# ---------------------------------------------------------------------------
# quaternion arithmetic for the Lie-triple evaluator

def _qmul(p, q):
    """Product of quaternion arrays with trailing component axis of size 4."""
    pe, pi, pj, pk = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qe, qi, qj, qk = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        pe * qe - pi * qi - pj * qj - pk * qk,
        pe * qi + pi * qe + pj * qk - pk * qj,
        pe * qj - pi * qk + pj * qe + pk * qi,
        pe * qk + pi * qj - pj * qi + pk * qe,
    ], axis=-1)


def _qconj(p):
    out = p.copy()
    out[..., 1:] *= -1
    return out


def lie_triple_curvature(X, Y, Z, W, m: int) -> float:
    """<-[[X, Y], Z], W> through the sp(m,1) bracket.

    Tangent vectors are quaternion columns x in H^m; the bracket of two of
    them is (x y* - y x*, x* y - y* x) in sp(m) + sp(1), acting back on a
    column z by A z - z q.  In this model the invariant complex structures
    are *right* quaternion multiplications; componentwise quaternion
    conjugation of the inputs converts them to the left-multiplication
    convention used by `structures`/`quat_curvature` (the curvature sum is
    even in each structure, so the sign picked up by conjugation drops
    out).  After that change of variables the two evaluators agree up to
    a fixed normalization constant.
    """
    def to_quat(v):
        v = np.asarray(v, dtype=float)
        if v.shape != (4 * m,):
            raise DimensionMismatch("expected vectors of length %d" % (4 * m))
        return _qconj(v.reshape(m, 4))

    x, y, z, w = (to_quat(v) for v in (X, Y, Z, W))
    # A[a, b] = x_a conj(y_b) - y_a conj(x_b)  (m x m quaternion matrix)
    A = (_qmul(x[:, None, :], _qconj(y)[None, :, :])
         - _qmul(y[:, None, :], _qconj(x)[None, :, :]))
    # q = x* y - y* x  (scalar quaternion)
    q = (_qmul(_qconj(x), y) - _qmul(_qconj(y), x)).sum(axis=0)
    # [[X,Y], Z] = A z - z q
    Az = _qmul(A, z[None, :, :]).sum(axis=1)
    zq = _qmul(z, q[None, :])
    bracket = Az - zq
    # sign fixed so that holomorphic-type planes come out negative, the
    # same convention as quat_curvature
    return float((bracket * w).sum())


def omega_wedge(v: np.ndarray, m: int) -> np.ndarray:
    """Antisymmetric matrix of omega = v ^ Jv + Kv ^ Iv."""
    I, J, K = structures(m)
    jv, kv, iv = J @ v, K @ v, I @ v
    return (np.outer(v, jv) - np.outer(jv, v)
            + np.outer(kv, iv) - np.outer(iv, kv))


def wedge_j_action(m: int):
    """Matrix of the wedge involution u^w -> Ju^Jw on the C(4m,2) basis."""
    _, J, _ = structures(m)
    return induced_action(J), wedge_basis(2 * m)   # the pairs a < b below 4m


def lemma51_check(m: int, trials: int, seed: int = 0) -> dict:
    """Margins of the three claimed properties of omega = v^Jv + Kv^Iv.

    (a) |R(v,Jv,v,Jv) + R(Kv,Iv,Kv,Iv) + 2 R(v,Jv,Kv,Iv)|  (claimed 0),
    (b) relative residual of J-invariance of omega (claimed 0),
    (c) least-squares residual of (identity - J)x = omega in the wedge
        space, relative to |omega| (claimed >= 1/2).
    """
    if m < 1 or trials < 1:
        raise ValueError("need m >= 1 and trials >= 1")
    I, J, K = structures(m)
    Wj, pairs = wedge_j_action(m)
    A_op = np.eye(len(pairs)) - Wj
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(trials):
        v = rng.standard_normal(4 * m)
        v /= np.linalg.norm(v)
        jv, kv, iv = J @ v, K @ v, I @ v
        expansion = (quat_curvature(v, jv, v, jv, m)
                     + quat_curvature(kv, iv, kv, iv, m)
                     + 2 * quat_curvature(v, jv, kv, iv, m))
        om = omega_wedge(v, m)[np.triu_indices(4 * m, 1)]
        norm = np.linalg.norm(om)
        j_resid = np.linalg.norm(Wj @ om - om) / norm
        x, *_ = np.linalg.lstsq(A_op, om, rcond=None)
        ls_resid = np.linalg.norm(A_op @ x - om) / norm
        records.append({
            "null_expansion_abs": abs(expansion),
            "j_invariance_resid": float(j_resid),
            "lstsq_resid_rel": float(ls_resid),
            "omega_norm": float(norm),
        })
    return {
        "m": m,
        "trials": trials,
        "worst_null_expansion": max(r["null_expansion_abs"] for r in records),
        "worst_j_invariance": max(r["j_invariance_resid"] for r in records),
        "min_lstsq_resid": min(r["lstsq_resid_rel"] for r in records),
        "records": records,
    }


def export_report_json(report: dict, path):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    return report
