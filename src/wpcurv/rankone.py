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
least-squares residual of (identity - J)x = omega in the wedge space,
taken as a projection.  All three margins are reported per trial, and
all trials are evaluated at once.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch
from .wedge import induced_action

#: seed of the random unit vectors v that `lemma51_check` draws
LEMMA_SEED = 0


@functools.cache
def structures(m: int):
    """Orthogonal complex structures I, J, K on R^{4m} (IJ = K), built once
    per m and read-only."""
    # left multiplication by i, j, k on one quaternion block (1, i, j, k)
    Ib = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], float)
    Jb = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], float)
    Kb = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], float)
    eye = np.eye(m)
    mats = tuple(np.kron(eye, B) for B in (Ib, Jb, Kb))
    for A in mats:
        A.setflags(write=False)
    return mats


def _dot(a, b):
    """Dot products of the rows of two (..., k) stacks, for contiguous rows
    each the BLAS dot `a @ b` takes for one pair (a sum rounds differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def quat_curvature(X, Y, Z, W, m: int):
    """Space-form curvature R(X, Y, Z, W) of the quaternionic model.

    Multilinear, antisymmetric in (X,Y) and (Z,W), pair symmetric, and
    invariant under the isometries I, J, K.  Takes single vectors (a float)
    or (..., 4m) stacks of them, row by row (an array).
    """
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
    for v in (X, Y, Z, W):
        if v.shape[-1:] != (4 * m,):
            raise DimensionMismatch("expected vectors of length %d" % (4 * m))
    total = _dot(X, Z) * _dot(Y, W) - _dot(X, W) * _dot(Y, Z)
    for A in structures(m):
        AX, AY, AZ = X @ A.T, Y @ A.T, Z @ A.T
        total += (_dot(AX, Z) * _dot(AY, W) - _dot(AX, W) * _dot(AY, Z)
                  + 2 * _dot(AX, Y) * _dot(AZ, W))
    return float(-total) if np.ndim(total) == 0 else -total


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
    """Antisymmetric matrix of omega = v ^ Jv + Kv ^ Iv, for one vector v
    or for each row of a (..., 4m) stack."""
    I, J, K = structures(m)
    jv, kv, iv = v @ J.T, v @ K.T, v @ I.T
    outer = functools.partial(np.einsum, "...i,...j->...ij")
    return outer(v, jv) - outer(jv, v) + outer(kv, iv) - outer(iv, kv)


def lemma51_check(m: int, trials: int) -> dict:
    """Margins of the three claimed properties of omega = v^Jv + Kv^Iv.

    (a) |R(v,Jv,v,Jv) + R(Kv,Iv,Kv,Iv) + 2 R(v,Jv,Kv,Iv)|  (claimed 0),
    (b) relative residual of J-invariance of omega (claimed 0),
    (c) least-squares residual of (identity - J)x = omega in the wedge
        space, relative to |omega| (claimed >= 1/2).  The wedge action W_J
        is a symmetric involution, so range(identity - W_J) is its -1
        eigenspace and the residual is |(omega + W_J omega) / 2|.
    """
    if m < 1 or trials < 1:
        raise ValueError("need m >= 1 and trials >= 1")
    I, J, K = structures(m)
    Wj = induced_action(J)              # u ^ w -> Ju ^ Jw on the C(4m, 2) wedges
    v = np.random.default_rng(LEMMA_SEED).standard_normal((trials, 4 * m))
    v /= np.sqrt(_dot(v, v))[:, None]
    jv, kv, iv = v @ J.T, v @ K.T, v @ I.T
    expansion = (quat_curvature(v, jv, v, jv, m) + quat_curvature(kv, iv, kv, iv, m)
                 + 2 * quat_curvature(v, jv, kv, iv, m))
    r, c = np.triu_indices(4 * m, 1)
    om = np.ascontiguousarray(omega_wedge(v, m)[:, r, c])   # contiguous rows for `_dot`
    J_om = om @ Wj.T
    norm = np.sqrt(_dot(om, om))
    j_resid, ls_resid = np.sqrt([_dot(x, x) for x in (J_om - om, (om + J_om) / 2)]) / norm
    records = [{"null_expansion_abs": float(e), "j_invariance_resid": float(j),
                "lstsq_resid_rel": float(ls), "omega_norm": float(w)}
               for e, j, ls, w in zip(np.abs(expansion), j_resid, ls_resid, norm)]
    return {
        "m": m,
        "trials": trials,
        "worst_null_expansion": float(np.max(np.abs(expansion))),   # a NaN propagates
        "worst_j_invariance": float(np.max(j_resid)),
        "min_lstsq_resid": float(np.min(ls_resid)),
        "records": records,
    }
