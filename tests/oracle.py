"""Independent oracles the tests hold the pipeline against.

`_series`, the truncated Poincare series sum_gamma (gamma z)^k gamma'(z)^2
over a word ball, is an independent construction of the same forms; the
tests hold the solved basis against it.

`_symmetries_by_candidates` certifies each of the octagon's 16 rotations
and reflections on its own, where `surface._symmetries` certifies two
generators and composes them.

`_pairing_table_by_pairs` takes the pairing table one resolvent solve per
product mu_i conj(mu_j), i <= j, and one einsum per pair (i, j), where
`curvature.pairing_table` applies D once to all n^2 real columns.

`in_fundamental_domain` is the half-open Dirichlet domain, ties broken
by side index, so that each point of the disk has exactly one translate
in it; `fuchsian.reduce_to_domain` decides by the closed domain alone.
"""

import numpy as np
import scipy.sparse as sp

from wpcurv import surface as surface_mod

DOMAIN_BLOCK = 500_000  # points per block of `in_fundamental_domain`
DOMAIN_TOL = 1e-12  # distance margin within which `in_fundamental_domain` sees a tie

#: max elements-x-points per evaluation chunk of `_series`: each temporary
#: is 4 MB; at 8,000,000 (128 MB temporaries) a third of a run was system time
_CHUNK_ELEMS = 250_000


def _series(mats: np.ndarray, z: np.ndarray, degrees) -> np.ndarray:
    """Evaluate sum_gamma (gamma z)^k gamma'(z)^2 over the matrix array for
    every k in `degrees` in one pass; returns shape (len(degrees), len(z))."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    row = {k: i for i, k in enumerate(degrees)}
    out = np.zeros((len(degrees), len(z)), dtype=complex)
    step = 2 if all(k % 2 == 0 for k in row) else 1
    kmax = max(row)
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    chunk = max(1, _CHUNK_ELEMS // max(1, len(z)))
    for lo in range(0, len(mats), chunk):
        sl = slice(lo, lo + chunk)
        inv = np.multiply.outer(c[sl], z)
        inv += d[sl][:, None]
        np.reciprocal(inv, out=inv)
        term = inv * inv
        term *= term
        if kmax:
            gz = np.multiply.outer(a[sl], z)
            gz += b[sl][:, None]
            gz *= inv
            if step == 2:
                gz *= gz
        for k in range(0, kmax + 1, step):
            if k in row:
                out[row[k]] += term.sum(axis=0)
            if k < kmax:
                term *= gz
    return out


def _symmetries_by_candidates(surface):
    """Oracle: certify each of the 16 maps z -> e^{ik pi/4} z and
    z -> e^{ik pi/4} conj(z) on its own, with `surface._symmetries`' checks,
    and keep those that pass, identity first."""
    raw, gid = surface.raw_nodes, surface.gid
    w, K = surface.weights, surface.stiffness.tocsc()
    K_max = abs(K).max()

    def grid(z):
        return (np.rint(z.real * 1e9).astype(np.int64) * (2 * 10**9 + 1)
                + np.rint(z.imag * 1e9).astype(np.int64))

    order = np.argsort(grid(raw))
    keys = grid(raw)[order]
    perms = []
    for z in (raw, raw.conj()):
        for k in range(8):
            img = np.exp(1j * np.pi * k / 4) * z
            hit = order[np.minimum(np.searchsorted(keys, grid(img)), len(raw) - 1)]
            if np.abs(raw[hit] - img).max() > 1e-9 or np.bincount(hit).max() > 1:
                continue
            perm = np.empty(len(w), dtype=np.intp)
            perm[gid] = gid[hit]
            if not (np.array_equal(perm[gid], gid[hit])
                    and np.abs(w[perm] - w).max() <= 1e-12 * w.max()):
                continue
            inv = np.argsort(perm)
            K_perm = sp.csc_matrix((K.data, inv[K.indices], K.indptr), shape=K.shape)
            if abs(K_perm[:, perm] - K).max() <= 1e-12 * K_max:
                perms.append(perm)
    return np.array(perms)


def _pairing_table_by_pairs(fields, surface):
    """Oracle: all n^4 pairings (ij,kl) from n(n+1)/2 complex resolvent
    solves.  D commutes with complex conjugation (its kernel is real), so
    D(mu_j conj(mu_i)) = conj(D(mu_i conj(mu_j))) and only the upper
    triangle of products needs a solve."""
    mu = np.asarray(fields, dtype=complex)
    n = len(mu)
    weights = surface.weights
    solved = {}
    for i in range(n):
        for j in range(i, n):
            solved[(i, j)] = surface_mod.apply_D(surface, mu[i] * np.conj(mu[j]))
    entries = np.empty((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            dij = solved[(i, j)] if i <= j else np.conj(solved[(j, i)])
            entries[i, j] = np.einsum("p,kp,lp->kl", weights * dij, mu, np.conj(mu))
    return entries


def hyperbolic_distance(z, w):
    """Distance in the Poincare disk of curvature -1."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q = np.abs((z - w) / (1 - np.conj(z) * w))
    return 2 * np.arctanh(q)


def in_fundamental_domain(group, z):
    """Membership in the Dirichlet domain centered at 0 (the octagon).

    A point belongs iff it is at least as close (hyperbolic distance) to 0
    as to every neighbor center gamma(0); exact ties on a side boundary are
    broken toward the side of smaller index (sides 0..3 keep their points,
    their partners 4..7 do not).  Accepts scalars or arrays.

    Points are taken in blocks of DOMAIN_BLOCK.  Since tanh(d(z, c)/2) =
    |z - c| / |1 - conj(c) z|, z is closer to 0 than to c iff the real margin

        |z - c|^2 - |z|^2 |1 - conj(c) z|^2
            = (1 - |z|^2) (|c|^2 (1 + |z|^2) - 2 Re(conj(c) z))

    is positive.  It is at most 4 times the distance margin, so a point
    whose least real margin is at least 1e-9 in absolute value is decided
    by its sign; every other point (every near tie) is decided by the
    distance margins, as is the tie-breaking.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zf = z.reshape(-1)
    centers = group.neighbor_centers()
    inside = np.empty(len(zf), dtype=bool)
    for lo in range(0, len(zf), DOMAIN_BLOCK):
        zb = zf[lo:lo + DOMAIN_BLOCK]
        x, y = zb.real.copy(), zb.imag.copy()
        r2 = x * x + y * y
        least = np.full(len(zb), np.inf)
        for c in centers:
            m = c.real * x
            m += c.imag * y
            m *= -2
            m += abs(c) ** 2 * (1 + r2)
            np.minimum(least, m, out=least)
        least *= 1 - r2
        inside[lo:lo + DOMAIN_BLOCK] = least > 0
        near = ~(np.abs(least) >= 1e-9) | (r2 >= 1)     # NaN is near too
        if np.any(near):
            idx = lo + np.flatnonzero(near)
            inside[idx] = _distance_membership(centers, zf[idx])
    return bool(inside[0]) if scalar else inside.reshape(z.shape)


def _distance_membership(centers, z):
    """Membership from the hyperbolic distance margins, ties broken toward
    the side of smaller index."""
    d0 = hyperbolic_distance(z, 0)
    margins = np.array([hyperbolic_distance(z, c) - d0 for c in centers])
    mmin = margins.min(axis=0)
    inside = mmin > DOMAIN_TOL
    ties = np.abs(mmin) <= DOMAIN_TOL
    if np.any(ties):
        first = np.argmax(margins[:, ties] <= DOMAIN_TOL + mmin[ties], axis=0)
        inside[ties] = first < 4
    return inside
