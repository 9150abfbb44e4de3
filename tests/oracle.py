"""Independent oracles the tests hold the pipeline against.

`_series`, the truncated Poincare series sum_gamma (gamma z)^k gamma'(z)^2
over a word ball, is an independent construction of the same forms; the
tests hold the solved basis against it.

`_solve_by_powers` builds the Hejhal collocation system with a complex
power per grid entry and takes the full SVD of the stacked real system,
where `qdiff._solve` builds it by cumulative products and takes the SVD
of its R factor.

`_symmetries_by_candidates` certifies each of the 2N-gon's 4N rotations
and reflections on its own, where `surface._symmetries` certifies two
generators and composes them.

`_stiffness_by_gluing_matrix` assembles the flat stiffness on the raw
nodes and glues it by the raw-to-glued matrix P as P^T K P, where
`surface.build_mesh` sums each raw triangle's local matrix straight into
its glued classes.

`_matmat_by_stack` applies the Green kernel by products of its orbit
rows, the solve blocks of `surface._orbit_blocks`, with the
N x (maps * k) stack of all permuted columns; the package never applies
G (it applies D through the LU), so the tests hold the orbit rows and
permutations against `surface.apply_D` through it, with no dense G.
`_orbit_tables` derives from the kernel's node maps the two index tables
that say which orbit row and which map give each row of G; the package
keeps only the maps.

`_pairing_table_by_pairs` takes the pairing table two resolvent solves per
product mu_i conj(mu_j), i <= j, and one einsum per pair (i, j), where
`curvature.pairing_table` applies D once to all n^2 real columns.

`real_tensor` applies the real change of basis to all four slots of the
complex curvature tensor in one einsum, over all (2n)^4 entries, where
`wedge.assemble_Q` reads only the wedge pairs through one fixed map.

`integral_matrices_by_einsum` builds each unit wedge's n x n coefficient
matrix and its Hermitian part and contracts them with the table in three
einsums, where `wedge.integral_matrices` reads the few entries of the
table each pair of unit wedges meets.

`lemma51_by_trials` evaluates the quaternionic lemma one trial at a time,
with scalar `rankone.quat_curvature` calls, where `rankone.lemma51_check`
stacks all its trials.

`seed_sweep_by_models` draws, builds and evaluates the surrogate models
one at a time, where `surrogate.run_seed_sweep` stacks them.

`in_fundamental_domain` is the half-open Dirichlet domain of the
`neighbor_centers`, ties broken by side index, so that each point of the
disk has exactly one translate in it; `fuchsian.reduce_to_domain` decides
by the closed polygon alone, side by side from the vertices.
`reduce_by_centers` is the reduction by the nearest neighbour centre,
which on the regular octagon takes the same steps.

`in_klein_polygon` judges any convex polygon, Dirichlet domain or not, in
the Klein model, where its sides are the chords between its vertices;
`reduce_to_domain` decides in each side's chart of the Poincare disk.

`octagon_closed_form` builds the regular octagon from its own numbers,
cosh(l/2) = 1 + sqrt(2) and cosh r = 3 + 2 sqrt(2), where
`fuchsian.regular_group` computes them for any 2N-gon; `REGULAR`
names the decagon and the 12-gon the tests build with it.

`CHARTS` holds the disk automorphisms A of the moved charts `_chart`
builds: the same surface with pairings A^-1 g A and vertices A^-1 v.
"""

import numpy as np
import scipy.sparse as sp

from wpcurv import fuchsian, qdiff, rankone, wedge
from wpcurv import surface as surface_mod
from wpcurv.curvature import curvature_tensor, kernel_table
from wpcurv.errors import TypeImbalance
from wpcurv.fuchsian import FuchsianGroup, act, inverse, product, rotation, unit_det

DOMAIN_BLOCK = 32_768  # points per block of `in_fundamental_domain` (256 kB float rows)
DOMAIN_TOL = 1e-12  # distance margin within which `in_fundamental_domain` sees a tie
KLEIN_TOL = 1e-10  # Klein-model distance outside a chord that `in_klein_polygon` counts inside

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


def _solve_by_powers(points, k: int, order: int):
    """Oracle: `qdiff._solve` with A[p, m] = ((w/R)^n - gamma'(w)^2 (gamma w/R)^n)
    for n = k + order m, each power taken by `**`, and the SVD of the whole
    stacked (2 NUM_POINTS, NUM_COEFFS) real system."""
    w, gw, mats = points
    dg2 = (mats[:, 1, 0] * w + mats[:, 1, 1]) ** -4
    n = k + order * np.arange(qdiff.NUM_COEFFS)
    A = (w[:, None] ** n - dg2[:, None] * gw[:, None] ** n) / qdiff.SOLVE_RADIUS ** n
    _, sv, vt = np.linalg.svd(np.concatenate([A.real, A.imag]), full_matrices=False)
    a = vt[-1] / qdiff.SOLVE_RADIUS ** n
    return a / a[0], sv


def _symmetries_by_candidates(surface):
    """Oracle: certify each of the 4N maps z -> e^{2 pi i k/2N} z and
    z -> e^{2 pi i k/2N} conj(z) of the surface's 2N-gon on its own, with
    `surface._symmetries`' checks, and keep those that pass, identity first."""
    raw, gid = surface.raw_nodes, surface.gid
    w, K = surface.weights, surface.stiffness.tocsc()
    K_max = abs(K).max()

    def grid(z):
        return (np.rint(z.real * 1e9).astype(np.int64) * (2 * 10**9 + 1)
                + np.rint(z.imag * 1e9).astype(np.int64))

    order = np.argsort(grid(raw))
    keys = grid(raw)[order]
    two_n = surface.group.rotation_order
    perms = []
    for z in (raw, raw.conj()):
        for k in range(two_n):
            img = np.exp(2j * np.pi * k / two_n) * z
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


def _stiffness_by_gluing_matrix(nodes, tris, gid, n):
    """Oracle: P^T K P, with K the stiffness of the raw triangles `tris` on
    the raw nodes and P[i, gid[i]] = 1 the gluing of raw node i into its
    class, as a CSC matrix of the n glued classes with sorted indices."""
    raw = len(nodes)
    K = surface_mod._stiffness(nodes, tris, tris, raw).tocsr()
    P = sp.csr_matrix((np.ones(raw), (np.arange(raw), gid)), shape=(raw, n))
    return (P.T @ K @ P).tocsc().sorted_indices()


def _orbit_tables(kernel):
    """Index tables of a kernel's node maps: row_of[i], the place of the
    least node of i's orbit among those least nodes, and map_of[i], the
    first map carrying that least node onto i (0, the identity, for the
    least nodes themselves), so G[i, perms[map_of[i]]] is orbit row
    row_of[i]."""
    perms = kernel.perms
    n = perms.shape[1]
    orbit_min = perms.min(axis=0)
    row_of = np.searchsorted(np.flatnonzero(orbit_min == np.arange(n)), orbit_min)
    return row_of, (perms[:, orbit_min] == np.arange(n)).argmax(axis=0)


def _orbit_rows(kernel):
    """The R x N orbit rows of G, the solve blocks of `surface._orbit_blocks`
    at the representatives (map_of 0) stacked, bit for bit what the
    kernel's report read."""
    reps = np.flatnonzero(_orbit_tables(kernel)[1] == 0)
    return np.concatenate([b for _, b in surface_mod._orbit_blocks(kernel.surface, reps)])


def _matmat_by_stack(kernel, V):
    """Oracle: G @ V as (rows @ V[perms[map_of[i]]])[row_of[i]], through
    products of the orbit rows, GREEN_BLOCK at a time as the kernel's
    report takes them, with the N x (maps * k) stack of permuted columns."""
    V = np.asarray(V)
    X = V.reshape(len(V), -1)
    stack = X[kernel.perms.T].reshape(len(X), -1)
    rows, block = _orbit_rows(kernel), surface_mod.GREEN_BLOCK
    Y = np.concatenate([rows[lo:lo + block] @ stack for lo in range(0, len(rows), block)])
    Y = Y.reshape(len(rows), len(kernel.perms), -1)
    row_of, map_of = _orbit_tables(kernel)
    return Y[row_of, map_of].reshape(V.shape)


def _pairing_table_by_pairs(fields, surface):
    """Oracle: all n^4 pairings (ij,kl) from n(n+1)/2 products, each solved
    as its real and imaginary parts.  D commutes with complex conjugation
    (its kernel is real), so D(mu_j conj(mu_i)) = conj(D(mu_i conj(mu_j)))
    and only the upper triangle of products needs a solve."""
    mu = np.asarray(fields, dtype=complex)
    n = len(mu)
    weights = surface.weights
    solved = {}
    for i in range(n):
        for j in range(i, n):
            p = mu[i] * np.conj(mu[j])
            solved[(i, j)] = (surface_mod.apply_D(surface, p.real)
                              + 1j * surface_mod.apply_D(surface, p.imag))
    entries = np.empty((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            dij = solved[(i, j)] if i <= j else np.conj(solved[(j, i)])
            entries[i, j] = np.einsum("p,kp,lp->kl", weights * dij, mu, np.conj(mu))
    return entries


def real_tensor(R) -> np.ndarray:
    """Oracle: R(e_a, e_b, e_c, e_d) over the real basis (x_1..x_n, y_1..y_n).

    U and V hold the t- and tbar-coefficients of each real basis vector
    (x_i = t_i + tbar_i, y_i = i (t_i - tbar_i)).  Only a slot pair with one
    unbarred and one barred index survives; a (barred, unbarred) pair is
    reordered to the stored (holo, anti) order of R with a sign, so each
    pair enters through T[a,b,h,j] = U[a,h] V[b,j] - V[a,j] U[b,h].  The
    imaginary residue must vanish; above 1e-10 * max|R| it signals broken
    type bookkeeping.
    """
    eye = np.eye(R.n)
    U = np.vstack([eye, 1j * eye])
    V = np.vstack([eye, -1j * eye])
    T = np.einsum("ah,bj->abhj", U, V) - np.einsum("aj,bh->abhj", V, U)
    full = np.einsum("abhj,cdkl,hjkl->abcd", T, T, R.entries, optimize=True)
    residue = np.abs(full.imag).max()
    if residue > 1e-10 * max(np.abs(R.entries).max(), 1e-300):
        raise TypeImbalance(
            "imaginary residue %.3g in a real curvature value" % residue)
    return full.real


def integral_matrices_by_einsum(T) -> tuple:
    """Oracle: (Q_D, Q_G) of the table T as contractions.  C[a] is the
    coefficient matrix of unit wedge a (E_ij, or i E_ij for x_i ^ y_j) and
    E[a] its Hermitian part (C - C^H) / 2i; the Green sums are
    diag = E_a T E_b, mod2 = C_a T conj(C_b) and cross = C_a T C_b over the
    index orders of `wedge.integral_matrices`' docstring."""
    n = len(T)
    r, c = np.triu_indices(2 * n, 1)
    C = np.zeros((len(r), n, n), dtype=complex)
    C[np.arange(len(r)), r % n, c % n] = np.where((r < n) & (c >= n), 1j, 1)
    E = (C - np.conj(C).transpose(0, 2, 1)) / 2j
    diag = np.einsum("aij,bkl,ijkl->ab", E, E, T, optimize=True)
    mod2 = np.einsum("aij,bkl,iklj->ab", C, np.conj(C), T, optimize=True)
    cross = np.einsum("aij,bkl,ilkj->ab", C, C, T, optimize=True)
    return tuple((M + M.T) / 2 for M in (-4 * diag.real, 2 * cross.real - 2 * mod2.real))


def lemma51_by_trials(m: int, trials: int) -> list:
    """Oracle: the records of `rankone.lemma51_check`, one trial at a time
    on the same draws of v."""
    I, J, K = rankone.structures(m)
    Wj = wedge.induced_action(J)
    rng = np.random.default_rng(rankone.LEMMA_SEED)
    records = []
    for _ in range(trials):
        v = rng.standard_normal(4 * m)
        v /= np.linalg.norm(v)
        jv, kv, iv = J @ v, K @ v, I @ v
        expansion = (rankone.quat_curvature(v, jv, v, jv, m)
                     + rankone.quat_curvature(kv, iv, kv, iv, m)
                     + 2 * rankone.quat_curvature(v, jv, kv, iv, m))
        om = rankone.omega_wedge(v, m)[np.triu_indices(4 * m, 1)]
        norm = np.linalg.norm(om)
        records.append({
            "null_expansion_abs": abs(expansion),
            "j_invariance_resid": float(np.linalg.norm(Wj @ om - om) / norm),
            "lstsq_resid_rel": float(np.linalg.norm(om + Wj @ om) / 2 / norm),
            "omega_norm": float(norm),
        })
    return records


def _surrogate_by_draws(seed: int, num_points: int, n: int):
    """One surrogate model's weights, kernel and fields, as arrays of its own."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((num_points, 2))
    weights = rng.uniform(0.5, 1.5, num_points)
    dx, dy = (pts[:, None, k] - pts[None, :, k] for k in (0, 1))
    dist = np.sqrt(dx * dx + dy * dy)
    bandwidth = float(np.median(dist[np.triu_indices(num_points, 1)]))
    kernel = np.exp(-(dist**2) / (2 * bandwidth**2))
    mu = rng.standard_normal((n, num_points)) + 1j * rng.standard_normal((n, num_points))
    return weights, kernel, mu


def seed_sweep_by_models(seeds, num_points: int, n: int) -> dict:
    """Oracle: `surrogate.run_seed_sweep`, one model at a time, each through
    its own pairing table, tensor, Q, spectrum and range residual."""
    per_seed = []
    for seed in seeds:
        weights, kernel, mu = _surrogate_by_draws(seed, num_points, n)
        Q = wedge.assemble_Q(curvature_tensor(
            kernel_table(mu, kernel * np.outer(weights, weights))))
        per_seed.append({"seed": seed, **wedge.spectrum(Q).to_dict(),
                         "range_residual_rel": wedge.range_residual(Q, wedge.j_wedge_matrix(n))})
    return {
        "n": n,
        "num_points": num_points,
        "num_seeds": len(per_seed),
        "worst_eigenvalue_margin": max(max(r["eigenvalues"]) for r in per_seed),
        "worst_kernel_dim_excess": max(r["counts"][1] - r["kernel_dim_expected"]
                                       for r in per_seed),
        "all_counts_ok": all(r["counts"][2] == 0
                             and r["counts"][1] == r["kernel_dim_expected"] for r in per_seed),
        "per_seed": per_seed,
    }


def hyperbolic_distance(z, w):
    """Distance in the Poincare disk of curvature -1."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q = np.abs((z - w) / (1 - np.conj(z) * w))
    return 2 * np.arctanh(q)


def _moebius(a):
    """The disk automorphism z -> (z + a) / (1 + conj(a) z)."""
    return unit_det([[1, a], [np.conj(a), 1]])


#: disk automorphisms A of the moved charts: a rotation and two Moebius
#: moves that carry the octagon's center off the origin
CHARTS = {"rotated": rotation(0.5), "moebius-1": _moebius(0.15 * np.exp(0.3j)),
          "moebius-2": _moebius(0.3 * np.exp(1.1j))}


def _chart(group, A):
    """The same surface in the chart A^-1: pairings A^-1 g A, vertices A^-1 v."""
    Ai = inverse(A)
    pairings = np.array([product(Ai, g, A) for g in group.side_pairings])
    return FuchsianGroup(side_pairings=pairings, vertices=act(Ai, group.vertices))


#: side counts of the regular polygons past the octagon: the decagon
#: (genus 2, two vertex classes) and the 12-gon (genus 3, one)
REGULAR = {"decagon": 10, "12-gon": 12}


def octagon_closed_form():
    """The regular octagon's group in its own numbers: the translation T
    across side 0 has cosh(l/2) = 1 + sqrt(2), rows 4..7 are its conjugates
    R(k pi/4) T R(-k pi/4), rows 0..3 their inverses, and the vertices are
    tanh(r/2) at the odd multiples of pi/8, cosh r = 3 + 2 sqrt(2)."""
    ch = 1 + np.sqrt(2.0)
    sh = np.sqrt(ch**2 - 1)
    T = unit_det([[ch, sh], [sh, ch]])
    gens = [product(rotation(k * np.pi / 4), T, rotation(-k * np.pi / 4)) for k in range(4)]
    rv = np.tanh(np.arccosh(3 + 2 * np.sqrt(2.0)) / 2)
    verts = rv * np.exp(1j * (2 * np.arange(8) + 1) * np.pi / 8)
    return FuchsianGroup(side_pairings=np.array([inverse(g) for g in gens] + gens),
                         vertices=verts)


def klein_margins(group, z):
    """(len(z), 2N) signed distances, in the Klein model, from each point
    of z to the line of each side's chord, positive on the polygon's side.
    z -> 2z / (1 + |z|^2) carries the disk onto the Klein model, where every
    geodesic is a straight chord, so side s is the chord from vertex s-1 to
    vertex s; the vertices run counterclockwise, so the polygon lies to the
    left of every chord."""
    v = 2 * group.vertices / (1 + np.abs(group.vertices) ** 2)
    a, e = np.roll(v, 1), v - np.roll(v, 1)
    z = np.asarray(z, dtype=complex).reshape(-1, 1)
    return (np.conj(e) * (2 * z / (1 + np.abs(z) ** 2) - a)).imag / np.abs(e)


def in_klein_polygon(group, z):
    """Membership in the closed polygon: no Klein margin below -KLEIN_TOL."""
    return klein_margins(group, z).min(axis=1) >= -KLEIN_TOL


def neighbor_centers(group):
    """Images of 0 under the 2N neighbor translations, ordered so that
    entry s is the center of the polygon copy across side s."""
    return act(np.roll(group.side_pairings, len(group.generators), axis=0), 0.0)


def reduce_by_centers(group, z):
    """Oracle: `fuchsian.reduce_to_domain` by the Dirichlet domain centered
    at 0.  Since tanh(d(w, c)/2) = |w - c| / |1 - conj(c) w|, the ratio q of
    w's nearest neighbor center c decides it: w is outside iff q < |w| -
    REDUCE_TOL, and then steps by the side pairing of c, which carries the
    copy around c onto the polygon."""
    w = np.array(z, dtype=complex).reshape(-1)
    centers = neighbor_centers(group)
    mats = np.tile(np.eye(2, dtype=complex), (len(w), 1, 1))
    for _ in range(fuchsian.REDUCE_STEPS):
        q = np.abs((w[:, None] - centers) / (1 - np.conj(centers) * w[:, None]))
        near = q.argmin(axis=1)
        out = np.flatnonzero(q[np.arange(len(w)), near] < np.abs(w) - fuchsian.REDUCE_TOL)
        if not len(out):
            return w, mats
        h = group.side_pairings[near[out]]
        w[out] = act(h, w[out])
        mats[out] = h @ mats[out]
    raise ValueError("%d points not reduced in %d steps" % (len(out), fuchsian.REDUCE_STEPS))


def in_fundamental_domain(group, z):
    """Membership in the Dirichlet domain centered at 0 (the octagon).

    A point belongs iff it is at least as close (hyperbolic distance) to 0
    as to every neighbor center gamma(0); exact ties on a side boundary are
    broken toward the side of smaller index (sides 0..N-1 keep their
    points, their partners N..2N-1 do not).  Accepts scalars or arrays.

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
    centers = neighbor_centers(group)
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
        inside[ties] = first < len(centers) // 2
    return inside
