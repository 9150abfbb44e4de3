"""Discretization of the octagon surface: mesh, quadrature, Laplacian, D.

The fundamental octagon is triangulated by refining the 8-triangle fan
from the center.  Boundary edges are subdivided at *hyperbolic* midpoints
so refined boundary nodes stay on the geodesic sides and the side-pairing
isometries match boundary nodes exactly; interior edges use Euclidean
midpoints.  Each boundary node is then glued to its image under the
side pairing (classes joined root to root over index arrays), which
closes the surface: the glued complex has Euler characteristic -2 and all
8 octagon corners collapse to a single vertex (the corner angles sum to
2 pi, so no cone point appears).

The Laplace-Beltrami operator of the metric sigma |dz|^2 is assembled
with the conformal-invariance trick: in 2D the P1 stiffness matrix of the
flat Laplacian is conformally invariant, so Delta = sigma^-1 (dxx + dyy)
is discretized by the flat cotangent stiffness K together with a lumped
hyperbolic mass M = diag(w): Delta_h = -M^-1 K.  The resolvent operator

    D = -2 (Delta - 2)^-1

then solves (K + 2M) u = 2 M f, one sparse factorization reused for all
right-hand sides (the Laplace eigensolve runs Lanczos on its inverse,
made symmetric by sqrt(w), to reuse it as well); as K + 2M is symmetric,
the LU orders it by minimum degree on A^T + A, not by COLAMD on A^T A,
without relaxed supernodes.  Its Green
kernel is G = 2 (K + 2M)^-1.  G is solved once per
symmetry orbit of the nodes: the generators z -> e^{i pi/4} z and
z -> conj(z) are certified to carry the glued mesh, w and K onto
themselves, their 16 compositions give the maps, and G is kept as the
solved rows plus those permutations (289 rows of 4,094 at level 4).  The
rows are solved as columns by the untransposed LU solve, which holds
because K + 2M equals its transpose bit for bit.  G is applied by one
product with the permuted columns, and its report is read off the solved
rows; neither expands it.  The computed G is symmetric up to roundoff,
and (Df)(p) = sum_q G[p,q] w_q f(q) holds to roundoff, not exactly: the
two sides round differently (about 2e-15 relative at level 3 and 4e-15
at level 4).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .artifacts import write_json
from .errors import KernelBudget, MeshBudget, SingularMass, SolverFailure, WpcurvError
from .fuchsian import FuchsianGroup, act

#: extra subdivision passes applied to the 8-triangle fan before public
#: level counting starts; the base mesh (level 0) is the once-refined fan
BASE_REFINEMENTS = 1

#: budgets, read at call time: raw mesh nodes, and bytes of G's solved
#: rows (and of its dense expansion, `GreenKernel.matrix`)
NODE_CAP = 200_000
GREEN_BYTES_CAP = 1_600_000_000

#: columns per LU solve, of G's representatives and of `apply_D`'s stacks:
#: the right-hand side and the solution are N x GREEN_BLOCK.  On a 2-vCPU
#: Xeon the 289 level-4 orbit rows took 87-140 ms at widths 4-64, 116-196
#: ms at width 289 and 156-210 ms one column at a time (medians of 5)
GREEN_BLOCK = 8

# 7-point degree-5 triangle quadrature (barycentric points and weights)
_QUAD_PTS = [(1 / 3, 1 / 3, 1 / 3),
             (0.059715871789770, 0.470142064105115, 0.470142064105115),
             (0.470142064105115, 0.059715871789770, 0.470142064105115),
             (0.470142064105115, 0.470142064105115, 0.059715871789770),
             (0.797426985353087, 0.101286507323456, 0.101286507323456),
             (0.101286507323456, 0.797426985353087, 0.101286507323456),
             (0.101286507323456, 0.101286507323456, 0.797426985353087)]
_QUAD_WTS = [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3


def _hyp_mid(z1: complex, z2: complex) -> complex:
    """Hyperbolic midpoint of two disk points (stays on their geodesic)."""
    w = (z2 - z1) / (1 - np.conj(z1) * z2)
    aw = abs(w)
    if aw < 1e-15:
        return z1
    m = w / aw * np.tanh(np.arctanh(aw) / 2)
    return (m + z1) / (1 + np.conj(z1) * m)


def check_level(level: int):
    """The one range of mesh levels: at least 1, and within NODE_CAP raw nodes.
    Refining the fan (a disk) p = level + BASE_REFINEMENTS times gives 8 * 4**p
    triangles, 8 * 2**p boundary edges and V = 1 + E - F = (2**(p+1) + 1)**2 nodes."""
    raw = (2 ** (level + BASE_REFINEMENTS + 1) + 1) ** 2
    if level < 1:
        raise ValueError("mesh level must be at least 1")
    if raw > NODE_CAP:
        raise MeshBudget("mesh level %d needs %d raw nodes > cap %d" % (level, raw, NODE_CAP))


def check_green_budget(level: int):
    """Raise KernelBudget unless G's orbit rows at `level` fit GREEN_BYTES_CAP:
    8 R N bytes, with N = 4**(p+1) - 2 glued nodes (Euler characteristic -2)
    and R = (2**(p-1) + 1)**2 symmetry orbits, p = level + BASE_REFINEMENTS."""
    p = level + BASE_REFINEMENTS
    need = 8 * (2 ** (p - 1) + 1) ** 2 * (4 ** (p + 1) - 2)
    if need > GREEN_BYTES_CAP:
        raise KernelBudget("mesh level %d: Green orbit rows need %d bytes > cap %d"
                           % (level, need, GREEN_BYTES_CAP))


def _edges(tris, n):
    """Endpoints and key min*n + max of every triangle edge; edge e of
    triangle t, one of (i, j), (j, k), (k, i), sits at 3t + e."""
    i, j = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    return i, j, np.minimum(i, j) * n + np.maximum(i, j)


def _build_raw(group: FuchsianGroup, passes: int):
    """Subdivide the center fan `passes` times; returns (nodes, triangles).

    Each pass adds one node per edge, numbered by first use in edge order,
    and splits triangle (i, j, k) with edge midpoints a, b, c into
    (i, a, c), (a, j, b), (c, b, k), (a, b, c).  A boundary edge, an edge
    of one triangle, is split at its hyperbolic midpoint.
    """
    nodes = np.array([0j] + [complex(v) for v in group.vertices])
    tris = np.array([(0, 1 + s, 1 + (s + 1) % 8) for s in range(8)])
    for _ in range(passes):
        i, j, keys = _edges(tris, len(nodes))
        _, first, inv, count = np.unique(keys, return_index=True, return_inverse=True,
                                         return_counts=True)
        order = np.argsort(first)                   # new nodes by first use
        a, b = i[first[order]], j[first[order]]
        mid = (nodes[a] + nodes[b]) / 2
        for e in np.flatnonzero(count[order] == 1):     # scalar: an array form moves 1 ulp
            mid[e] = _hyp_mid(complex(nodes[a[e]]), complex(nodes[b[e]]))
        m = len(nodes) + np.argsort(order)[inv].reshape(-1, 3)
        nodes = np.concatenate([nodes, mid])
        tris = np.c_[tris, m][:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]].reshape(-1, 3)
    return nodes, tris


def _area_weights(nodes, tris):
    """Lumped hyperbolic-area weights by 7-point quadrature per triangle.

    Terms are summed in (triangle, quadrature point, corner) order.
    """
    zi, zj, zk = nodes[tris].T
    A = np.abs((zj - zi).real * (zk - zi).imag - (zj - zi).imag * (zk - zi).real) / 2
    L = np.array(_QUAD_PTS)                                 # (7, 3)
    z = L[:, :1] * zi + L[:, 1:2] * zj + L[:, 2:] * zk      # (7, M)
    sig = 4 / (1 - np.hypot(z.real, z.imag) ** 2) ** 2     # hypot: as abs(complex)
    terms = (np.array(_QUAD_WTS)[:, None] * A * sig).T[:, :, None] * L
    return np.bincount(np.broadcast_to(tris[:, None, :], terms.shape).ravel(), terms.ravel(),
                       len(nodes))


def _stiffness(nodes, tris, n):
    """Flat P1 cotangent stiffness matrix (conformally invariant)."""
    p = np.stack([nodes.real, nodes.imag], axis=-1)[tris]  # (M, 3, 2)
    e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    A = np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]) / 2
    Kloc = (e @ e.transpose(0, 2, 1)) / (4 * A)[:, None, None]
    return sp.csr_matrix((Kloc.ravel(), (np.repeat(tris, 3, axis=1).ravel(),
                                         np.tile(tris, 3).ravel())), shape=(n, n))


def _glue(group: FuchsianGroup, nodes, tris):
    """The root raw node of each node's glued class.  Side s holds the boundary
    edges (of one triangle each) whose endpoint sums point along s pi/4.  Generator
    s carries side s+4 onto side s; each side s+4 node's class joins, root to
    root, the class of its image."""
    i, j, keys = _edges(tris, len(nodes))
    _, first, count = np.unique(keys, return_index=True, return_counts=True)
    ends = np.c_[i, j][first[count == 1]]
    side = np.rint(np.angle(nodes[ends].sum(axis=1)) / (np.pi / 4)).astype(int) % 8
    parent = np.arange(len(nodes))
    for s in range(4):
        src, tgt = np.unique(ends[side == s + 4]), np.unique(ends[side == s])
        d = np.abs(nodes[tgt] - act(group.generators[s], nodes[src])[:, None])
        gap = d.min(axis=1).max()
        if gap > 1e-9:
            raise WpcurvError("side pairing failed to match boundary node (gap %g)" % gap)
        parent[parent[src]] = parent[tgt[d.argmin(axis=1)]]     # root to root
        for _ in range(len(nodes).bit_length()):    # log2 N jumps flatten any chain
            parent = parent[parent]
    return parent


@dataclass
class DiscreteSurface:
    """Glued quadrature nodes, weights and operators, over the raw mesh."""

    level: int
    nodes: np.ndarray            # representative disk coordinate per class
    weights: np.ndarray          # lumped hyperbolic-area weights
    stiffness: sp.spmatrix       # glued flat stiffness K (Delta_h = -M^-1 K)
    raw_nodes: np.ndarray = field(repr=False)      # refined octagon, unglued
    raw_triangles: np.ndarray = field(repr=False)  # (M, 3) raw node indices
    gid: np.ndarray = field(repr=False)            # glued class of each raw node
    _lu: object = field(default=None, repr=False)

    @property
    def triangles(self):
        """Glued index triples, (M, 3)."""
        return self.gid[self.raw_triangles]

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def area(self):
        return float(self.weights.sum())

    def euler_characteristic(self):
        tris = self.triangles
        edges = np.unique(_edges(tris, self.num_nodes)[2])
        return self.num_nodes - len(edges) + len(tris)

    def inner(self, f, g):
        """Weighted inner product sum_p w_p f_p conj(g_p), of (N, k) stacks by column."""
        w = self.weights.reshape((-1,) + (1,) * (np.ndim(f) - 1))
        return np.sum(w * f * np.conj(g), axis=0)

    def factorization(self):
        """Sparse LU of (K + 2M), built once and reused.  K + 2M is symmetric,
        so it is ordered by minimum degree on A^T + A (scipy's default COLAMD
        orders A^T A and leaves 25-43% more fill at levels 3-6), and relax=1
        turns off relaxed supernodes, which on this ordering take the level-6
        factor from about 1 s to about a minute."""
        if self._lu is None:
            A = (self.stiffness + 2 * sp.diags(self.weights)).tocsc()
            self._lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=1)
        return self._lu


def build_mesh(group: FuchsianGroup, level: int) -> DiscreteSurface:
    """Triangulate, weight and glue the fundamental octagon.

    `level` (see `check_level`) counts refinement passes beyond the base
    mesh (the once-refined fan), so the triangle count is 8 * 4**(level+1).
    """
    check_level(level)
    nodes, tris = _build_raw(group, level + BASE_REFINEMENTS)
    reps, gid = np.unique(_glue(group, nodes, tris), return_inverse=True)
    weights = np.bincount(gid, _area_weights(nodes, tris))
    if np.any(weights <= 0):
        raise SingularMass("non-positive lumped weight")
    # the flat stiffness of the raw triangles, summed over each glued class
    P = sp.csr_matrix((np.ones(len(nodes)), (np.arange(len(nodes)), gid)),
                      shape=(len(nodes), len(reps)))
    return DiscreteSurface(
        level=level, nodes=nodes[reps], weights=weights,
        stiffness=(P.T @ _stiffness(nodes, tris, len(nodes)) @ P).tocsc(),
        raw_nodes=nodes, raw_triangles=tris, gid=gid)


def apply_D(surface: DiscreteSurface, f, *, rtol: float = 1e-10):
    """Resolvent D f = -2 (Delta_h - 2)^-1 f via (K + 2M) u = 2 M f.

    f is a real node function (N,) or a stack of them (N, k), solved at
    most GREEN_BLOCK columns per LU solve; complex input raises TypeError
    (a caller solves its real and imaginary parts).  The weighted residual
    of (Delta_h - 2) u = -2 f is checked column by column against rtol.
    """
    f = np.asarray(f)
    X = f.reshape(len(f), -1)
    lu = surface.factorization()
    w = surface.weights[:, None]
    U = np.empty(X.shape)
    for lo in range(0, X.shape[1], GREEN_BLOCK):
        U[:, lo:lo + GREEN_BLOCK] = lu.solve(2 * w * X[:, lo:lo + GREEN_BLOCK])
    resid = -(surface.stiffness @ U) / w - 2 * U + 2 * X
    rel = (np.sqrt(surface.inner(resid, resid))
           / np.maximum(np.sqrt(surface.inner(X, X)), 1e-300))
    if rel.max() > rtol:
        raise SolverFailure("worst relative resolvent residual %.3g exceeds rtol %.3g"
                            % (rel.max(), rtol))
    return U.reshape(f.shape)


@dataclass
class GreenKernel:
    """G = 2 (K + 2M)^-1, with (Df)(p) = sum_q G[p,q] w_q f(q), kept as solved.

    `rows` holds one solved row of G per symmetry orbit of the nodes (R x N).
    Row i of G is rows[row_of[i]] with its columns permuted by the inverse
    of the node map perms[map_of[i]]: G[i, perms[map_of[i], k]] =
    rows[row_of[i], k].  With the trivial group, rows is G itself.
    """

    rows: np.ndarray
    row_of: np.ndarray
    map_of: np.ndarray
    perms: np.ndarray
    report: dict

    @cached_property
    def _inverse(self):
        return np.argsort(self.perms, axis=1)

    def matmat(self, V):
        """G @ V for real V of shape (N,) or (N, k).

        (G V)[i] = (rows @ V[perms[map_of[i]]])[row_of[i]]: one product of
        rows with the N x (maps * k) stack of permuted columns, then a
        gather.
        """
        V = np.asarray(V)
        X = V.reshape(len(V), -1)
        stack = X[self.perms.T].reshape(len(X), -1)       # N x (maps * k)
        Y = (self.rows @ stack).reshape(len(self.rows), len(self.perms), -1)
        return Y[self.row_of, self.map_of].reshape(V.shape)

    @cached_property
    def matrix(self):
        """The dense N x N matrix G, within GREEN_BYTES_CAP, row by row: the
        tests' reference, never built on the check path."""
        n = len(self.row_of)
        if 8 * n * n > GREEN_BYTES_CAP:
            raise KernelBudget("dense kernel needs %d bytes > cap %d"
                               % (8 * n * n, GREEN_BYTES_CAP))
        G = np.empty((n, n))
        for i, (r, g) in enumerate(zip(self.row_of, self.map_of)):
            self.rows[r].take(self._inverse[g], out=G[i])
        return G


def _symmetries(surface: DiscreteSurface) -> np.ndarray:
    """Node permutations of the dihedral maps that the surface has.

    Only the two generators z -> e^{i pi/4} z and z -> conj(z) are
    certified: a generator is kept only if it carries the raw nodes one to
    one onto raw nodes (to 1e-9), induces a well-defined map of the glued
    classes, and preserves w and K to 1e-12 relative; it then fixes G as
    well, and so does every composition of kept generators.  Row g holds
    the image of each glued node under map g, in the order identity, the
    rotations z -> e^{ik pi/4} z (k = 1..7), then z -> e^{ik pi/4} conj(z)
    (k = 0..7).  If one generator fails, the rows are the subgroup the
    other generates; on such a surface a map that neither generates (say
    a reflection in another axis) is not looked for, and G is solved over
    the smaller group, which is correct, only slower.
    """
    raw, gid = surface.raw_nodes, surface.gid
    w, K = surface.weights, surface.stiffness.tocsc()

    def grid(z):                    # one int64 key per point of the 1e-9 grid
        return (np.rint(z.real * 1e9).astype(np.int64) * (2 * 10**9 + 1)
                + np.rint(z.imag * 1e9).astype(np.int64))

    order = np.argsort(grid(raw))
    keys = grid(raw)[order]

    def certified(img):
        """The glued-node permutation of the raw map z -> img, or None."""
        hit = order[np.minimum(np.searchsorted(keys, grid(img)), len(raw) - 1)]
        if np.abs(raw[hit] - img).max() > 1e-9 or np.bincount(hit).max() > 1:
            return None
        perm = np.empty(len(w), dtype=np.intp)
        perm[gid] = gid[hit]
        if not (np.array_equal(perm[gid], gid[hit])
                and np.abs(w[perm] - w).max() <= 1e-12 * w.max()):
            return None
        # K[perm][:, perm]: relabel the rows of the CSC arrays, then pick columns
        K_perm = sp.csc_matrix((K.data, np.argsort(perm)[K.indices], K.indptr),
                               shape=K.shape)
        return perm if abs(K_perm[:, perm] - K).max() <= 1e-12 * abs(K).max() else None

    rotate = certified(np.exp(1j * np.pi / 4) * raw)
    reflect = certified(raw.conj())
    perms = [np.arange(len(w))]
    if rotate is not None:          # e^{ik pi/4} z, as rotate applied k times
        for _ in range(7):
            perms.append(rotate[perms[-1]])
    if reflect is not None:         # e^{ik pi/4} conj(z) = rotation k after conj
        perms += [p[reflect] for p in perms[:8]]
    return np.array(perms)


def green_kernel(surface: DiscreteSurface) -> GreenKernel:
    """Green kernel G = 2 (K + 2M)^-1 as its orbit rows, with a report.

    G is solved once per symmetry orbit of the nodes: the least node r of
    each orbit gets row r of G as column r, the solution of
    (K + 2M) x = 2 e_r, GREEN_BLOCK representatives per untransposed LU
    solve.  Precondition: K + 2M equals its transpose bit for bit (the
    local stiffness matrices e e^T are symmetric and M is diagonal; the
    tests check it at levels 1-4), so G is symmetric and its columns are
    its rows.  SuperLU does the untransposed solve by supernodes and the
    transposed one column by column.  Every other row is the row of its
    orbit's representative under a certified permutation of `_symmetries`,
    G[g(r), :] = G[r, g^-1(:)]; it is gathered when read, never stored.
    GREEN_BYTES_CAP bounds the stored rows, 8 R N bytes.

    The report reads the solved rows and every index-table entry.  Every
    entry of G is an entry of rows, which give the extremes.
    `asymmetry_rel` compares each solved row G[r, :] with its column
    G[:, r], gathered map by map from the rows of the nodes that map
    carries, never from a transpose.  A certified map carries every pair
    {i, j} onto a pair {r, k} with r a representative and leaves G
    invariant, so these pairs cover every pair.  `rowsum_err` takes G w
    through `matmat`, as the integral path applies G.
    """
    n = surface.num_nodes
    perms = _symmetries(surface)
    orbit_min = perms.min(axis=0)
    reps = np.flatnonzero(orbit_min == np.arange(n))
    if 8 * len(reps) * n > GREEN_BYTES_CAP:
        raise KernelBudget("orbit rows need %d bytes > cap %d"
                           % (8 * len(reps) * n, GREEN_BYTES_CAP))
    lu = surface.factorization()
    rows = np.empty((len(reps), n))
    for lo in range(0, len(reps), GREEN_BLOCK):
        r = reps[lo:lo + GREEN_BLOCK]            # columns r of 2 I
        rows[lo:lo + len(r)] = lu.solve(2.0 * (np.arange(n)[:, None] == r)).T
    # the first map carrying each node's representative onto it (0, the
    # identity, for the representatives); one exists, since the maps of
    # `_symmetries` form a group
    map_of = (perms[:, orbit_min] == np.arange(n)).argmax(axis=0)
    row_of = np.searchsorted(reps, orbit_min)
    kernel = GreenKernel(rows=rows, row_of=row_of, map_of=map_of, perms=perms, report={})
    gmin = rows.min()
    gmax = max(rows.max(), -gmin)
    asym = 0.0
    for g in np.unique(map_of):
        sel = map_of == g
        # G[sel, reps] from the rows of the nodes g carries, against G[reps, sel]
        col = rows[:, kernel._inverse[g][reps]][row_of[sel]]
        asym = max(asym, np.abs(col - rows[:, sel].T).max())
    kernel.report = {
        "min_entry": float(gmin),
        "max_entry": float(gmax),
        "asymmetry_rel": float(asym / gmax),
        "rowsum_err": float(np.abs(kernel.matmat(surface.weights) - 1).max()),
    }
    return kernel


def laplacian_eigenvalues(surface: DiscreteSurface, k: int = 6) -> np.ndarray:
    """Lowest k eigenvalues of -Delta_h (generalized problem K x = lam M x).

    With s = sqrt(w) and y = s x the problem is S y = y / (lam + 2) for the
    symmetric S = s (K + 2M)^-1 s, applied through the cached LU of K + 2M;
    K itself is singular (constants) and is never factored.  Plain Lanczos
    takes the k largest eigenvalues mu of S, and lam = 1/mu - 2.  ARPACK
    starts from s w, the weights carried through the similarity, so two
    calls agree bit for bit.
    """
    s, lu = np.sqrt(surface.weights), surface.factorization()
    S = spla.LinearOperator((len(s), len(s)), matvec=lambda x: s * lu.solve(s * x),
                            dtype=float)
    mu = spla.eigsh(S, k=k, which="LA", v0=s * surface.weights,
                    return_eigenvectors=False)
    return np.sort(1 / mu - 2)


def node_hash(surface: DiscreteSurface) -> str:
    return hashlib.sha256(np.ascontiguousarray(surface.nodes).tobytes()).hexdigest()


def export_mesh_json(surface: DiscreteSurface, path, *, config_hash=None):
    payload = {
        "level": surface.level,
        "nodes": np.c_[surface.nodes.real, surface.nodes.imag].tolist(),
        "weights": surface.weights.tolist(),
        "triangles": surface.triangles.tolist(),
    }
    return write_json(path, payload, config_hash)


def export_green(kernel: GreenKernel, surface: DiscreteSurface, path, *,
                 config_hash=None):
    """The kernel's report, with the node hash and the solved-row shape; the
    rows themselves are not written."""
    payload = {
        "rows_shape": list(kernel.rows.shape),
        "node_hash": node_hash(surface),
        "report": kernel.report,
    }
    return write_json(path, payload, config_hash)
