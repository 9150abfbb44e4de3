"""Discretization of the surface: mesh, quadrature, Laplacian, D.

The fundamental 2N-gon is triangulated by refining the fan of 2N triangles
from the center, each boundary edge carrying its polygon side's index from
the fan on.  Boundary edges are subdivided at *hyperbolic* midpoints so
refined boundary nodes stay on the geodesic sides and the side-pairing
isometries match boundary nodes exactly; interior edges use Euclidean
midpoints.  Each node of side s + N is then glued to its image under that
side's pairing, which closes the surface: the glued complex has Euler
characteristic 2 - 2g, and on the octagon all 8 corners collapse to a single
vertex (the corner angles sum to 2 pi, so no cone point appears).  The
surface stores its triangles as glued index triples, and its group.

The Laplace-Beltrami operator of the metric sigma |dz|^2 is assembled
with the conformal-invariance trick: in 2D the P1 stiffness matrix of the
flat Laplacian is conformally invariant, so Delta = sigma^-1 (dxx + dyy)
is discretized by the flat cotangent stiffness K together with a lumped
hyperbolic mass M = diag(w): Delta_h = -M^-1 K.  Each raw triangle's
local matrix e e^T / 4A is summed straight into its glued classes as one
sparse matrix.  Every glued edge borders two triangles, so an off-diagonal
entry of K sums at most two local terms and its mirror the same symmetric
terms; two terms add the same in either order, so K + 2M equals its
transpose bit for bit.  The resolvent operator

    D = -2 (Delta - 2)^-1

then solves (K + 2M) u = 2 M f, one sparse factorization reused for all
right-hand sides (the Laplace eigensolve runs Lanczos on its inverse,
made symmetric by sqrt(w), to reuse it as well); as K + 2M is symmetric,
the LU orders it by minimum degree on A^T + A, not by COLAMD on A^T A,
without relaxed supernodes.  Its Green kernel is G = 2 (K + 2M)^-1.
G is solved once per symmetry orbit of the nodes: on the 2N-gon the
generators z -> e^{2 pi i/2N} z and z -> conj(z) are certified to carry
the glued mesh, w and K onto themselves, and their 4N compositions give
the maps (289 orbits of the octagon's 4,094 nodes at level 4).  The rows
at the representatives, the least node of each orbit, are solved as
columns by the untransposed LU solve, which holds because K + 2M equals
its transpose bit for bit.  Only G's report reads them, in one pass over
the solve blocks that compares each (representative, map,
representative) triple with its mirror and keeps no whole table of the
rows; G is kept as that report plus the node maps, and the package
applies G as D, since (Df)(p) = sum_q G[p,q] w_q f(q).  That holds to
roundoff, not exactly (about 2e-15 relative at level 3 and 4e-15 at
level 4), and the computed G is symmetric up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .artifacts import write_json
from .errors import KernelBudget, MeshBudget, SingularMass, SolverFailure, WpcurvError
from .fuchsian import FuchsianGroup, act

#: extra subdivision passes applied to the center fan before public
#: level counting starts; the base mesh (level 0) is the once-refined fan
BASE_REFINEMENTS = 1

#: the mesh levels `build_mesh` accepts, 1..MAX_LEVEL (level 7 refines the
#: fan of a 2N-gon, 2N >= 8, to over 260,000 raw nodes), and those
#: `green_kernel` accepts, 1..GREEN_MAX_LEVEL, a level policy for the Green
#: report; GREEN_BYTES_CAP bounds the 8 N N bytes of `GreenKernel.matrix`.
#: All three are read at call time.
MAX_LEVEL = 6
GREEN_MAX_LEVEL = 5
GREEN_BYTES_CAP = 1_600_000_000

#: columns per LU solve of G's orbit rows (`apply_D` solves its whole
#: stack at once): the right-hand side and the solution are N x GREEN_BLOCK.
#: On a 2-vCPU Xeon the 289 level-4 orbit rows took 73-81 ms at widths 4-64
#: (78 ms at 8), 107 ms at width 289 and 132 ms one column at a time
#: (column-major right-hand sides, medians of 9)
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
    m = w / aw * np.tanh(np.arctanh(aw) / 2)
    return (m + z1) / (1 + np.conj(z1) * m)


def check_level(level: int):
    """The one range of mesh levels, 1..MAX_LEVEL."""
    if level < 1:
        raise ValueError("mesh level must be at least 1")
    if level > MAX_LEVEL:
        raise MeshBudget("mesh level %d is above MAX_LEVEL %d" % (level, MAX_LEVEL))


def check_green_level(level: int):
    """Raise KernelBudget above GREEN_MAX_LEVEL; `green_kernel` checks it too."""
    if level > GREEN_MAX_LEVEL:
        raise KernelBudget("mesh level %d is above the Green kernel's GREEN_MAX_LEVEL %d"
                           % (level, GREEN_MAX_LEVEL))


def _edges(tris, n):
    """Endpoints and key min*n + max of every triangle edge; edge e of
    triangle t, one of (i, j), (j, k), (k, i), sits at 3t + e."""
    i, j = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    return i, j, np.minimum(i, j) * n + np.maximum(i, j)


def _build_raw(group: FuchsianGroup, passes: int):
    """Subdivide the center fan over the polygon's vertices `passes` times;
    returns (nodes, triangles, sides), sides[t, e] the polygon side of edge e
    of triangle t (see `_edges`), or -1 inside.

    Each pass adds one node per edge, numbered by first use in edge order,
    and splits triangle (i, j, k) with edge midpoints a, b, c into (i, a, c),
    (a, j, b), (c, b, k), (a, b, c).  The fan's edge from vertex s to s + 1
    is side s + 1, split at hyperbolic midpoints into halves on side s + 1.
    """
    n = len(group.vertices)
    nodes = np.array([0j] + [complex(v) for v in group.vertices])
    tris = np.array([(0, 1 + s, 1 + (s + 1) % n) for s in range(n)])
    sides = np.array([(-1, (s + 1) % n, -1) for s in range(n)])
    for _ in range(passes):
        i, j, keys = _edges(tris, len(nodes))
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)                   # new nodes by first use
        a, b = i[first[order]], j[first[order]]
        mid = (nodes[a] + nodes[b]) / 2
        for e in np.flatnonzero(sides.flat[first[order]] >= 0):   # scalar: arrays move 1 ulp
            mid[e] = _hyp_mid(complex(nodes[a[e]]), complex(nodes[b[e]]))
        m = len(nodes) + np.argsort(order)[inv].reshape(-1, 3)
        nodes = np.concatenate([nodes, mid])
        tris = np.c_[tris, m][:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]].reshape(-1, 3)
        sides = np.c_[sides, np.full(len(sides), -1)][:, [0, 3, 2, 0, 1, 3, 3, 1, 2, 3, 3, 3]]
        sides = sides.reshape(-1, 3)
    return nodes, tris, sides


def _area_weights(nodes, tris):
    """Lumped hyperbolic-area weights by 7-point quadrature per triangle.

    Each raw triangle's corners sum their seven terms in quadrature-point
    order, and the (M, 3) corner sums are then summed into the nodes in
    (triangle, corner) order.
    """
    zi, zj, zk = nodes[tris].T
    A = np.abs((zj - zi).real * (zk - zi).imag - (zj - zi).imag * (zk - zi).real) / 2
    corners = np.zeros(tris.shape)
    for L, qw in zip(_QUAD_PTS, _QUAD_WTS):
        z = L[0] * zi + L[1] * zj + L[2] * zk
        sig = 4 / (1 - np.hypot(z.real, z.imag) ** 2) ** 2   # hypot: as abs(complex)
        corners += np.multiply.outer(qw * A * sig, L)
    return np.bincount(tris.ravel(), corners.ravel(), len(nodes))


def _stiffness(nodes, tris, glued, n):
    """Flat P1 cotangent stiffness matrix (conformally invariant): the local
    matrix of each raw triangle `tris` summed into its glued classes `glued`,
    scattered by int32 indices, as the sparse matrix stores them."""
    g = np.asarray(glued, dtype=np.int32)
    p = np.stack([nodes.real, nodes.imag], axis=-1)[tris]  # (M, 3, 2)
    e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    A = np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]) / 2
    Kloc = (e @ e.transpose(0, 2, 1)) / (4 * A)[:, None, None]
    return sp.csc_matrix((Kloc.ravel(), (np.repeat(g, 3, axis=1).ravel(),
                                         np.tile(g, 3).ravel())), shape=(n, n))


def _glue(group: FuchsianGroup, nodes, tris, sides):
    """The root raw node of each node's glued class.  `side_pairings[s + N]`
    carries side s + N, the endpoints of the edges `sides` puts on it, onto
    side s; each side s + N node's class joins, root to root, its image's."""
    on = np.flatnonzero(sides >= 0)
    ends, side = np.stack(_edges(tris, len(nodes))[:2], axis=1)[on], sides.flat[on]
    n = len(group.generators)
    parent = np.arange(len(nodes))
    for s in range(n):
        src, tgt = np.unique(ends[side == s + n]), np.unique(ends[side == s])
        d = np.abs(nodes[tgt] - act(group.side_pairings[s + n], nodes[src])[:, None])
        gap = d.min(axis=1).max()
        if not gap <= 1e-9:
            raise WpcurvError("side pairing failed to match boundary node (gap %g)" % gap)
        parent[parent[src]] = parent[tgt[d.argmin(axis=1)]]     # root to root
        for _ in range(int(np.log2(len(nodes))) + 1):     # log2 N jumps flatten any chain
            parent = parent[parent]
    return parent


@dataclass
class DiscreteSurface:
    """Glued quadrature nodes, weights, triangles and operators, over the raw mesh."""

    level: int
    nodes: np.ndarray            # representative disk coordinate per class
    weights: np.ndarray          # lumped hyperbolic-area weights
    stiffness: sp.spmatrix       # glued flat stiffness K (Delta_h = -M^-1 K)
    triangles: np.ndarray = field(repr=False)   # (M, 3) glued node indices
    raw_nodes: np.ndarray = field(repr=False)   # refined polygon, unglued
    gid: np.ndarray = field(repr=False)         # glued class of each raw node
    group: FuchsianGroup = field(repr=False)    # the group whose polygon was meshed
    # not an init field, so a surface made by `dataclasses.replace` starts unfactored
    _lu: object = field(default=None, init=False, repr=False)

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
    """Triangulate, weight and glue the group's fundamental 2N-gon.

    `level` (see `check_level`) counts refinement passes beyond the base
    mesh (the once-refined fan), so the triangle count is 2N * 4**(level+1).
    """
    check_level(level)
    nodes, tris, sides = _build_raw(group, level + BASE_REFINEMENTS)
    reps, gid = np.unique(_glue(group, nodes, tris, sides), return_inverse=True)
    weights = np.bincount(gid, _area_weights(nodes, tris))
    if not np.all(weights > 0):
        raise SingularMass("non-positive lumped weight")
    glued = gid[tris]
    return DiscreteSurface(
        level=level, nodes=nodes[reps], weights=weights,
        stiffness=_stiffness(nodes, tris, glued, len(reps)),
        triangles=glued, raw_nodes=nodes, gid=gid, group=group)


def apply_D(surface: DiscreteSurface, f, *, rtol: float = 1e-10):
    """Resolvent D f = -2 (Delta_h - 2)^-1 f via (K + 2M) u = 2 M f.

    f is a real node function (N,) or a stack of them (N, k), solved in one
    LU solve; complex input raises TypeError (a caller solves its real and
    imaginary parts).  The weighted residual of (Delta_h - 2) u = -2 f is
    checked column by column against rtol.
    """
    f = np.asarray(f)
    X = f.reshape(len(f), -1)
    w = surface.weights[:, None]
    U = surface.factorization().solve(2 * w * X)
    resid = -(surface.stiffness @ U) / w - 2 * U + 2 * X
    rel = (np.sqrt(surface.inner(resid, resid))
           / np.maximum(np.sqrt(surface.inner(X, X)), 1e-300))
    if not rel.max() <= rtol:
        raise SolverFailure("worst relative resolvent residual %.3g exceeds rtol %.3g"
                            % (rel.max(), rtol))
    return U.reshape(f.shape)


@dataclass
class GreenKernel:
    """G = 2 (K + 2M)^-1, with (Df)(p) = sum_q G[p,q] w_q f(q), kept as the
    node maps that carry it onto itself and its report.

    Row g of `perms` holds the image g(k) of each node k under a certified
    map, and G[g(i), g(j)] = G[i, j].  Every node is g(r) for a
    representative r (`_representatives`, the least node of each orbit)
    and some map g, so G is the rows at the representatives under the
    maps: G[g(r), g(k)] = G[r, k].
    """

    surface: DiscreteSurface = field(repr=False)
    perms: np.ndarray
    report: dict

    @cached_property
    def matrix(self):
        """The dense N x N matrix G, within GREEN_BYTES_CAP, from one pass of
        the report's solve blocks, bit for bit the rows its report read: the
        tests' reference, never built on the check path.  Each block row r
        goes to G[g(r), g(:)] for every map g, the maps last to first, so a
        node that several maps reach from r keeps the first map's row."""
        n = self.perms.shape[1]
        if 8 * n * n > GREEN_BYTES_CAP:
            raise KernelBudget("dense kernel needs %d bytes > cap %d"
                               % (8 * n * n, GREEN_BYTES_CAP))
        G = np.empty((n, n))
        reps = _representatives(self.perms)
        for lo, block in _orbit_blocks(self.surface, reps):
            for p in self.perms[::-1]:
                G[p[reps[lo:lo + len(block)], None], p] = block
        return G


def _symmetries(surface: DiscreteSurface) -> np.ndarray:
    """Node permutations of the dihedral maps that the surface has.

    Only z -> e^{2 pi i/2N} z, 2N the group's `rotation_order`, and
    z -> conj(z) are certified: a generator is kept only if it carries the
    raw nodes one to one onto raw nodes (to 1e-9), induces a well-defined map
    of the glued classes, and preserves w and K to 1e-12 relative; it then
    fixes G as well, and so does every composition of kept generators.  Row g
    holds the image of each glued node under map g, in the order identity,
    the rotations by 2 pi k/2N (k = 1..2N-1), then z -> e^{2 pi i k/2N}
    conj(z) (k = 0..2N-1).  If one generator fails, the rows are the subgroup
    the other generates; on such a surface a map that neither generates (say
    a reflection in another axis) is not looked for, and G is solved over the
    smaller group, which is correct, only slower.
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
        return perm if abs(K[perm][:, perm] - K).max() <= 1e-12 * abs(K).max() else None

    two_n = surface.group.rotation_order
    rotate = certified(np.exp(2j * np.pi / two_n) * raw)
    reflect = certified(raw.conj())
    perms = [np.arange(len(w))]
    if rotate is not None:          # e^{2 pi i k/2N} z, as rotate applied k times
        for _ in range(two_n - 1):
            perms.append(rotate[perms[-1]])
    if reflect is not None:         # e^{2 pi i k/2N} conj(z) = rotation k after conj
        perms += [p[reflect] for p in perms[:two_n]]
    return np.array(perms)


def _representatives(perms: np.ndarray) -> np.ndarray:
    """The least node of each orbit of the maps `perms`, in increasing order."""
    return np.flatnonzero(perms.min(axis=0) == np.arange(perms.shape[1]))


def _orbit_blocks(surface: DiscreteSurface, reps: np.ndarray):
    """Rows reps[lo:lo + GREEN_BLOCK] of G as (lo, block) pairs, one
    untransposed LU solve each: the block is the solution of
    (K + 2M) X = 2 E, E the identity's columns reps[lo:lo + GREEN_BLOCK],
    built column-major, the layout SuperLU solves without a copy."""
    n, lu = surface.num_nodes, surface.factorization()
    for lo in range(0, len(reps), GREEN_BLOCK):
        r = reps[lo:lo + GREEN_BLOCK]
        rhs = np.zeros((n, len(r)), order="F")
        rhs[r, np.arange(len(r))] = 2.0
        yield lo, lu.solve(rhs).T


def green_kernel(surface: DiscreteSurface) -> GreenKernel:
    """Green kernel G = 2 (K + 2M)^-1 as its node maps, with a report taken
    in one pass over its rows at the representatives.

    G is solved once per symmetry orbit of the nodes: the least node r of
    each orbit gets row r of G as column r, GREEN_BLOCK representatives
    per untransposed LU solve (`_orbit_blocks`).  Precondition: K + 2M
    equals its transpose bit for bit (an off-diagonal entry of K sums at
    most two symmetric local terms and M is diagonal; the tests check it
    at levels 1-5), so G is symmetric and its columns are its rows.
    SuperLU does the untransposed solve by supernodes and the transposed
    one column by column.  Every other row is a representative's row
    under a certified map of `_symmetries`, G[g(r), g(:)] = G[r, :].
    `check_green_level` limits the level; no whole table of the rows is
    kept, and `GreenKernel.matrix` solves them again.

    The report reads each solved block once, over every (representative,
    map) pair.  The extremes run over the blocks, since every entry of G is
    an entry of a representative's row.  `rowsum_err` takes (G w)(g(r_t))
    as (block @ w[perms].T)[t - lo, g], lo the block's first row; the BLAS
    orders that product's sums, so another BLAS may move it at roundoff,
    about 1e7 below its gate.  `asymmetry_rel` compares, for each triple
    (r_t, g, r_u), G[r_t, g(r_u)] with its mirror G[r_u, g^-1(r_t)], never
    taken from a transpose.  A map h with i = h(r_t) carries the pair
    {i, j} onto {r_t, h^-1(j)}, and h^-1(j) = g(r_u) for some g and u, so
    the triples cover every pair, plus the maps that fix a node.  A triple
    and (r_u, g^-1, r_t) compare the same pair, so the triples with u <= t
    suffice: a block's rows t meet the representatives u before its end,
    whose mirror entries come from this block and from earlier blocks.  Each
    block keeps its entries at g^-1 of each later block's representatives,
    one array per later block, dropped once that block is compared: one
    entry per map (4N) per (earlier row, later representative) pair, about
    N R^2 at the peak (4 R^2 on the octagon).  The inverses are per-map
    permutations, not group indices, so a corrupted map table fails the
    check and does not raise."""
    check_green_level(surface.level)
    perms = _symmetries(surface)
    reps = _representatives(perms)
    img, back = perms[:, reps], np.argsort(perms, axis=1)[:, reps]   # g(r_u), g^-1(r_u)
    wp = surface.weights[perms].T
    gmin, gmax, asym, rowsum = np.inf, -np.inf, 0.0, 0.0
    kept = {}       # block start -> G[r_u, g^-1(r_t)] of earlier rows u, as (u, g, t)
    for lo, block in _orbit_blocks(surface, reps):
        hi = lo + len(block)
        gmin, gmax = np.minimum(gmin, block.min()), np.maximum(gmax, block.max())
        rowsum = np.maximum(rowsum, np.abs(block @ wp - 1).max())
        mirror = np.concatenate(kept.pop(lo, []) + [block[:, back[:, lo:hi]]])
        asym = np.maximum(asym, np.abs(block[:, img[:, :hi]] - mirror.T).max())
        for nxt in range(hi, len(reps), GREEN_BLOCK):
            kept.setdefault(nxt, []).append(block[:, back[:, nxt:nxt + GREEN_BLOCK]])
    gmax = np.maximum(gmax, -gmin)
    report = {
        "min_entry": float(gmin),
        "max_entry": float(gmax),
        "asymmetry_rel": float(asym / gmax),
        "rowsum_err": float(rowsum),
    }
    return GreenKernel(surface=surface, perms=perms, report=report)


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


def export_mesh_json(surface: DiscreteSurface, path, *, config_hash=None):
    payload = {
        "level": surface.level,
        "nodes": np.c_[surface.nodes.real, surface.nodes.imag].tolist(),
        "weights": surface.weights.tolist(),
        "triangles": surface.triangles.tolist(),
    }
    return write_json(path, payload, config_hash)
