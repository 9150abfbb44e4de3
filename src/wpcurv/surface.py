"""Discretization of the octagon surface: mesh, quadrature, Laplacian, D.

The fundamental octagon is triangulated by refining the 8-triangle fan
from the center.  Boundary edges are subdivided at *hyperbolic* midpoints
so refined boundary nodes stay on the geodesic sides and the side-pairing
isometries match boundary nodes exactly; interior edges use Euclidean
midpoints.  Paired boundary nodes are then merged (union-find), which
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
right-hand sides, and its Green kernel is G = 2 (K + 2M)^-1, which is
symmetric by construction and satisfies (Df)(p) = sum_q G[p,q] w_q f(q)
exactly in floating point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import KernelBudget, MeshBudget, SingularMass, SolverFailure, WpcurvError
from .fuchsian import FuchsianGroup

#: extra subdivision passes applied to the 8-triangle fan before public
#: level counting starts; the base mesh (level 0) is the once-refined fan
BASE_REFINEMENTS = 1

NODE_CAP_DEFAULT = 200_000
GREEN_BYTES_CAP_DEFAULT = 1_600_000_000

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


def _build_raw(group: FuchsianGroup, passes: int):
    """Subdivide the center fan `passes` times.

    Returns (nodes, triangles, boundary_edges, vertex_ids) where
    boundary_edges maps frozenset{node, node} -> octagon side index.
    Side s has outward midpoint direction s*pi/4 and connects vertices
    (s-1) mod 8 and s mod 8 of the octagon.
    """
    verts = group.vertices
    node_id = {}
    nodes = []

    def nid(z):
        key = (round(z.real, 12), round(z.imag, 12))
        if key not in node_id:
            node_id[key] = len(nodes)
            nodes.append(complex(z))
        return node_id[key]

    center = nid(0j)
    vids = [nid(v) for v in verts]
    tris = [(center, vids[s], vids[(s + 1) % 8]) for s in range(8)]
    bedges = {frozenset((vids[(s - 1) % 8], vids[s % 8])): s for s in range(8)}

    for _ in range(passes):
        newtris = []
        newb = {}
        midcache = {}

        def midpoint(i, j):
            key = frozenset((i, j))
            if key in midcache:
                return midcache[key]
            if key in bedges:
                m = nid(_hyp_mid(nodes[i], nodes[j]))
                s = bedges[key]
                newb[frozenset((i, m))] = s
                newb[frozenset((m, j))] = s
            else:
                m = nid((nodes[i] + nodes[j]) / 2)
            midcache[key] = m
            return m

        for (i, j, k) in tris:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            newtris += [(i, a, c), (a, j, b), (c, b, k), (a, b, c)]
        tris = newtris
        bedges = newb

    return np.array(nodes), tris, bedges, vids


def _area_weights(nodes, tris):
    """Lumped hyperbolic-area weights by 7-point quadrature per triangle."""
    w = np.zeros(len(nodes))
    for (i, j, k) in tris:
        zi, zj, zk = nodes[i], nodes[j], nodes[k]
        area2 = (zj - zi).real * (zk - zi).imag - (zj - zi).imag * (zk - zi).real
        A = abs(area2) / 2
        for (l1, l2, l3), qw in zip(_QUAD_PTS, _QUAD_WTS):
            z = l1 * zi + l2 * zj + l3 * zk
            sig = 4 / (1 - abs(z) ** 2) ** 2
            w[i] += qw * A * sig * l1
            w[j] += qw * A * sig * l2
            w[k] += qw * A * sig * l3
    return w


def _stiffness(nodes, tris, n):
    """Flat P1 cotangent stiffness matrix (conformally invariant)."""
    rows, cols, vals = [], [], []
    for (i, j, k) in tris:
        p = np.array([[nodes[t].real, nodes[t].imag] for t in (i, j, k)])
        e = np.array([p[2] - p[1], p[0] - p[2], p[1] - p[0]])
        area2 = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        A = abs(area2) / 2
        Kloc = (e @ e.T) / (4 * A)
        for a, ia in enumerate((i, j, k)):
            for b, ib in enumerate((i, j, k)):
                rows.append(ia)
                cols.append(ib)
                vals.append(Kloc[a, b])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _glue(group: FuchsianGroup, nodes, bedges):
    """Union-find merging each side s+4 node with its image on side s."""
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    side_nodes = {s: set() for s in range(8)}
    for edge, s in bedges.items():
        for i in edge:
            side_nodes[s].add(i)

    for s in range(4):
        g = group.generators[s]          # carries side s+4 onto side s
        src = np.array(sorted(side_nodes[s + 4]))
        tgt = np.array(sorted(side_nodes[s]))
        imgs = g.apply(nodes[src])
        for i, zz in zip(src, np.atleast_1d(imgs)):
            d = np.abs(nodes[tgt] - zz)
            if d.min() > 1e-9:
                raise WpcurvError(
                    "side pairing failed to match boundary node (gap %g)" % d.min())
            parent[find(i)] = find(int(tgt[np.argmin(d)]))
    return find


@dataclass
class DiscreteSurface:
    """Glued quadrature nodes, weights, triangles, and operators."""

    level: int
    nodes: np.ndarray            # representative disk coordinate per class
    weights: np.ndarray          # lumped hyperbolic-area weights
    triangles: list              # glued index triples
    identification: dict         # representative index -> raw node indices
    stiffness: sp.spmatrix = None
    _raw: tuple = field(default=None, repr=False)
    _lu: object = field(default=None, repr=False)

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def area(self):
        return float(self.weights.sum())

    def euler_characteristic(self):
        edges = set()
        for (i, j, k) in self.triangles:
            edges.update((frozenset((i, j)), frozenset((j, k)), frozenset((k, i))))
        return self.num_nodes - len(edges) + len(self.triangles)

    def inner(self, f, g):
        """Weighted inner product sum_p w_p f_p conj(g_p)."""
        return np.sum(self.weights * f * np.conj(g))

    def apply_laplacian(self, f):
        """Delta_h f = -M^-1 K f (non-positive spectrum convention)."""
        if self.stiffness is None:
            raise RuntimeError("laplacian not assembled")
        return -(self.stiffness @ f) / self.weights

    def factorization(self):
        """Sparse LU of (K + 2M), built once and reused."""
        if self._lu is None:
            if self.stiffness is None:
                raise RuntimeError("laplacian not assembled")
            A = (self.stiffness + 2 * sp.diags(self.weights)).tocsc()
            self._lu = spla.splu(A)
        return self._lu


def build_mesh(group: FuchsianGroup, level: int, *,
               node_cap: int = NODE_CAP_DEFAULT) -> DiscreteSurface:
    """Triangulate, weight and glue the fundamental octagon.

    `level` in [1, 8] counts refinement passes beyond the base mesh (the
    once-refined fan), so the triangle count is 8 * 4**(level+1).
    """
    if not 1 <= level <= 8:
        raise ValueError("mesh level must be in [1, 8]")
    nodes, tris, bedges, _ = _build_raw(group, level + BASE_REFINEMENTS)
    if len(nodes) > node_cap:
        raise MeshBudget("raw node count %d exceeds cap %d" % (len(nodes), node_cap))

    w_raw = _area_weights(nodes, tris)
    find = _glue(group, nodes, bedges)

    reps = sorted({find(i) for i in range(len(nodes))})
    rmap = {r: i for i, r in enumerate(reps)}
    gid = np.array([rmap[find(i)] for i in range(len(nodes))])

    weights = np.zeros(len(reps))
    np.add.at(weights, gid, w_raw)

    identification = {}
    for i in range(len(nodes)):
        identification.setdefault(int(gid[i]), []).append(i)

    glued_tris = [(int(gid[i]), int(gid[j]), int(gid[k])) for (i, j, k) in tris]

    surf = DiscreteSurface(
        level=level,
        nodes=np.array([nodes[r] for r in reps]),
        weights=weights,
        triangles=glued_tris,
        identification=identification,
        _raw=(nodes, tris, gid),
    )
    assemble_laplacian(surf)
    return surf


def assemble_laplacian(surface: DiscreteSurface) -> None:
    """Assemble the glued stiffness matrix (Delta_h = -M^-1 K)."""
    nodes, tris, gid = surface._raw
    if np.any(surface.weights <= 0):
        raise SingularMass("non-positive lumped weight")
    K0 = _stiffness(nodes, tris, len(nodes))
    P = sp.csr_matrix((np.ones(len(nodes)), (np.arange(len(nodes)), gid)),
                      shape=(len(nodes), surface.num_nodes))
    K = (P.T @ K0 @ P).tocsc()
    surface.stiffness = K
    surface._lu = None


def apply_D(surface: DiscreteSurface, f, *, rtol: float = 1e-10):
    """Resolvent D f = -2 (Delta_h - 2)^-1 f via (K + 2M) u = 2 M f.

    Complex input is solved through its real and imaginary parts.  The
    weighted residual of (Delta_h - 2) u = -2 f is checked against rtol.
    """
    f = np.asarray(f)
    lu = surface.factorization()
    w = surface.weights
    if np.iscomplexobj(f):
        u = lu.solve(2 * w * f.real) + 1j * lu.solve(2 * w * f.imag)
    else:
        u = lu.solve(2 * w * f)
    resid = surface.apply_laplacian(u) - 2 * u + 2 * f
    rnorm = np.sqrt(abs(surface.inner(resid, resid)))
    fnorm = np.sqrt(abs(surface.inner(f, f)))
    if rnorm > rtol * max(fnorm, 1e-300):
        raise SolverFailure(
            "resolvent residual %.3g exceeds %.3g relative" % (rnorm, rtol * fnorm))
    return u


@dataclass
class GreenKernel:
    """Dense matrix G with (Df)(p) = sum_q G[p,q] w_q f(q)."""

    matrix: np.ndarray
    report: dict

    def apply(self, surface, f):
        return self.matrix @ (surface.weights * f)


def green_kernel(surface: DiscreteSurface, *,
                 bytes_cap: int = GREEN_BYTES_CAP_DEFAULT) -> GreenKernel:
    """Dense Green kernel G = 2 (K + 2M)^-1 with a validation report."""
    n = surface.num_nodes
    if 8 * n * n > bytes_cap:
        raise KernelBudget("dense kernel needs %d bytes > cap %d"
                           % (8 * n * n, bytes_cap))
    lu = surface.factorization()
    G = lu.solve(2 * np.eye(n))
    gmax = np.abs(G).max()
    report = {
        "min_entry": float(G.min()),
        "max_entry": float(gmax),
        "asymmetry_rel": float(np.abs(G - G.T).max() / gmax),
        "rowsum_err": float(np.abs(G @ surface.weights - 1).max()),
    }
    return GreenKernel(matrix=G, report=report)


def laplacian_eigenvalues(surface: DiscreteSurface, k: int = 6) -> np.ndarray:
    """Lowest k eigenvalues of -Delta_h (generalized problem K x = lam M x)."""
    M = sp.diags(surface.weights).tocsc()
    vals = spla.eigsh(surface.stiffness, k=k, M=M, sigma=0, which="LM",
                      return_eigenvectors=False)
    return np.sort(vals)


def node_hash(surface: DiscreteSurface) -> str:
    return hashlib.sha256(np.ascontiguousarray(surface.nodes).tobytes()).hexdigest()


def export_mesh_json(surface: DiscreteSurface, path):
    payload = {
        "level": surface.level,
        "nodes": [[z.real, z.imag] for z in surface.nodes],
        "weights": list(surface.weights),
        "triangles": [list(t) for t in surface.triangles],
        "identification": {str(k): v for k, v in surface.identification.items()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return payload


def export_green(kernel: GreenKernel, surface: DiscreteSurface, prefix):
    """Row-major float64 dump plus a JSON sidecar; reload is bit-exact."""
    mat = np.ascontiguousarray(kernel.matrix, dtype=np.float64)
    with open(str(prefix) + ".bin", "wb") as fh:
        fh.write(mat.tobytes())
    sidecar = {
        "shape": list(mat.shape),
        "dtype": "float64",
        "order": "C",
        "node_hash": node_hash(surface),
        "report": kernel.report,
    }
    with open(str(prefix) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_green(prefix) -> GreenKernel:
    with open(str(prefix) + ".json") as fh:
        sidecar = json.load(fh)
    shape = tuple(sidecar["shape"])
    with open(str(prefix) + ".bin", "rb") as fh:
        mat = np.frombuffer(fh.read(), dtype=np.float64).reshape(shape)
    return GreenKernel(matrix=mat, report=sidecar["report"])
