"""Mesh, quadrature, Laplacian, resolvent and Green-kernel tests."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcurv import checks, surface
from wpcurv.errors import KernelBudget, MeshBudget, SingularMass, SolverFailure
from wpcurv.fuchsian import act, octagon_group

from oracle import _symmetries_by_candidates


def test_level_bounds(group):
    for bad in (0, 7, 9):           # level 7 needs 263,169 raw nodes > NODE_CAP
        with pytest.raises(ValueError):
            surface.build_mesh(group, bad)


def test_mesh_budget(group, monkeypatch):
    monkeypatch.setattr(surface, "NODE_CAP", 10)
    with pytest.raises(MeshBudget):
        surface.build_mesh(group, 3)


def test_triangle_count(group, surf3):
    assert len(surf3.triangles) == 8 * 4 ** 4


def test_area_convergence(group, surf4):
    target = 4 * np.pi
    coarse = surface.build_mesh(group, 1)
    assert abs(coarse.area - target) / target < 0.05
    assert abs(surf4.area - target) / target < 0.005


def test_euler_characteristic(surf3):
    assert surf3.euler_characteristic() == -2


def test_corner_class(group, surf3):
    """All 8 octagon corners are glued into one class of the quotient."""
    rv = np.abs(group.vertices[0])
    corner_classes = np.unique(surf3.gid[np.abs(np.abs(surf3.raw_nodes) - rv) < 1e-12])
    assert len(corner_classes) == 1
    assert np.bincount(surf3.gid)[corner_classes[0]] == 8


def test_boundary_nodes_pair_two_to_one(surf3):
    """Every non-corner boundary class contains exactly two raw nodes."""
    sizes = np.sort(np.bincount(surf3.gid))
    sizes = sizes[sizes > 1].tolist()
    assert sizes[-1] == 8          # the corner class
    assert set(sizes[:-1]) == {2}  # all other glued classes are side pairs


def test_stiffness_annihilates_constants(surf3):
    r = np.abs(surf3.stiffness @ np.ones(surf3.num_nodes))
    assert r.max() < 1e-9 * np.abs(surf3.stiffness.data).max()


def test_laplacian_nonpositive(surf3):
    """Delta_h f = -M^-1 K f has a non-positive quadratic form."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.standard_normal(surf3.num_nodes)
        val = surf3.inner(-(surf3.stiffness @ f) / surf3.weights, f).real
        assert val <= 1e-9 * surf3.inner(f, f).real


def test_low_eigenvalues(surf3, surf4):
    """lambda_0 = 0; the first nonzero eigenvalue is positive, appears with
    multiplicity 3 (octagon symmetry), and is stable under refinement."""
    ev3 = surface.laplacian_eigenvalues(surf3, k=5)
    ev4 = surface.laplacian_eigenvalues(surf4, k=5)
    assert abs(ev3[0]) < 1e-8
    assert ev3[1] > 1.0
    # the mesh keeps only the dihedral symmetry, so the continuum triple
    # eigenvalue splits by O(h^2); the cluster width shrinks on refinement
    width3 = np.abs(ev3[1:4] - ev3[1]).max()
    width4 = np.abs(ev4[1:4] - ev4[1]).max()
    assert width3 < 0.02 * ev3[1]
    assert width4 < width3 / 2
    assert np.abs(ev3[1:] - ev4[1:]).max() < 0.03 * ev4[1]


def test_eigensolve_reuses_factorization(surf3, monkeypatch):
    """Once K + 2M is factored, the eigensolve factors nothing, and it
    matches a shift-invert about 0 (which factors the singular K)."""
    import scipy.sparse.linalg as spla
    from scipy.sparse.linalg._eigen.arpack import arpack

    M = sp.diags(surf3.weights).tocsc()
    ref = np.sort(spla.eigsh(surf3.stiffness, k=6, M=M, sigma=0, which="LM",
                             return_eigenvectors=False))
    surf3.factorization()
    calls, splu = [], spla.splu

    def spy(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    for module in (spla, arpack):       # eigsh reads arpack's own name
        monkeypatch.setattr(module, "splu", spy)
    vals = surface.laplacian_eigenvalues(surf3)
    assert not calls
    assert np.abs(vals - ref).max() <= 1e-10


def test_eigensolve_is_reproducible(surf3):
    """ARPACK starts from a fixed vector, so two calls agree bit for bit."""
    a = surface.laplacian_eigenvalues(surf3)
    b = surface.laplacian_eigenvalues(surf3)
    assert np.array_equal(a, b)


def test_factor_fill_is_pinned_and_solves_the_system(surf3, surf4):
    """The cached LU of K + 2M keeps the fill of a symmetric ordering (COLAMD
    leaves 79,978 and 487,614 entries at levels 3 and 4) and solves an
    (N, 8) stack to roundoff."""
    for surf, cap in ((surf3, 60_000), (surf4, 320_000)):
        lu = surf.factorization()
        assert lu.L.nnz + lu.U.nnz <= cap
    A = surf4.stiffness + 2 * sp.diags(surf4.weights)
    B = np.random.default_rng(5).standard_normal((surf4.num_nodes, 8))
    X = surf4.factorization().solve(B)
    assert np.linalg.norm(A @ X - B) <= 1e-12 * np.linalg.norm(B)


def test_resolvent_fixes_constants(surf3):
    u = surface.apply_D(surf3, np.ones(surf3.num_nodes))
    assert np.abs(u - 1).max() < 1e-10


def test_resolvent_of_zero(surf3):
    u = surface.apply_D(surf3, np.zeros(surf3.num_nodes))
    assert np.abs(u).max() == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_resolvent_self_adjoint_positive(surf3, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(surf3.num_nodes)
    g = rng.standard_normal(surf3.num_nodes)
    Df = surface.apply_D(surf3, f)
    Dg = surface.apply_D(surf3, g)
    scale = np.sqrt(surf3.inner(f, f).real * surf3.inner(g, g).real)
    assert abs(surf3.inner(Df, g) - surf3.inner(f, Dg)) < 1e-10 * scale
    assert surf3.inner(Df, f).real > -1e-10 * surf3.inner(f, f).real


def test_resolvent_spectral_mapping(surf3):
    """On an eigenfunction with -Delta phi = lam phi, D acts as the scalar
    2/(lam + 2)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    M = sp.diags(surf3.weights).tocsc()
    lam, vec = spla.eigsh(surf3.stiffness, k=5, M=M, sigma=0, which="LM")
    order = np.argsort(lam)
    for idx in order:
        phi = vec[:, idx]
        expected = 2.0 / (lam[idx] + 2.0) * phi
        got = surface.apply_D(surf3, phi)
        assert np.abs(got - expected).max() < 1e-8 * np.abs(phi).max()


def test_green_matches_resolvent(surf3, green3):
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = rng.standard_normal(surf3.num_nodes)
        direct = surface.apply_D(surf3, f)
        via_kernel = green3.matmat(surf3.weights * f)
        assert np.abs(direct - via_kernel).max() < 1e-8 * np.abs(direct).max()


def test_green_blocked_report_equals_full_matrix_formulas(surf3, green3):
    """The blocked solve agrees with one dense solve, and the report read
    off the solved rows, over all 16 maps at level 3, with the full-matrix
    formulas."""
    G = green3.matrix
    assert len(np.unique(green3.map_of)) == 16
    gmax = np.abs(G).max()
    rep = dict(green3.report)
    rowsum = rep.pop("rowsum_err")
    assert rep == {
        "min_entry": float(G.min()),
        "max_entry": float(gmax),
        "asymmetry_rel": float(np.abs(G - G.T).max() / gmax),
    }
    assert rowsum == float(np.abs(green3.matmat(surf3.weights) - 1).max())
    assert abs(rowsum - np.abs(G @ surf3.weights - 1).max()) <= 1e-14
    dense = surf3.factorization().solve(2 * np.eye(surf3.num_nodes))
    assert np.abs(G - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("level", [3, 4])
def test_green_kernel_applies_D_to_roundoff(level, surf3, surf4, green3):
    """sum_q G[p,q] w_q f(q) = (Df)(p) holds to roundoff, not exactly."""
    surf = surf3 if level == 3 else surf4
    green = green3 if level == 3 else surface.green_kernel(surf4)
    rng = np.random.default_rng(level)
    for _ in range(5):
        f = rng.standard_normal(surf.num_nodes)
        direct = surface.apply_D(surf, f)
        err = np.abs(green.matmat(surf.weights * f) - direct).max()
        assert err <= 1e-13 * np.abs(direct).max()
    F = rng.standard_normal((surf.num_nodes, 2))
    direct = surface.apply_D(surf, F)
    err = np.abs(green.matmat(surf.weights[:, None] * F) - direct).max()
    assert err <= 1e-13 * np.abs(direct).max()


def _mesh(group, surf3, surf4, level):
    return {3: surf3, 4: surf4}.get(level) or surface.build_mesh(group, level)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_raw_nodes_distinct(level, group, surf3, surf4):
    """Each edge midpoint is a new node: no two raw nodes lie within 1e-9."""
    from scipy.spatial import cKDTree

    raw = _mesh(group, surf3, surf4, level).raw_nodes
    assert not cKDTree(np.c_[raw.real, raw.imag]).query_pairs(1e-9)


def test_mesh_loops_match_per_triangle_reference(surf3):
    """The vectorized weights and stiffness against per-triangle loops."""
    nodes, tris = surf3.raw_nodes, surf3.raw_triangles
    w = np.zeros(len(nodes))
    rows, cols, vals = [], [], []
    for (i, j, k) in tris:
        p = np.array([[nodes[t].real, nodes[t].imag] for t in (i, j, k)])
        e = np.array([p[2] - p[1], p[0] - p[2], p[1] - p[0]])
        A = abs(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]) / 2
        Kloc = (e @ e.T) / (4 * A)
        for a, ia in enumerate((i, j, k)):
            for b, ib in enumerate((i, j, k)):
                rows.append(ia)
                cols.append(ib)
                vals.append(Kloc[a, b])
        for (l1, l2, l3), qw in zip(surface._QUAD_PTS, surface._QUAD_WTS):
            z = l1 * nodes[i] + l2 * nodes[j] + l3 * nodes[k]
            sig = 4 / (1 - abs(z) ** 2) ** 2
            for ia, la in zip((i, j, k), (l1, l2, l3)):
                w[ia] += qw * A * sig * la
    K = sp.csr_matrix((vals, (rows, cols)), shape=(len(nodes),) * 2)
    K_new = surface._stiffness(nodes, tris, len(nodes))
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K_new, attr), getattr(K, attr))
    # the squares are rounded once here, but through pow in the loop
    assert np.abs(surface._area_weights(nodes, tris) - w).max() <= 1e-15 * w.max()


def _reference_mesh(group, passes):
    """Per-triangle refinement over edge dicts, then a sequential union-find
    over the side pairings: (raw nodes, raw triangles, gid)."""
    nodes = [0j] + [complex(v) for v in group.vertices]
    tris = [(0, 1 + s, 1 + (s + 1) % 8) for s in range(8)]
    bedges = {frozenset((1 + (s - 1) % 8, 1 + s)): s for s in range(8)}   # edge -> side
    for _ in range(passes):
        mids, newb, newtris = {}, {}, []
        for (i, j, k) in tris:
            for (p, q) in ((i, j), (j, k), (k, i)):
                key = frozenset((p, q))
                if key in mids:
                    continue
                mids[key] = m = len(nodes)
                if key in bedges:
                    nodes.append(complex(surface._hyp_mid(nodes[p], nodes[q])))
                    newb[frozenset((p, m))] = newb[frozenset((m, q))] = bedges[key]
                else:
                    nodes.append((nodes[p] + nodes[q]) / 2)
            a, b, c = (mids[frozenset(e)] for e in ((i, j), (j, k), (k, i)))
            newtris += [(i, a, c), (a, j, b), (c, b, k), (a, b, c)]
        tris, bedges = newtris, newb

    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def side(s):
        return sorted({i for edge, t in bedges.items() if t == s for i in edge})

    for s in range(4):
        tgt = side(s)
        imgs = act(group.generators[s], np.array([nodes[i] for i in side(s + 4)]))
        for i, z in zip(side(s + 4), imgs):
            d = [abs(nodes[t] - z) for t in tgt]
            assert min(d) < 1e-9
            parent[find(i)] = find(tgt[int(np.argmin(d))])
    roots = [find(i) for i in range(len(nodes))]
    index = {r: n for n, r in enumerate(sorted(set(roots)))}
    return np.array(nodes), np.array(tris), np.array([index[r] for r in roots])


@pytest.mark.parametrize("level", [1, 2, 3])
def test_mesh_arrays_match_per_triangle_reference(level, group, surf3, surf4):
    """Refinement and gluing over index arrays against dict-based loops:
    the same nodes in the same order, triangles and glued classes."""
    surf = _mesh(group, surf3, surf4, level)
    nodes, tris, gid = _reference_mesh(group, level + surface.BASE_REFINEMENTS)
    assert np.array_equal(surf.raw_nodes, nodes)
    assert np.array_equal(surf.raw_triangles, tris)
    assert np.array_equal(surf.gid, gid)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_symmetries_form_the_dihedral_group(level, group, surf3, surf4):
    surf = _mesh(group, surf3, surf4, level)
    perms = surface._symmetries(surf)
    n = surf.num_nodes
    found = {tuple(p) for p in perms}
    assert len(perms) == len(found) == 16
    assert tuple(range(n)) in found
    assert all(tuple(a[b]) in found for a in perms for b in perms)
    K, w = surf.stiffness, surf.weights
    for p in perms:
        assert np.abs(w[p] - w).max() <= 1e-12 * w.max()
        assert abs(K[p][:, p] - K).max() <= 1e-12 * abs(K).max()


def _axis_node(surf):
    """A glued node on the positive real axis, fixed only by the identity
    and z -> conj(z)."""
    z = surf.nodes
    return int(np.flatnonzero((abs(z.imag) < 1e-12) & (z.real > 0.1) & (z.real < 0.5))[0])


def _bent(surf, kind):
    """`surf` with one node's weight, or its row and column of K, scaled by
    1 + 1e-6."""
    scale = np.ones(surf.num_nodes)
    scale[_axis_node(surf)] += 1e-6
    if kind == "weight":
        return dataclasses.replace(surf, weights=surf.weights * scale, _lu=None)
    S = sp.diags(scale)
    return dataclasses.replace(surf, stiffness=(S @ surf.stiffness @ S).tocsc(), _lu=None)


@pytest.mark.parametrize("case", ["L1", "L2", "L3", "L4", "bent-weight", "bent-stiffness"])
def test_generated_symmetries_match_candidate_oracle(case, group, surf3, surf4):
    """The maps composed from the two certified generators are the maps the
    16 separate certificates keep: the same rows in the same order."""
    if case.startswith("bent"):
        surf = _bent(surf3, case.split("-")[1])
    else:
        surf = _mesh(group, surf3, surf4, int(case[1]))
    perms = surface._symmetries(surf)
    assert np.array_equal(perms, _symmetries_by_candidates(surf))
    assert len(perms) == (2 if case.startswith("bent") else 16)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_stiffness_plus_mass_is_bitwise_symmetric(level, group, surf3, surf4):
    """The untransposed orbit solve gives rows of G because K + 2M equals
    its transpose bit for bit."""
    surf = _mesh(group, surf3, surf4, level)
    A = (surf.stiffness + 2 * sp.diags(surf.weights)).tocsc()
    assert (A - A.T).count_nonzero() == 0


def test_orbit_rows_are_rows_of_the_dense_inverse(surf3, green3):
    A = (surf3.stiffness + 2 * sp.diags(surf3.weights)).toarray()
    G = 2 * np.linalg.inv(A)
    reps = np.flatnonzero(green3.map_of == 0)        # the identity maps only these
    assert np.array_equal(green3.row_of[reps], np.arange(len(reps)))
    assert np.abs(green3.rows - G[reps]).max() <= 1e-14 * np.abs(G).max()


def test_planted_asymmetry_shrinks_group_to_stabilizer(surf3):
    """One weight off by 1e-6: only the maps fixing that node survive, and
    G is still the full solve's."""
    z = surf3.nodes
    node = int(np.flatnonzero((abs(z.imag) < 1e-12) & (z.real > 0.1) & (z.real < 0.5))[0])
    weights = surf3.weights.copy()
    weights[node] *= 1 + 1e-6
    bent = dataclasses.replace(surf3, weights=weights, _lu=None)
    stabilizer = {tuple(p) for p in surface._symmetries(surf3) if p[node] == node}
    assert len(stabilizer) == 2                    # the identity and z -> conj(z)
    assert {tuple(p) for p in surface._symmetries(bent)} == stabilizer
    G = surface.green_kernel(bent).matrix
    dense = bent.factorization().solve(2 * np.eye(bent.num_nodes))
    assert np.abs(G - dense).max() <= 1e-14 * np.abs(dense).max()


def test_planted_stiffness_asymmetry_shrinks_group_to_stabilizer(surf3):
    """Row and column of one node of K scaled by 1 + 1e-6: only the maps
    fixing that node keep K."""
    z = surf3.nodes
    node = int(np.flatnonzero((abs(z.imag) < 1e-12) & (z.real > 0.1) & (z.real < 0.5))[0])
    scale = np.ones(surf3.num_nodes)
    scale[node] += 1e-6
    S = sp.diags(scale)
    bent = dataclasses.replace(surf3, stiffness=(S @ surf3.stiffness @ S).tocsc(), _lu=None)
    stabilizer = {tuple(p) for p in surface._symmetries(surf3) if p[node] == node}
    assert len(stabilizer) == 2
    assert {tuple(p) for p in surface._symmetries(bent)} == stabilizer


class _CountingLU:
    """Delegates to a factorization and records the columns and the
    `trans` of each solve."""

    def __init__(self, lu):
        self.lu, self.columns, self.trans = lu, [], []

    def solve(self, rhs, trans="N"):
        self.columns.append(rhs.shape[1])
        self.trans.append(trans)
        return self.lu.solve(rhs, trans=trans)


@pytest.mark.parametrize("level, orbits", [(3, 81), (4, 289)])
def test_green_solves_one_row_per_orbit(level, orbits, surf3, surf4, monkeypatch):
    """ceil(orbits / 8) untransposed solves of at most 8 columns each."""
    surf = surf3 if level == 3 else surf4
    spy = _CountingLU(surf.factorization())
    monkeypatch.setattr(surf, "_lu", spy)
    surface.green_kernel(surf)
    assert sum(spy.columns) == orbits
    assert max(spy.columns) <= 8
    assert len(spy.columns) == -(-orbits // 8)
    assert set(spy.trans) == {"N"}


def test_green_report(green3):
    rep = green3.report
    assert rep["min_entry"] > 0
    assert rep["asymmetry_rel"] < 1e-12
    assert rep["rowsum_err"] < 1e-10


def test_green_report_reads_every_table_entry(surf3, monkeypatch):
    """Two nodes' images swapped in one non-identity map: the symmetry and
    row-sum parts of the report both see the corrupted index tables."""
    perms = surface._symmetries(surf3)
    bad = perms.copy()
    bad[1, [1, 2]] = bad[1, [2, 1]]
    monkeypatch.setattr(surface, "_symmetries", lambda surf: bad)
    kernel = surface.green_kernel(surf3)
    assert not checks.green_kernel(kernel)["pass"]
    assert kernel.report["asymmetry_rel"] > 1e-8
    assert kernel.report["rowsum_err"] > 1e-8


def test_green_budget(surf3, green3, monkeypatch):
    monkeypatch.setattr(surface, "GREEN_BYTES_CAP", 1000)
    with pytest.raises(KernelBudget):
        surface.green_kernel(surf3)
    # the orbit rows fit, the dense expansion does not
    monkeypatch.setattr(surface, "GREEN_BYTES_CAP", green3.rows.nbytes)
    small = surface.green_kernel(surf3)
    assert np.array_equal(small.rows, green3.rows)
    with pytest.raises(KernelBudget):
        small.matrix
    # the run-time budget check predicts the rows' size exactly
    surface.check_green_budget(3)
    monkeypatch.setattr(surface, "GREEN_BYTES_CAP", green3.rows.nbytes - 1)
    with pytest.raises(KernelBudget):
        surface.check_green_budget(3)


def test_green_export_writes_report_json(tmp_path, surf3, green3):
    """green.json holds the report, the node hash and the solved-row shape;
    no binary dump of the rows is written."""
    surface.export_green(green3, surf3, tmp_path / "green.json")
    with open(tmp_path / "green.json") as fh:
        payload = json.load(fh)
    assert payload == {"rows_shape": list(green3.rows.shape),
                       "node_hash": surface.node_hash(surf3),
                       "report": green3.report}
    assert [p.name for p in tmp_path.iterdir()] == ["green.json"]


def test_resolvent_unreachable_tolerance_is_a_solver_failure(surf3):
    f = np.random.default_rng(9).standard_normal(surf3.num_nodes)
    with pytest.raises(SolverFailure):
        surface.apply_D(surf3, f, rtol=1e-30)


def test_solver_failure_reports_the_worst_relative_residual(surf3):
    """On an (N, 3) stack of differently scaled columns the message gives
    the worst column's relative residual, not its absolute one."""
    rng = np.random.default_rng(10)
    F = rng.standard_normal((surf3.num_nodes, 3)) * [1.0, 1e3, 1e-3]
    with pytest.raises(SolverFailure) as err:
        surface.apply_D(surf3, F, rtol=1e-30)
    rel = []
    for f in F.T:
        u = surface.apply_D(surf3, f)
        r = -(surf3.stiffness @ u) / surf3.weights - 2 * u + 2 * f
        rel.append(np.sqrt(abs(surf3.inner(r, r)) / abs(surf3.inner(f, f))))
    words = str(err.value).split()
    assert "relative" in words and words[-1] == "1e-30"
    assert float(words[words.index("exceeds") - 1]) == pytest.approx(max(rel), rel=0.05)


def test_resolvent_stack_equals_column_calls(surf4):
    """(N, k) stacks, wider than one LU block, equal column-by-column calls."""
    rng = np.random.default_rng(11)
    F = rng.standard_normal((surf4.num_nodes, 11))
    U = surface.apply_D(surf4, F)
    cols = np.stack([surface.apply_D(surf4, f) for f in F.T], axis=1)
    assert U.dtype == cols.dtype and U.shape == F.shape
    assert np.abs(U - cols).max() <= 1e-14 * np.abs(cols).max()


def test_resolvent_rejects_complex_input(surf3):
    """A complex node function raises rather than losing its imaginary part,
    even when that part is zero."""
    f = np.ones(surf3.num_nodes, dtype=complex)
    with pytest.raises(TypeError):
        surface.apply_D(surf3, f)


def test_zero_weight_is_singular_mass(group, monkeypatch):
    area_weights = surface._area_weights

    def zero_at_center(nodes, tris):
        w = area_weights(nodes, tris)
        w[0] = 0.0                      # the center is a glued class of its own
        return w

    monkeypatch.setattr(surface, "_area_weights", zero_at_center)
    with pytest.raises(SingularMass):
        surface.build_mesh(group, 1)


def test_node_hash_deterministic(group, surf3):
    again = surface.build_mesh(group, 3)
    assert surface.node_hash(again) == surface.node_hash(surf3)


def test_mesh_export(tmp_path, surf3):
    """`mesh.json` is one line that reloads to the mesh float for float."""
    payload = surface.export_mesh_json(surf3, tmp_path / "mesh.json")
    assert len(payload["nodes"]) == surf3.num_nodes
    text = (tmp_path / "mesh.json").read_text()
    assert "\n" not in text
    back = json.loads(text)
    assert back["level"] == surf3.level
    assert back["nodes"] == [[z.real, z.imag] for z in surf3.nodes.tolist()]
    assert back["weights"] == surf3.weights.tolist()
    assert back["triangles"] == surf3.triangles.tolist()
    assert back.keys() == {"level", "nodes", "weights", "triangles"}
