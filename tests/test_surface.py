"""Mesh, quadrature, Laplacian, resolvent and Green-kernel tests."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcurv import checks, cli, surface
from wpcurv.errors import KernelBudget, MeshBudget, SingularMass, SolverFailure, WpcurvError
from wpcurv.fuchsian import act, regular_group

from oracle import (CHARTS, REGULAR, _chart, _matmat_by_stack, _orbit_rows, _orbit_tables,
                    _stiffness_by_gluing_matrix, _symmetries_by_candidates)


def test_level_bounds(group):
    with pytest.raises(ValueError, match="at least 1"):
        surface.build_mesh(group, 0)
    for bad in (7, 9, 8000, 10**6):
        with pytest.raises(MeshBudget, match="mesh level %d is above MAX_LEVEL 6" % bad):
            surface.build_mesh(group, bad)


def test_mesh_budget(group, monkeypatch):
    monkeypatch.setattr(surface, "MAX_LEVEL", 2)
    with pytest.raises(MeshBudget):
        surface.build_mesh(group, 3)


def test_level_limits_are_comparisons():
    """Levels 1-6 mesh and 1-5 take the Green kernel; level 6 and level
    10**6, far past any size a level could describe, raise their typed
    errors with messages under 200 characters."""
    for level in range(1, 7):
        surface.check_level(level)
    for level in range(1, 6):
        surface.check_green_level(level)
    with pytest.raises(KernelBudget, match="mesh level 6 is above .* GREEN_MAX_LEVEL 5"):
        surface.check_green_level(6)
    for check, error in ((surface.check_level, MeshBudget),
                         (surface.check_green_level, KernelBudget)):
        with pytest.raises(error) as err:
            check(10**6)
        assert len(str(err.value)) < 200


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
    F = np.column_stack([rng.standard_normal(surf3.num_nodes) for _ in range(20)])
    for f, via_kernel in zip(F.T, _matmat_by_stack(green3, surf3.weights[:, None] * F).T):
        direct = surface.apply_D(surf3, f)
        assert np.abs(direct - via_kernel).max() < 1e-8 * np.abs(direct).max()


def _bent_weight(surf3):
    """The level-3 surface with one weight on the positive real axis off by
    1e-6, and that node."""
    z = surf3.nodes
    node = int(np.flatnonzero((abs(z.imag) < 1e-12) & (z.real > 0.1) & (z.real < 0.5))[0])
    weights = surf3.weights.copy()
    weights[node] *= 1 + 1e-6
    return dataclasses.replace(surf3, weights=weights), node


@pytest.mark.parametrize("case", ["L3", "bent-weight"])
def test_green_blocked_report_equals_full_matrix_formulas(case, surf3, green3):
    """The blocked solve agrees with one dense solve, and the report read
    off the solved rows, over all the maps, with the full-matrix formulas:
    all 16 at level 3, and on the bent-weight surface the two-map
    stabilizer of the bent node, a proper subgroup.  The oracle takes its
    products in the report's GREEN_BLOCK-row blocks, so the row sums equal
    it bit for bit in both cases (in one product of all the rows they sum
    in another order: 3.9e-15 against 3.6e-15 on the bent-weight surface)."""
    if case == "L3":
        surf, green, maps = surf3, green3, 16
    else:
        surf = _bent_weight(surf3)[0]
        green, maps = surface.green_kernel(surf), 2
    G = green.matrix
    assert len(np.unique(_orbit_tables(green)[1])) == maps
    gmax = np.abs(G).max()
    rep = dict(green.report)
    rowsum = rep.pop("rowsum_err")
    assert rep == {
        "min_entry": float(G.min()),
        "max_entry": float(gmax),
        "asymmetry_rel": float(np.abs(G - G.T).max() / gmax),
    }
    assert rowsum == float(np.abs(_matmat_by_stack(green, surf.weights) - 1).max())
    assert abs(rowsum - np.abs(G @ surf.weights - 1).max()) <= 1e-14
    dense = surf.factorization().solve(2 * np.eye(surf.num_nodes))
    assert np.abs(G - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("level", [3, 4])
def test_green_kernel_applies_D_to_roundoff(level, surf3, surf4, green3, green4):
    """sum_q G[p,q] w_q f(q) = (Df)(p) holds to roundoff, not exactly: the
    orbit rows and their permutations reproduce D, taken through the
    oracle's products (one call, for all seven columns, so the orbit rows are
    solved once) since the package applies D only by its LU."""
    surf = surf3 if level == 3 else surf4
    green = green3 if level == 3 else green4
    rng = np.random.default_rng(level)
    fs = [rng.standard_normal(surf.num_nodes) for _ in range(5)]
    F = rng.standard_normal((surf.num_nodes, 2))
    via = _matmat_by_stack(green, surf.weights[:, None] * np.column_stack(fs + [F]))
    for f, col in zip(fs, via.T):
        direct = surface.apply_D(surf, f)
        err = np.abs(col - direct).max()
        assert err <= 1e-13 * np.abs(direct).max()
    direct = surface.apply_D(surf, F)
    err = np.abs(via[:, 5:] - direct).max()
    assert err <= 1e-13 * np.abs(direct).max()


def _traced_peak(fn, *args):
    """Bytes that `fn(*args)` allocates at its peak beyond what is held
    before the call, as tracemalloc sees numpy's allocations."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_green_kernel_peak_is_near_its_rows(surf4, green4):
    """At level 4, the Green kernel allocates less than 0.6 of its orbit
    rows' 8 R N bytes at its peak (0.51 measured): it keeps only each solved
    block's entries at g^-1 of later blocks' representatives, 16 per
    (earlier row, later representative) pair, about 4 R^2, and never holds
    the rows themselves."""
    surf4.factorization()
    peak = _traced_peak(surface.green_kernel, surf4)
    assert peak < 0.6 * 8 * (_orbit_tables(green4)[0].max() + 1) * surf4.num_nodes


def test_area_weights_peak_is_below_the_term_array(group):
    """At level 4, the weights peak below the 8 * 21 * M bytes of an (M, 7, 3)
    array holding every quadrature term of the M raw triangles."""
    nodes, tris, _ = surface._build_raw(group, 4 + surface.BASE_REFINEMENTS)
    assert _traced_peak(surface._area_weights, nodes, tris) < 8 * 21 * len(tris)


def _mesh(group, surf3, surf4, level):
    return {3: surf3, 4: surf4}.get(level) or surface.build_mesh(group, level)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_raw_nodes_distinct(level, group, surf3, surf4):
    """Each edge midpoint is a new node: no two raw nodes lie within 1e-9."""
    from scipy.spatial import cKDTree

    raw = _mesh(group, surf3, surf4, level).raw_nodes
    assert not cKDTree(np.c_[raw.real, raw.imag]).query_pairs(1e-9)


def test_mesh_loops_match_per_triangle_reference(group, surf3):
    """The vectorized weights and stiffness against per-triangle loops; the
    loops' stiffness is summed through gid, bit for bit as the mesh's."""
    nodes, tris, _ = surface._build_raw(group, 3 + surface.BASE_REFINEMENTS)
    gid = surf3.gid
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
    K = sp.csc_matrix((vals, (gid[rows], gid[cols])), shape=(surf3.num_nodes,) * 2)
    for K_new in (surface._stiffness(nodes, tris, gid[tris], surf3.num_nodes), surf3.stiffness):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(K_new, attr), getattr(K, attr))
    # the squares are rounded once here, but through pow in the loop
    assert np.abs(surface._area_weights(nodes, tris) - w).max() <= 1e-15 * w.max()


def _reference_mesh(group, passes):
    """Per-triangle refinement over edge dicts, then a sequential union-find
    over the side pairings: (raw nodes, raw triangles, gid)."""
    two_n, n = len(group.vertices), len(group.generators)
    nodes = [0j] + [complex(v) for v in group.vertices]
    tris = [(0, 1 + s, 1 + (s + 1) % two_n) for s in range(two_n)]
    bedges = {frozenset((1 + (s - 1) % two_n, 1 + s)): s for s in range(two_n)}   # edge -> side
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

    for s in range(n):
        tgt = side(s)
        imgs = act(group.generators[s], np.array([nodes[i] for i in side(s + n)]))
        for i, z in zip(side(s + n), imgs):
            d = [abs(nodes[t] - z) for t in tgt]
            assert min(d) < 1e-9
            parent[find(i)] = find(tgt[int(np.argmin(d))])
    roots = [find(i) for i in range(len(nodes))]
    index = {r: k for k, r in enumerate(sorted(set(roots)))}
    return np.array(nodes), np.array(tris), np.array([index[r] for r in roots])


_MESH_CASES = [(level, chart) for chart in (None, *CHARTS, *REGULAR) for level in (1, 2, 3)]


@pytest.mark.parametrize("level, chart", _MESH_CASES,
                         ids=["%d-%s" % c if c[1] else str(c[0]) for c in _MESH_CASES])
def test_mesh_arrays_match_per_triangle_reference(level, chart, group, surf3, surf4):
    """Refinement and gluing over index arrays against dict-based loops:
    the same nodes in the same order, triangles and glued classes, the
    mesh's glued triangles and chi = 2 - 2g, on the octagon, on moved
    charts of it, whose sides are not centred at multiples of pi/4, and on
    the regular decagon and 12-gon."""
    if chart is None:
        surf = _mesh(group, surf3, surf4, level)
    else:
        group = (regular_group(REGULAR[chart]) if chart in REGULAR
                 else _chart(group, CHARTS[chart]))
        surf = surface.build_mesh(group, level)
    nodes, tris, gid = _reference_mesh(group, level + surface.BASE_REFINEMENTS)
    raw_nodes, raw_tris, _ = surface._build_raw(group, level + surface.BASE_REFINEMENTS)
    assert np.array_equal(raw_nodes, nodes)
    assert np.array_equal(surf.raw_nodes, nodes)
    assert np.array_equal(raw_tris, tris)
    assert np.array_equal(surf.gid, gid)
    assert np.array_equal(surf.triangles, gid[tris])
    assert surf.euler_characteristic() == 2 - 2 * group.genus


@pytest.mark.parametrize("name, classes", [("decagon", 2), ("12-gon", 1)])
def test_regular_polygons_mesh_and_check(name, classes):
    """The regular decagon (genus 2) and 12-gon (genus 3) glue their
    corners into 2 and 1 classes at L1-L3, and the area error against
    4 pi (g - 1) shrinks 3.5-4.5 times per level (decagon 0.294, 0.0737,
    0.0184; 12-gon 2.04, 0.518, 0.130).  At L2 the resolvent and Green
    checks pass, and the kernel has the 2N-gon's 4N maps: its own rotation
    by 2 pi/2N and conjugation are certified."""
    group = regular_group(REGULAR[name])
    errors = []
    for level in (1, 2, 3):
        surf = surface.build_mesh(group, level)
        assert len(np.unique(surf.gid[1:1 + len(group.vertices)])) == classes
        errors.append(abs(surf.area - 4 * np.pi * (group.genus - 1)))
        if level == 2:
            kernel = surface.green_kernel(surf)
            assert len(kernel.perms) == 2 * group.rotation_order
            assert checks.green_kernel(kernel)["pass"]
            assert checks.resolvent_operator(surf)["pass"]
    assert all(3.5 <= a / b <= 4.5 for a, b in zip(errors, errors[1:]))


def test_rotated_chart_is_the_same_mesh(group, surf3):
    """Rotating the octagon moves its nodes but not its combinatorics: the
    same glued classes, chi = -2, and w and K equal to roundoff (K is the flat
    stiffness and w reads |z| only, and both are invariant under rotation)."""
    rot = surface.build_mesh(_chart(group, CHARTS["rotated"]), 3)
    assert np.array_equal(rot.gid, surf3.gid)
    assert rot.euler_characteristic() == -2
    assert np.abs(rot.weights - surf3.weights).max() <= 1e-13 * surf3.weights.max()
    K = surf3.stiffness
    assert abs(rot.stiffness - K).max() <= 1e-13 * abs(K).max()


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
        return dataclasses.replace(surf, weights=surf.weights * scale)
    S = sp.diags(scale)
    return dataclasses.replace(surf, stiffness=(S @ surf.stiffness @ S).tocsc())


_SYMMETRY_CASES = (["L1", "L2", "L3", "L4", "bent-weight", "bent-stiffness"]
                   + ["%s-L%d" % (name, level) for name in REGULAR for level in (1, 2, 3)])


@pytest.mark.parametrize("case", _SYMMETRY_CASES)
def test_generated_symmetries_match_candidate_oracle(case, group, surf3, surf4):
    """The maps composed from the two certified generators are the maps the
    4N separate certificates keep: the same rows in the same order, all
    4N of them on the octagon, decagon and 12-gon (16, 20 and 24)."""
    if case.startswith("bent"):
        surf = _bent(surf3, case.split("-")[1])
    elif case[0] == "L":
        surf = _mesh(group, surf3, surf4, int(case[1]))
    else:
        name, level = case.rsplit("-L", 1)
        surf = surface.build_mesh(regular_group(REGULAR[name]), int(level))
    perms = surface._symmetries(surf)
    assert np.array_equal(perms, _symmetries_by_candidates(surf))
    assert len(perms) == (2 if case.startswith("bent") else 2 * surf.group.rotation_order)


def test_replaced_surface_factors_its_own_operator(surf3):
    """`dataclasses.replace` carries no factor over: the copy with weights
    2w factors K + 4M itself, and its resolvent passes its residual."""
    lu = surf3.factorization()
    doubled = dataclasses.replace(surf3, weights=2 * surf3.weights)
    assert doubled.factorization() is not lu
    assert surf3.factorization() is lu
    f = np.random.default_rng(12).standard_normal(surf3.num_nodes)
    u = surface.apply_D(doubled, f)
    r = -(doubled.stiffness @ u) / doubled.weights - 2 * u + 2 * f
    assert np.sqrt(doubled.inner(r, r) / doubled.inner(f, f)) <= 1e-10


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_stiffness_plus_mass_is_bitwise_symmetric(level, group, surf3, surf4):
    """The untransposed orbit solve gives rows of G because K + 2M equals
    its transpose bit for bit, up to level 5, the top level `run` accepts."""
    surf = _mesh(group, surf3, surf4, level)
    A = (surf.stiffness + 2 * sp.diags(surf.weights)).tocsc()
    assert (A - A.T).count_nonzero() == 0


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_glued_stiffness_matches_gluing_matrix_product(level, group, surf3, surf4):
    """K summed straight into the glued classes against the raw-node
    stiffness glued as P^T K P: the same sparsity pattern, and the same
    entries to roundoff: an off-diagonal entry sums at most two terms, and
    only the diagonal sums a class's terms in another order."""
    surf = _mesh(group, surf3, surf4, level)
    nodes, tris, _ = surface._build_raw(group, level + surface.BASE_REFINEMENTS)
    ref = _stiffness_by_gluing_matrix(nodes, tris, surf.gid, surf.num_nodes)
    K = surf.stiffness
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.abs(K.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
    off = K.indices != np.repeat(np.arange(K.shape[1]), np.diff(K.indptr))
    assert np.array_equal(K.data[off], ref.data[off])


def test_orbit_rows_are_rows_of_the_dense_inverse(surf3, green3):
    A = (surf3.stiffness + 2 * sp.diags(surf3.weights)).toarray()
    G = 2 * np.linalg.inv(A)
    row_of, map_of = _orbit_tables(green3)
    reps = np.flatnonzero(map_of == 0)               # the identity maps only these
    assert np.array_equal(row_of[reps], np.arange(len(reps)))
    assert np.abs(green3.matrix[reps] - G[reps]).max() <= 1e-14 * np.abs(G).max()


def test_planted_asymmetry_shrinks_group_to_stabilizer(surf3):
    """One weight off by 1e-6: only the maps fixing that node survive, and
    G is still the full solve's."""
    bent, node = _bent_weight(surf3)
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
    bent = dataclasses.replace(surf3, stiffness=(S @ surf3.stiffness @ S).tocsc())
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
    row-sum parts of the report both see the corrupted map table."""
    perms = surface._symmetries(surf3)
    bad = perms.copy()
    bad[1, [1, 2]] = bad[1, [2, 1]]
    monkeypatch.setattr(surface, "_symmetries", lambda surf: bad)
    kernel = surface.green_kernel(surf3)
    assert not checks.green_kernel(kernel)["pass"]
    assert kernel.report["asymmetry_rel"] > 1e-8
    assert kernel.report["rowsum_err"] > 1e-8


def test_green_report_sees_a_swap_in_the_last_block(surf3, monkeypatch):
    """Two nodes of the last orbit swapped in one non-identity map: their
    pairs with the first block's rows are compared only when the last
    block is solved, from the first block's kept entries."""
    perms = surface._symmetries(surf3)
    orbit_min = perms.min(axis=0)
    last = np.flatnonzero(orbit_min == orbit_min.max())
    bad = perms.copy()
    bad[1, last[:2]] = bad[1, last[1::-1]]
    monkeypatch.setattr(surface, "_symmetries", lambda surf: bad)
    kernel = surface.green_kernel(surf3)
    assert not checks.green_kernel(kernel)["pass"]
    assert kernel.report["asymmetry_rel"] > 1e-8


def _move_block_entries(monkeypatch, lo, row, cols):
    """Solve blocks as before, but with the entries at `cols` of row `row`
    of the block that starts at `lo` moved by 1e-6 relative."""
    orbit_blocks = surface._orbit_blocks

    def moved(surf, reps):
        for start, block in orbit_blocks(surf, reps):
            if start == lo:
                block = block.copy()
                block[row, cols] *= 1 + 1e-6
            yield start, block

    monkeypatch.setattr(surface, "_orbit_blocks", moved)


def test_green_asymmetry_pairs_the_first_and_last_blocks(surf3, green3, monkeypatch):
    """One entry of the first solved block, at a column of the last orbit,
    moved by 1e-6 relative: only triples of the last block's row read it,
    as a mirror entry, so the report sees it through the kept entries."""
    row_of, map_of = _orbit_tables(green3)
    first = np.flatnonzero(map_of == 0)[0]
    last = int(np.flatnonzero(row_of == row_of.max())[0])
    _move_block_entries(monkeypatch, 0, 0, last)
    rep = surface.green_kernel(surf3).report
    moved = 1e-6 * green3.matrix[first, last] / green3.report["max_entry"]
    assert rep["asymmetry_rel"] == pytest.approx(moved, rel=1e-6)
    assert {k: rep[k] for k in ("min_entry", "max_entry")} == {
        k: green3.report[k] for k in ("min_entry", "max_entry")}


def test_green_asymmetry_reads_the_later_rows_pairs(surf3, green3, monkeypatch):
    """The last orbit lies on a mirror axis, so rotations alone carry its
    representative onto its nodes, and no triple of an earlier row reads the
    last row at the nodes that a reflection carries from an earlier
    representative.  Those entries moved by 1e-6 relative are seen through
    the triples of the last row itself."""
    row_of, map_of = _orbit_tables(green3)
    last = row_of.max()
    lo = last - last % surface.GREEN_BLOCK
    assert map_of[row_of == last].max() < 8
    cols = np.flatnonzero((map_of >= 8) & (row_of < lo))
    _move_block_entries(monkeypatch, lo, last - lo, cols)
    rep = surface.green_kernel(surf3).report
    rep_last = np.flatnonzero(map_of == 0)[last]
    moved = 1e-6 * green3.matrix[rep_last, cols].max() / green3.report["max_entry"]
    assert rep["asymmetry_rel"] == pytest.approx(moved, rel=1e-6)


def test_green_matrix_fills_from_one_pass_of_the_solve_blocks(surf3, monkeypatch):
    """A fresh level-3 kernel's dense `matrix` takes one more pass of
    ceil(81 / 8) = 11 solve blocks after the report's, and its rows at the
    representatives are bit for bit the blocks the report pass solved."""
    passes = []
    orbit_blocks = surface._orbit_blocks

    def recorded(surf, reps):
        passes.append([])
        for lo, block in orbit_blocks(surf, reps):
            passes[-1].append(block)
            yield lo, block

    monkeypatch.setattr(surface, "_orbit_blocks", recorded)
    kernel = surface.green_kernel(surf3)
    assert len(passes) == 1
    G = kernel.matrix
    assert [[len(b) for b in p] for p in passes] == [[8] * 10 + [1]] * 2
    assert np.array_equal(G[_orbit_tables(kernel)[1] == 0], np.concatenate(passes[0]))


def test_green_budget(surf3, green3, monkeypatch):
    rows = green3.matrix[_orbit_tables(green3)[1] == 0]     # before any cap shrinks
    monkeypatch.setattr(surface, "GREEN_MAX_LEVEL", 2)
    with pytest.raises(KernelBudget):
        surface.green_kernel(surf3)
    with pytest.raises(KernelBudget):
        surface.check_green_level(3)
    # the level limit is inclusive, and the cap on the dense expansion's
    # 8 N N bytes is apart from it: at the orbit rows' bytes the kernel and
    # its report are built, and the matrix is refused
    monkeypatch.setattr(surface, "GREEN_MAX_LEVEL", 3)
    monkeypatch.setattr(surface, "GREEN_BYTES_CAP", rows.nbytes)
    small = surface.green_kernel(surf3)
    assert small.report == green3.report
    assert np.array_equal(_orbit_rows(small), rows)
    with pytest.raises(KernelBudget):
        small.matrix


def test_green_export_writes_report_json(tmp_path, green3):
    """A level-3 run's green.json holds the Green kernel's report and the
    stage's stamp alone, the report that report.json records as the
    green_kernel residual; no binary dump of the rows is written."""
    out = tmp_path / "o"
    report = cli.run(cli.RunConfig(stage="surface", mesh_level=3, out=str(out)))
    payload = json.loads((out / "green.json").read_text())
    assert set(payload) == {"report", "config_hash"}
    assert payload["report"] == report["checks"]["green_kernel"]["residual"] == green3.report
    assert {p.name for p in out.iterdir()} == {"report.json", *cli.STAGE_ARTIFACTS["surface"]}


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
    """An (N, k) stack, solved in one LU solve, equals column-by-column calls."""
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


def test_nan_in_resolvent_input_is_a_solver_failure(group):
    """A NaN residual fails the gate rather than passing as not above rtol."""
    surf = surface.build_mesh(group, 2)
    f = np.random.default_rng(12).standard_normal(surf.num_nodes)
    f[5] = np.nan
    with pytest.raises(SolverFailure):
        surface.apply_D(surf, f)


def test_zero_weight_is_singular_mass(group, monkeypatch):
    area_weights = surface._area_weights

    def zero_at_center(nodes, tris):
        w = area_weights(nodes, tris)
        w[0] = 0.0                      # the center is a glued class of its own
        return w

    monkeypatch.setattr(surface, "_area_weights", zero_at_center)
    with pytest.raises(SingularMass):
        surface.build_mesh(group, 1)


def test_nan_weight_is_singular_mass(group, monkeypatch):
    area_weights = surface._area_weights

    def nan_at_center(nodes, tris):
        w = area_weights(nodes, tris)
        w[0] = np.nan
        return w

    monkeypatch.setattr(surface, "_area_weights", nan_at_center)
    with pytest.raises(SingularMass):
        surface.build_mesh(group, 2)


def test_nan_side_pairing_fails_the_gluing(group, monkeypatch):
    """Side pairings that map every node to NaN match no boundary node;
    the gluing raises instead of leaving the sides unglued."""
    monkeypatch.setattr(surface, "act", lambda g, z: np.full_like(z, np.nan))
    with pytest.raises(WpcurvError, match="side pairing"):
        surface.build_mesh(group, 2)


def test_mesh_nodes_deterministic(group, surf3):
    again = surface.build_mesh(group, 3)
    assert np.array_equal(again.nodes, surf3.nodes)


def test_mesh_export(tmp_path, surf3):
    """A level-3 run's `mesh.json` is one line that reloads to the mesh
    float for float, stamped with the surface stage's hash."""
    config = cli.RunConfig(stage="surface", mesh_level=3, out=str(tmp_path / "o"))
    cli.run(config)
    text = (tmp_path / "o" / "mesh.json").read_text()
    assert "\n" not in text
    back = json.loads(text)
    assert back["level"] == surf3.level
    assert back["nodes"] == [[z.real, z.imag] for z in surf3.nodes.tolist()]
    assert back["weights"] == surf3.weights.tolist()
    assert back["triangles"] == surf3.triangles.tolist()
    assert back["config_hash"] == config.hash("surface")
    assert back.keys() == {"level", "nodes", "weights", "triangles", "config_hash"}
