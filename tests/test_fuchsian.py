"""Group, group-element, word-enumeration and fundamental-domain tests."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from wpcurv import fuchsian, qdiff
from wpcurv.errors import BudgetExceeded, NearPole, ReductionFailure, UnsupportedGenus
from wpcurv.fuchsian import (DEDUP_DECIMALS, FuchsianGroup, _dedup_keys, _sign_normalize, act,
                             derivative, enumerate_words, inverse, octagon_group,
                             product, projective_distance, reduce_to_domain,
                             regular_group, rotation, unit_det)

from oracle import (CHARTS, DOMAIN_BLOCK, KLEIN_TOL, REGULAR, _chart, _distance_membership,
                    hyperbolic_distance, in_fundamental_domain, in_klein_polygon,
                    klein_margins, neighbor_centers, octagon_closed_form, reduce_by_centers)


def disk_points(max_radius=0.9):
    return st.complex_numbers(max_magnitude=max_radius, allow_nan=False,
                              allow_infinity=False)


# ---------------------------------------------------------------------------
# group elements


def test_identity_fixes_points():
    e = np.eye(2)
    z = np.array([0.0, 0.3 + 0.2j, -0.7j])
    assert np.allclose(act(e, z), z)
    assert np.allclose(derivative(e, z), 1.0)


def test_apply_matches_formula():
    m = unit_det([[2, 1], [1, 2]])
    assert abs(np.linalg.det(m) - 1) < 1e-15
    z = 0.25 - 0.1j
    (a, b), (c, d) = m
    assert act(m, z) == pytest.approx((a * z + b) / (c * z + d))


def test_derivative_finite_difference():
    m = octagon_group(2).generators[1]
    z = 0.2 + 0.15j
    h = 1e-6
    fd = (act(m, z + h) - act(m, z - h)) / (2 * h)
    assert abs(derivative(m, z) - fd) < 1e-8


def test_inverse_composes_to_identity():
    g = octagon_group(2).generators[2]
    assert projective_distance(product(g, inverse(g)), np.eye(2)) < 1e-13


def test_near_pole_raises():
    # map with a pole inside the closed disk: c z + d = 0 at z = -d/c
    m = unit_det([[2, 1], [1, 2]])
    pole = -m[1, 1] / m[1, 0]
    with pytest.raises(NearPole):
        act(m, pole)
    with pytest.raises(NearPole):
        derivative(m, pole)


@pytest.mark.parametrize("fn", [act, derivative], ids=["act", "derivative"])
def test_nan_point_raises_near_pole(fn):
    """A NaN point fails the pole gate; it is not carried through as NaN."""
    with pytest.raises(NearPole):
        fn(octagon_group(2).generators[0], np.array([np.nan, 0.1]))


def test_stacked_action_matches_each_matrix():
    """`act` and `derivative` on a matrix stack, broadcast against points,
    equal the values of each matrix alone bit for bit."""
    mats = enumerate_words(octagon_group(2), 2)
    rng = np.random.default_rng(4)
    z = 0.9 * np.sqrt(rng.uniform(size=37)) * np.exp(2j * np.pi * rng.uniform(size=37))
    for f in (act, derivative):
        stacked = f(mats[:, None], z)
        assert stacked.shape == (len(mats), len(z))
        assert np.array_equal(stacked, np.array([f(m, z) for m in mats]))


@settings(max_examples=50, deadline=None)
@given(disk_points(0.8), disk_points(0.8), st.integers(0, 3))
def test_generators_are_isometries(z, w, k):
    g = octagon_group(2).generators[k]
    d0 = hyperbolic_distance(z, w)
    d1 = hyperbolic_distance(act(g, z), act(g, w))
    assert abs(d0 - d1) < 1e-9 * (1 + d0)


# ---------------------------------------------------------------------------
# group structure


def test_unsupported_genus():
    with pytest.raises(UnsupportedGenus):
        octagon_group(3)


def test_group_holds_each_map_once():
    """The group is its pairings and its polygon: the generators are a view
    of the pairing rows N..2N-1, and rows 0..N-1 are their inverses."""
    G = octagon_group(2)
    assert [f.name for f in dataclasses.fields(FuchsianGroup)] == ["side_pairings", "vertices"]
    assert G.genus == 2
    assert np.shares_memory(G.generators, G.side_pairings)
    assert len(G.generators) == 4 and len(G.side_pairings) == len(G.vertices) == 8
    for g, g_inv in zip(G.generators, G.side_pairings):
        assert np.array_equal(g_inv, inverse(g))


def _free_reduce(word):
    """Free reduction of a word of letters (k, +-1), standing for g_k^+-1."""
    out = []
    for letter in word:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return out


def test_commutator_word_is_the_octagon_word():
    """[a1,b1][a2,b2], with a1 = g0, b1 = g1^-1 g2 g3^-1, a2 = g1^-1 g2 and
    b2 = g3^-1 g1, freely reduces to g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3: a
    canonical surface relation in these words is the octagon's relation."""
    inv = lambda w: [(k, -e) for k, e in reversed(w)]
    comm = lambda x, y: x + y + inv(x) + inv(y)
    a1, b1 = [(0, 1)], [(1, -1), (2, 1), (3, -1)]
    a2, b2 = [(1, -1), (2, 1)], [(3, -1), (1, 1)]
    assert _free_reduce(comm(a1, b1) + comm(a2, b2)) == [
        (0, 1), (1, -1), (2, 1), (3, -1), (0, -1), (1, 1), (2, -1), (3, 1)]


def test_relation_residual():
    """The vertex-cycle relation holds on the octagon and in every moved
    chart, and fails on a group with one pairing row replaced."""
    G = octagon_group(2)
    for group in (G, *(_chart(G, A) for A in CHARTS.values())):
        assert group.relation_residual() <= 1e-12
    planted = G.side_pairings.copy()
    planted[5] = planted[6]
    assert FuchsianGroup(side_pairings=planted, vertices=G.vertices).relation_residual() > 1


def test_regular_closed_form_is_octagon_group():
    """`octagon_group`, `regular_group(8)` (one vertex cycle, so angle
    pi/4), is the octagon's own closed form (1 + sqrt 2, 3 + 2 sqrt 2) bit
    for bit, pairing rows and vertices, with rotation order 8."""
    G, R = octagon_group(2), octagon_closed_form()
    assert np.array_equal(R.side_pairings, G.side_pairings)
    assert np.array_equal(R.vertices, G.vertices)
    assert G.rotation_order == 8


@pytest.mark.parametrize("name, genus", [("decagon", 2), ("12-gon", 3)])
def test_regular_polygon_groups(name, genus):
    """The regular decagon and 12-gon, built from their side counts alone:
    genus 2 and 3 read off the polygon, the vertex-cycle relation within
    1e-12 (5.2e-14 and 2.1e-13), so the derived angle closes the cycles up,
    and the rotation by 2 pi over the rotation order permutes the vertices."""
    G = regular_group(REGULAR[name])
    assert G.genus == genus
    assert G.relation_residual() <= 1e-12
    assert G.rotation_order == REGULAR[name]
    turned = np.exp(2j * np.pi / G.rotation_order) * G.vertices
    assert np.abs(turned - np.roll(G.vertices, -1)).max() < 1e-15


def test_generator_traces():
    G = octagon_group(2)
    expected = 2 + 2 * np.sqrt(2.0)
    for g in G.generators:
        tr = np.trace(g)
        assert abs(tr.imag) < 1e-13
        assert tr.real > 2  # hyperbolic
        assert abs(tr.real - expected) < 1e-12


def test_generators_rotation_conjugate():
    G = octagon_group(2)
    for k in range(4):
        conj = product(rotation(k * np.pi / 4), G.generators[0], rotation(-k * np.pi / 4))
        assert projective_distance(conj, G.generators[k]) < 1e-13


def test_generators_in_su11():
    """The SU(1,1) form: d = conj(a), c = conj(b)."""
    g = octagon_group(2).generators
    assert np.abs(g[:, 1] - np.conj(g[:, 0, ::-1])).max() < 1e-13


def test_side_pairing_carries_side_to_partner():
    """The pairing map of side s sends the endpoints of side s onto the
    endpoints of side (s+4) mod 8."""
    G = octagon_group(2)
    verts = G.vertices
    for s in range(8):
        ends = [verts[(s - 1) % 8], verts[s % 8]]
        targets = [verts[(s + 3) % 8], verts[(s + 4) % 8]]
        images = [act(G.side_pairings[s], z) for z in ends]
        match = min(
            max(abs(images[0] - targets[0]), abs(images[1] - targets[1])),
            max(abs(images[0] - targets[1]), abs(images[1] - targets[0])))
        assert match < 1e-12


def test_neighbor_centers_match_side_pairings():
    """Entry s is the image of 0 under the pairing that carries side s+4
    onto side s, and within 1e-15 of the rotation of entry 0 by s pi/4 (the
    two differ by at most 2.2e-16)."""
    G = octagon_group(2)
    centers = neighbor_centers(G)
    for s in range(8):
        # the copy across side s is the image of the octagon under the
        # inverse of the map that carries side s away
        gamma = G.side_pairings[(s + 4) % 8]
        assert abs(act(gamma, 0.0) - centers[s]) < 1e-12
    assert np.abs(centers - centers[0] * np.exp(1j * np.arange(8) * np.pi / 4)).max() < 1e-15


# ---------------------------------------------------------------------------
# word enumeration


def test_word_counts_small():
    G = octagon_group(2)
    assert len(enumerate_words(G, 0)) == 1
    assert len(enumerate_words(G, 1)) == 9


def test_word_ball_length2_brute_force():
    """Independent oracle: multiply all free words of length <= 2 and
    deduplicate projectively by pairwise distance."""
    G = octagon_group(2)
    step = G.side_pairings
    words = [np.eye(2)] + list(step)
    for g, h in itertools.product(step, repeat=2):
        words.append(product(g, h))
    reps = []
    for w in words:
        if not any(projective_distance(w, r) < 1e-9 for r in reps):
            reps.append(w)
    ball = enumerate_words(G, 2)
    assert len(ball) == len(reps)
    for r in reps:
        assert _contains(ball, r)


def _contains(ball, m, tol=1e-9):
    return projective_distance(ball, m).min() <= tol


def test_word_ball_closed_under_inverse():
    G = octagon_group(2)
    ball = enumerate_words(G, 3)
    for m in ball:
        assert _contains(ball, inverse(m))


def test_short_products_stay_in_larger_ball():
    G = octagon_group(2)
    small = enumerate_words(G, 3)
    big = enumerate_words(G, 6)
    rng = np.random.default_rng(0)
    idx = rng.choice(len(small), size=10, replace=False)
    for i in idx:
        for j in idx[:3]:
            # renormalize the factors, not their product: unit_det(a @ b)
            # takes a d - b c of the product, whose entries reach |a| ~ 4,809,
            # and that cancellation puts it 8.96e-6 from the ball, where the
            # factor-wise product lands 2.2e-9 away
            prod = product(unit_det(small[i]), unit_det(small[j]))
            # entrywise rounding error scales with the matrix magnitude
            assert _contains(big, prod, tol=1e-9 * (1 + abs(prod[0, 0])))


def test_norm_cap_is_distance_truncation():
    G = octagon_group(2)
    capped = enumerate_words(G, 6, norm_cap=50.0)
    full = enumerate_words(G, 6)
    assert len(capped) < len(full)
    # every kept element obeys the cap, and the cap commutes with inverse
    a = np.abs(capped[:, 0, 0])
    assert a.max() <= 50.0
    for m in capped[:50]:
        assert abs(inverse(m)[0, 0]) <= 50.0 + 1e-9


def test_ball_prefix_equals_shorter_enumeration():
    """The (L-1)-ball is the leading block of the L-ball, for each cap."""
    G = octagon_group(2)
    for cap in (None, 50.0):
        big = enumerate_words(G, 5, norm_cap=cap)
        small = enumerate_words(G, 4, norm_cap=cap)
        assert np.array_equal(big[:len(small)], small)


def test_word_ball_has_no_near_duplicates(words8):
    """Deduplication rounds to DEDUP_DECIMALS, which can split equal elements
    across a rounding boundary; no two stored elements, nor an element and
    the negative of another (the same projective map), lie within 1e-6."""
    coords = words8.view(np.float64).reshape(len(words8), 8)
    tree = cKDTree(coords)
    assert tree.query_pairs(1e-6) == set()
    dist, _ = tree.query(-coords, distance_upper_bound=1e-6)
    assert np.isinf(dist).all()


def test_word_ball_closed_under_rotation(words8):
    """Conjugation by the octagon rotation permutes the word ball: it carries
    g_k to g_(k+1) and g_3 to g_0^-1 and keeps |a|.  The series evaluation
    folds points through this symmetry."""
    r = rotation(np.pi / 4)
    rotated = r @ words8 @ np.linalg.inv(r)
    assert np.array_equal(np.sort(_dedup_keys(words8)),
                          np.sort(_dedup_keys(rotated)))


def _reference_ball(G, L, norm_cap):
    """Breadth-first ball deduplicated through a Python set of rounded
    coordinate tuples, one child at a time."""
    step = np.concatenate([G.generators, [inverse(g) for g in G.generators]])

    def key(m):
        m = _sign_normalize(m[None])[0].reshape(4)
        row = np.round(np.concatenate([m.real, m.imag]), DEDUP_DECIMALS) + 0.0
        return tuple(row)

    frontier = [np.eye(2, dtype=complex)]
    seen = {key(frontier[0])}
    shells = [frontier]
    for _ in range(L):
        fresh = []
        for m in frontier:
            for s in step:
                child = m @ s
                if norm_cap is not None and abs(child[0, 0]) > norm_cap:
                    continue
                k = key(child)
                if k not in seen:
                    seen.add(k)
                    fresh.append(_sign_normalize(child[None])[0])
        if not fresh:
            break
        frontier = fresh
        shells.append(fresh)
    return np.array([m for sh in shells for m in sh])


def test_enumerate_words_matches_set_dedup():
    G = octagon_group(2)
    for cap in (None, 50.0):
        mats = _reference_ball(G, 5, cap)
        ball = enumerate_words(G, 5, norm_cap=cap)
        assert ball.shape == mats.shape
        # the reference multiplies with `@`, which rounds differently
        err = np.abs(ball - mats).max(axis=(1, 2))
        assert np.all(err <= 1e-13 * np.abs(mats).max(axis=(1, 2)))


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        enumerate_words(octagon_group(2), -1)


def test_word_cap_raises(monkeypatch):
    """Past WORD_CAP elements the ball raises: 9 words reach length 1, more
    than 10 reach length 2."""
    monkeypatch.setattr(fuchsian, "WORD_CAP", 10)
    assert len(enumerate_words(octagon_group(2), 1)) == 9
    with pytest.raises(BudgetExceeded, match="cap of 10 elements at length <= 2"):
        enumerate_words(octagon_group(2), 2)


# ---------------------------------------------------------------------------
# fundamental domain


def test_origin_and_far_point_membership():
    G = octagon_group(2)
    assert in_fundamental_domain(G, 0.0)
    assert not in_fundamental_domain(G, 0.95)


def test_side_ties_broken_by_side_index():
    """Side midpoints are exact ties: sides 0..3 keep them, 4..7 do not;
    a step of 1e-6 along the ray decides by the sign alone."""
    G = octagon_group(2)
    centers = neighbor_centers(G)
    mids = centers / np.abs(centers) * np.tanh(np.arctanh(np.abs(centers)) / 2)
    assert list(in_fundamental_domain(G, mids)) == [True] * 4 + [False] * 4
    assert np.all(in_fundamental_domain(G, mids * (1 - 1e-6)))
    assert not np.any(in_fundamental_domain(G, mids * (1 + 1e-6)))


def test_domain_blocks_match_distance_formula():
    """The blocked real-arithmetic test agrees with the distance margins
    everywhere, across block ends and at points on every side."""
    G = octagon_group(2)
    rng = np.random.default_rng(3)
    n = 16 * DOMAIN_BLOCK + 1000
    pts = 0.999 * np.sqrt(rng.uniform(size=n)) * np.exp(
        2j * np.pi * rng.uniform(size=n))
    # the bisector of 0 and each center: the diameter orthogonal to the
    # center's ray, translated along that ray to the midpoint
    centers = neighbor_centers(G)
    mids = centers / np.abs(centers) * np.tanh(np.arctanh(np.abs(centers)) / 2)
    w = 1j * centers / np.abs(centers) * rng.uniform(-0.99, 0.99, size=(50, 1))
    sides = ((w + mids) / (1 + np.conj(mids) * w)).reshape(-1)
    pts = np.concatenate([pts, sides])
    expected = _distance_membership(centers, pts)
    assert np.array_equal(in_fundamental_domain(G, pts), expected)


def _disk_draw(seed, n, radius):
    """n points uniform in the disk |z| <= radius."""
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def test_reduce_to_domain():
    """Points up to |z| = 0.95 reach the octagon, and each returned product
    of side pairings maps its point onto the returned image."""
    G = octagon_group(2)
    z = _disk_draw(5, 400, 0.95)
    images, mats = reduce_to_domain(G, z)
    assert np.all(in_fundamental_domain(G, images))
    assert np.abs(act(mats, z) - images).max() < 1e-10
    inside = in_fundamental_domain(G, z)
    assert np.array_equal(images[inside], z[inside])
    assert not inside.all()
    with pytest.raises(ReductionFailure):
        reduce_to_domain(G, [0.5, 1.0])


def _reduces_into_and_traces(polygon, z):
    """Every point of z reduces, by the returned matrix, to an image the
    Klein oracle puts in `polygon`, which rejects some points of z itself,
    and every row s of `side_points` lies on side s's chord; returns the
    images."""
    images, mats = reduce_to_domain(polygon, z)
    assert np.all(in_klein_polygon(polygon, images))
    assert not np.all(in_klein_polygon(polygon, z))
    assert np.abs(act(mats, z) - images).max() < 1e-10
    sides = qdiff.side_points(polygon)
    margins = klein_margins(polygon, sides.reshape(-1)).reshape(sides.shape + (-1,))
    assert margins.min() >= -KLEIN_TOL
    assert all(np.abs(margins[s, :, s]).max() <= KLEIN_TOL for s in range(len(sides)))
    return images


@pytest.mark.parametrize("chart", CHARTS)
def test_moved_charts_reduce_and_trace_sides(group, chart):
    """On a rotated and two Moebius-moved charts of the octagon, every
    point of `test_reduce_to_domain`'s draw reduces into the moved polygon,
    as the Klein oracle judges it in the moved chart itself.  The moved
    polygons' sides are not bisectors of 0 and the neighbor centers, so
    the Dirichlet oracle judges the images after A carries them back to the
    octagon: A carries each of them into the octagon, and each row of
    `side_points` onto side s, vertex s-1 to vertex s, inside the vertex
    radius."""
    A = CHARTS[chart]
    moved = _chart(group, A)
    images = _reduces_into_and_traces(moved, _disk_draw(5, 400, 0.95))
    assert np.all(in_fundamental_domain(group, act(A, images)))
    sides = act(A, qdiff.side_points(moved))
    for s in range(8):
        assert abs(sides[s, 0] - group.vertices[s - 1]) < 1e-12
        assert abs(sides[s, -1] - group.vertices[s]) < 1e-12
    assert np.abs(sides).max() <= np.abs(group.vertices).max() + 1e-12


@pytest.mark.parametrize("name", REGULAR)
def test_regular_polygons_reduce_and_trace_sides(name):
    """On the regular decagon and 12-gon, every point of
    `test_reduce_to_domain`'s draw reduces into the polygon, and every
    `side_points` point lies on its side, as the Klein oracle judges them."""
    _reduces_into_and_traces(regular_group(REGULAR[name]), _disk_draw(5, 400, 0.95))


def test_klein_oracle_is_the_dirichlet_domain_on_the_octagon(group):
    """On the octagon, a Dirichlet domain about 0, the two oracles agree on
    20,000 points with |z| <= 0.995 away from the sides (every Klein margin
    at least 1e-9 in absolute value), and the Klein oracle keeps all 8
    side midpoints, where the Dirichlet one breaks ties by side index."""
    z = _disk_draw(13, 20_000, 0.995)
    clear = np.abs(klein_margins(group, z)).min(axis=1) >= 1e-9
    assert clear.mean() > 0.99
    assert np.array_equal(in_klein_polygon(group, z[clear]), in_fundamental_domain(group, z[clear]))
    centers = neighbor_centers(group)
    mids = centers / np.abs(centers) * np.tanh(np.arctanh(np.abs(centers)) / 2)
    assert np.all(in_klein_polygon(group, mids))


@pytest.mark.parametrize("seed", [11, 12])
def test_reduce_to_domain_is_the_center_oracle(group, seed):
    """On the regular octagon each side is the bisector of 0 and its
    neighbor center, all at one distance from 0, so the side test takes the
    nearest-center reduction's steps: bit-equal images and matrices at the
    collocation points and at 20,000 points with |z| <= 0.995."""
    for z in (qdiff._collocation(group)[0], _disk_draw(seed, 20_000, 0.995)):
        images, mats = reduce_to_domain(group, z)
        ref_images, ref_mats = reduce_by_centers(group, z)
        assert np.array_equal(images, ref_images)
        assert np.array_equal(mats, ref_mats)


def test_reduce_to_domain_step_limit_raises(monkeypatch):
    """A point that one side-pairing step does not carry into the octagon
    raises once REDUCE_STEPS is 1; the origin needs no step."""
    monkeypatch.setattr(fuchsian, "REDUCE_STEPS", 1)
    G = octagon_group(2)
    assert np.array_equal(reduce_to_domain(G, [0.0])[0], [0.0])
    with pytest.raises(ReductionFailure, match="1 points not reduced in 1 steps"):
        reduce_to_domain(G, [0.0, 0.99])


def test_reduce_to_domain_keeps_boundary_points(group):
    """The domain is closed: points along every side and the 8 vertices
    come back unmoved, with identity matrices, and none is carried back
    and forth between partner sides until the step limit raises."""
    pts = np.concatenate([qdiff.side_points(group, 2001).reshape(-1), group.vertices])
    images, mats = reduce_to_domain(group, pts)
    assert len(pts) == 16_016
    assert np.array_equal(images, pts)
    assert np.array_equal(mats, np.broadcast_to(np.eye(2), mats.shape))


def test_tiling_unique_representative(group, words8):
    """Each sample point has exactly one translate in the domain, over the
    length-8 word ball.  The octagon lies in the hyperbolic disk about 0
    through its vertices, which is convex, so only images with |w|^2 up to
    the vertices' (plus 1e-9), the reach disk of radius d_r about 0, are
    handed to the oracle.

    Only a few words can reach it.  An image gamma z lies in the reach disk
    only if d(0, gamma 0) <= d(0, gamma z) + d(gamma z, gamma 0) <= d_r +
    d(0, z), and for gamma in SU(1,1), |a_gamma| = cosh(d(0, gamma 0) / 2).
    So every word with |a| above cosh((d_r + d_max) / 2) (1 + 1e-9), where
    d_max is the largest d(0, z) over the points, is skipped; the factor
    covers the words' roundoff in det = 1.  On the first 8,000 words, no
    skipped word's image falls in the reach disk, and the reach disk gives
    the oracle's own answer on every image."""
    rng = np.random.default_rng(1)
    pts = 0.95 * np.sqrt(rng.uniform(size=1000)) * np.exp(
        2j * np.pi * rng.uniform(size=1000))
    reach2 = abs(group.vertices[0]) ** 2 + 1e-9
    d_reach, d_max = 2 * np.arctanh([np.sqrt(reach2), np.abs(pts).max()])
    kept = np.abs(words8[:, 0, 0]) <= np.cosh((d_reach + d_max) / 2) * (1 + 1e-9)

    def images_in_domain(words):
        images = act(words[:, None], pts)
        near = images.real ** 2 + images.imag ** 2 <= reach2
        inside = np.zeros(images.shape, dtype=bool)
        inside[near] = in_fundamental_domain(group, images[near])
        return images, near, inside

    for start in range(0, 8000, 1000):
        chunk = slice(start, start + 1000)
        images, near, inside = images_in_domain(words8[chunk])
        assert not near[~kept[chunk]].any()
        assert np.array_equal(inside, in_fundamental_domain(group, images))
    hits = images_in_domain(words8[kept])[2].sum(axis=0)
    assert np.all(hits == 1)


def test_monte_carlo_area():
    """Hyperbolic area of the domain is 4 pi (Gauss-Bonnet, genus 2)."""
    rng = np.random.default_rng(2)
    n = 1_000_000
    R = 0.9
    pts = R * np.sqrt(rng.uniform(size=n)) * np.exp(
        2j * np.pi * rng.uniform(size=n))
    G = octagon_group(2)
    sigma = 4.0 / (1 - np.abs(pts) ** 2) ** 2
    inside = in_fundamental_domain(G, pts)
    est = (sigma * inside).mean() * np.pi * R**2
    assert abs(est - 4 * np.pi) / (4 * np.pi) < 0.01
