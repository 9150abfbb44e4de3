"""Group, Mobius-map, word-enumeration and fundamental-domain tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcurv.errors import NearPole, UnsupportedGenus
from wpcurv.fuchsian import (MobiusMap, enumerate_words, hyperbolic_distance,
                             identity_map, in_fundamental_domain,
                             octagon_group, rotation)


def disk_points(max_radius=0.9):
    return st.complex_numbers(max_magnitude=max_radius, allow_nan=False,
                              allow_infinity=False)


# ---------------------------------------------------------------------------
# MobiusMap


def test_identity_fixes_points():
    e = identity_map()
    z = np.array([0.0, 0.3 + 0.2j, -0.7j])
    assert np.allclose(e.apply(z), z)
    assert np.allclose(e.derivative(z), 1.0)


def test_apply_matches_formula():
    m = MobiusMap([[2, 1], [1, 2]])  # det renormalized internally
    z = 0.25 - 0.1j
    a, b, c, d = m.a, m.b, m.c, m.d
    assert m.apply(z) == pytest.approx((a * z + b) / (c * z + d))


def test_derivative_finite_difference():
    m = octagon_group(2).generators[1]
    z = 0.2 + 0.15j
    h = 1e-6
    fd = (m.apply(z + h) - m.apply(z - h)) / (2 * h)
    assert abs(m.derivative(z) - fd) < 1e-8


def test_inverse_composes_to_identity():
    g = octagon_group(2).generators[2]
    assert (g @ g.inverse()).dist_to(identity_map()) < 1e-13


def test_near_pole_raises():
    # map with a pole inside the closed disk: c z + d = 0 at z = -d/c
    m = MobiusMap([[2, 1], [1, 2]])
    pole = -m.d / m.c
    with pytest.raises(NearPole):
        m.apply(pole)
    with pytest.raises(NearPole):
        m.derivative(pole)


@settings(max_examples=50, deadline=None)
@given(disk_points(0.8), disk_points(0.8), st.integers(0, 3))
def test_generators_are_isometries(z, w, k):
    g = octagon_group(2).generators[k]
    d0 = hyperbolic_distance(z, w)
    d1 = hyperbolic_distance(g.apply(z), g.apply(w))
    assert abs(d0 - d1) < 1e-9 * (1 + d0)


# ---------------------------------------------------------------------------
# group structure


def test_unsupported_genus():
    with pytest.raises(UnsupportedGenus):
        octagon_group(3)


def test_octagon_relation_residual():
    assert octagon_group(2).octagon_relation_residual() < 1e-10


def test_commutator_relation_residual():
    assert octagon_group(2).commutator_residual() < 1e-10


def test_generator_traces():
    G = octagon_group(2)
    expected = 2 + 2 * np.sqrt(2.0)
    for g in G.generators:
        tr = g.trace()
        assert abs(tr.imag) < 1e-13
        assert tr.real > 2  # hyperbolic
        assert abs(tr.real - expected) < 1e-12


def test_generators_rotation_conjugate():
    G = octagon_group(2)
    for k in range(4):
        conj = rotation(k * np.pi / 4) @ G.generators[0] @ rotation(-k * np.pi / 4)
        assert conj.dist_to(G.generators[k]) < 1e-13


def test_generators_in_su11():
    for g in octagon_group(2).generators:
        assert g.su11_residual() < 1e-13


def test_side_pairing_carries_side_to_partner():
    """The pairing map of side s sends the endpoints of side s onto the
    endpoints of side (s+4) mod 8."""
    G = octagon_group(2)
    verts = G.vertices
    for s in range(8):
        ends = [verts[(s - 1) % 8], verts[s % 8]]
        targets = [verts[(s + 3) % 8], verts[(s + 4) % 8]]
        images = [G.side_pairings[s].apply(z) for z in ends]
        match = min(
            max(abs(images[0] - targets[0]), abs(images[1] - targets[1])),
            max(abs(images[0] - targets[1]), abs(images[1] - targets[0])))
        assert match < 1e-12


def test_neighbor_centers_match_side_pairings():
    G = octagon_group(2)
    centers = G.neighbor_centers()
    for s in range(8):
        # the copy across side s is the image of the octagon under the
        # inverse of the map that carries side s away
        gamma = G.side_pairings[(s + 4) % 8]
        assert abs(gamma.apply(0.0) - centers[s]) < 1e-12


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
    step = G.side_generator_words()
    words = [identity_map()] + list(step)
    for g, h in itertools.product(step, repeat=2):
        words.append(g @ h)
    reps = []
    for w in words:
        if not any(w.dist_to(r) < 1e-9 for r in reps):
            reps.append(w)
    ball = enumerate_words(G, 2)
    assert len(ball) == len(reps)
    for r in reps:
        assert ball.contains(r)


def test_word_ball_closed_under_inverse():
    G = octagon_group(2)
    ball = enumerate_words(G, 3)
    for m in ball.elements:
        assert ball.contains(m.inverse())


def test_short_products_stay_in_larger_ball():
    G = octagon_group(2)
    small = enumerate_words(G, 3)
    big = enumerate_words(G, 6)
    rng = np.random.default_rng(0)
    idx = rng.choice(len(small), size=10, replace=False)
    for i in idx:
        for j in idx[:3]:
            prod = small.elements[i] @ small.elements[j]
            # entrywise rounding error scales with the matrix magnitude
            assert big.contains(prod, tol=1e-9 * (1 + abs(prod.a)))


def test_norm_cap_is_distance_truncation():
    G = octagon_group(2)
    capped = enumerate_words(G, 6, norm_cap=50.0)
    full = enumerate_words(G, 6)
    assert len(capped) < len(full)
    # every kept element obeys the cap, and the cap commutes with inverse
    a = np.abs(capped.matrices[:, 0, 0])
    assert a.max() <= 50.0
    for m in capped.elements[:50]:
        assert abs(m.inverse().a) <= 50.0 + 1e-9


def test_ball_prefix_equals_shorter_enumeration():
    """The (L-1)-ball is the leading block of the L-ball, for each cap."""
    G = octagon_group(2)
    for cap in (None, 50.0):
        big = enumerate_words(G, 5, norm_cap=cap)
        small = enumerate_words(G, 4, norm_cap=cap)
        assert np.array_equal(big.ball(4), small.matrices)
        assert np.array_equal(big.ball(5), big.matrices)
    with pytest.raises(ValueError):
        big.ball(6)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        enumerate_words(octagon_group(2), -1)


# ---------------------------------------------------------------------------
# fundamental domain


def test_origin_and_far_point_membership():
    G = octagon_group(2)
    assert in_fundamental_domain(G, 0.0)
    assert not in_fundamental_domain(G, 0.95)


def test_tiling_unique_representative():
    """Each sample point has exactly one translate in the domain, over the
    length-8 word ball."""
    G = octagon_group(2)
    ball = enumerate_words(G, 8, norm_cap=400.0)
    mats = ball.matrices
    rng = np.random.default_rng(1)
    pts = 0.95 * np.sqrt(rng.uniform(size=1000)) * np.exp(
        2j * np.pi * rng.uniform(size=1000))
    a = mats[:, 0, 0][:, None]
    b = mats[:, 0, 1][:, None]
    c = mats[:, 1, 0][:, None]
    d = mats[:, 1, 1][:, None]
    hits = np.zeros(len(pts), dtype=int)
    for start in range(0, len(mats), 8000):
        sl = slice(start, start + 8000)
        images = (a[sl] * pts[None, :] + b[sl]) / (c[sl] * pts[None, :] + d[sl])
        hits += in_fundamental_domain(G, images).sum(axis=0)
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
