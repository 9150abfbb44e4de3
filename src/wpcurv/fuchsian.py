"""Fuchsian group machinery for the genus-2 regular-octagon surface.

The surface is realized as the quotient of the Poincare disk (SU(1,1)
model, metric density sigma(z) = 4/(1-|z|^2)^2) by the group generated
by the four side pairings of the regular hyperbolic octagon centered at
the origin, whose opposite sides are identified.  A group element is a
2x2 complex array [[a, b], [c, d]] in SU(1,1), of unit determinant, acting
by z -> (az+b)/(cz+d); a set of elements is an (N, 2, 2) stack, such as
the word ball of `enumerate_words`.  The module functions renormalize
(`unit_det`), multiply (`product`), invert, act on points (`act`,
`derivative`, both over stacks too) and compare (`projective_distance`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .errors import BudgetExceeded, NearPole, UnsupportedGenus

POLE_TOL = 1e-14
DEDUP_DECIMALS = 8  # rounding used for the 1e-9 entrywise dedup radius
REDUCE_STEPS = 64  # side-pairing steps `reduce_to_domain` allows per point
REDUCE_TOL = 1e-12  # band below |w| in which `reduce_to_domain` counts a point inside
WORD_CAP = 2_000_000  # most elements `enumerate_words` may return


def unit_det(m) -> np.ndarray:
    """The 2x2 matrix m divided by the square root of its determinant.  The
    determinant is taken with scalar indexing, whose complex arithmetic
    rounds differently from numpy's 0-d array arithmetic."""
    m = np.asarray(m, dtype=complex).reshape(2, 2)
    return m / np.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def product(*factors) -> np.ndarray:
    """Left-to-right product of unit-determinant matrices, renormalized after
    each factor, so +-M ambiguity is the only slack left."""
    out = factors[0]
    for m in factors[1:]:
        out = unit_det(out @ m)
    return out


def inverse(m) -> np.ndarray:
    return unit_det([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _den(m, z):
    """cz + d, at least POLE_TOL from 0 in absolute value."""
    den = m[..., 1, 0] * z + m[..., 1, 1]
    if np.any(np.abs(den) <= POLE_TOL):
        raise NearPole("evaluation within %g of the pole" % POLE_TOL)
    return den


def act(m, z):
    """Image (az+b)/(cz+d) of z under the matrix m, or under each matrix of a
    stack m (..., 2, 2), whose leading axes broadcast against z."""
    z = np.asarray(z, dtype=complex)
    return (m[..., 0, 0] * z + m[..., 0, 1]) / _den(m, z)


def derivative(m, z):
    """Complex derivative 1/(cz+d)^2 of the action at z, broadcast as `act`."""
    return 1.0 / _den(m, np.asarray(z, dtype=complex)) ** 2


def projective_distance(m, n):
    """Entrywise distance min(|M-N|, |M+N|) of the maps M and N, over the
    last two axes."""
    return np.minimum(np.abs(m - n).max(axis=(-2, -1)), np.abs(m + n).max(axis=(-2, -1)))


def rotation(angle: float) -> np.ndarray:
    """Rotation of the disk about the origin by `angle`."""
    return unit_det([[np.exp(1j * angle / 2), 0], [0, np.exp(-1j * angle / 2)]])


@dataclass
class FuchsianGroup:
    """Surface group of the regular-octagon genus-2 surface.

    generators     -- (4, 2, 2): the 2g = 4 side-pairing translations
                      g_0..g_3; g_k is the rotation conjugate
                      R(k pi/4) g_0 R(-k pi/4) and identifies octagon side
                      k+4 with side k.
    side_pairings  -- (8, 2, 2): row s carries side s onto its partner side
                      (s+4) mod 8; rows 0..3 are the inverses of g_0..g_3,
                      rows 4..7 are g_0..g_3.
    canonical_generators -- (4, 2, 2): a standard (a1, b1, a2, b2), written
                      as words in `generators`, whose commutator product
                      [a1,b1][a2,b2] is +-identity: the defining surface
                      relation in canonical form.
    vertices       -- the 8 octagon vertices (one equivalence class).
    """

    genus: int
    generators: np.ndarray
    side_pairings: np.ndarray
    canonical_generators: np.ndarray
    vertices: np.ndarray

    def neighbor_centers(self):
        """Images of 0 under the 8 neighbor translations, ordered so that
        entry s is the center of the octagon copy across side s."""
        t0 = act(self.generators[0], 0.0)
        return np.array([t0 * np.exp(1j * s * np.pi / 4) for s in range(8)])

    def octagon_relation_residual(self):
        """Entrywise residual of the octagon side-pairing relation
        g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 = +-identity."""
        g0, g1, g2, g3 = self.generators
        word = product(g0, inverse(g1), g2, inverse(g3),
                       inverse(g0), g1, inverse(g2), g3)
        return projective_distance(word, np.eye(2))

    def commutator_residual(self):
        """Entrywise residual of [a1,b1][a2,b2] = +-identity for the
        canonical generators."""
        a1, b1, a2, b2 = self.canonical_generators
        comm = lambda x, y: product(x, y, inverse(x), inverse(y))
        return projective_distance(product(comm(a1, b1), comm(a2, b2)), np.eye(2))

    def export_json(self, path, *, config_hash=None):
        """Write generators (8 reals each: Re and Im of a, b, c, d), the
        side-pairing table and the relation residuals."""
        eight = lambda g: g.reshape(4).view(float).tolist()
        payload = {
            "genus": self.genus,
            "generators": [eight(g) for g in self.generators],
            "side_pairings": {str(s): eight(self.side_pairings[s])
                              for k in range(4) for s in (k, k + 4)},
            "octagon_relation_residual": self.octagon_relation_residual(),
            "commutator_relation_residual": self.commutator_residual(),
        }
        return write_json(path, payload, config_hash)


def octagon_group(genus: int = 2) -> FuchsianGroup:
    """Surface group of the regular octagon with opposite-side pairing.

    Only genus 2 is validated; any other request raises UnsupportedGenus.
    The primitive translation T moves the origin along the positive real
    axis to the octagon copy across side 0 (cosh of half its translation
    length is 1+sqrt(2)); the remaining generators are its conjugates by
    rotations of k pi/4.
    """
    if genus != 2:
        raise UnsupportedGenus("only genus 2 is implemented, got %r" % (genus,))

    ch = 1 + np.sqrt(2.0)
    sh = np.sqrt(ch**2 - 1)
    T = unit_det([[ch, sh], [sh, ch]])
    g0, g1, g2, g3 = gens = [product(rotation(k * np.pi / 4), T, rotation(-k * np.pi / 4))
                             for k in range(4)]
    canonical = [
        g0,                                          # a1
        product(inverse(g1), g2, inverse(g3)),       # b1
        product(inverse(g1), g2),                    # a2
        product(inverse(g3), g1),                    # b2
    ]

    # octagon vertices: radius tanh(r_v/2) with cosh(r_v) = 3 + 2 sqrt(2),
    # at the odd multiples of pi/8
    rv = np.tanh(np.arccosh(3 + 2 * np.sqrt(2.0)) / 2)
    verts = rv * np.exp(1j * (2 * np.arange(8) + 1) * np.pi / 8)

    return FuchsianGroup(genus=genus, generators=np.array(gens),
                         # g_s carries side s+4 onto side s, so its inverse s onto s+4
                         side_pairings=np.array([inverse(g) for g in gens] + gens),
                         canonical_generators=np.array(canonical), vertices=verts)


def _sign_normalize(mats: np.ndarray) -> np.ndarray:
    """Pick the +-M representative with Re(a) > 0 (or Im(a) >= 0 on the
    boundary Re(a) ~ 0)."""
    a = mats[:, 0, 0]
    keep = (a.real > 1e-9) | ((np.abs(a.real) <= 1e-9) & (a.imag >= 0))
    sgn = np.where(keep, 1.0, -1.0)
    return mats * sgn[:, None, None]


def _dedup_keys(mats: np.ndarray):
    normed = _sign_normalize(mats)
    flat = normed.reshape(len(mats), 4)
    r = np.round(np.concatenate([flat.real, flat.imag], axis=1), DEDUP_DECIMALS)
    # quantize -0.0 to 0.0 so equal rounded rows have equal bytes
    r = np.ascontiguousarray(r + 0.0)
    return r.view(np.dtype((np.void, r.itemsize * r.shape[1]))).reshape(-1)


def enumerate_words(group: FuchsianGroup, L: int, *,
                    norm_cap: float | None = None) -> np.ndarray:
    """Breadth-first ball of reduced words of length <= L, as an (N, 2, 2)
    array stored shell by shell (word length 0, 1, ...): the ball of a
    shorter length is its leading block.

    Words are multiplied out to matrices and deduplicated projectively
    (entrywise radius 1e-9 via rounded-coordinate hashing after sign
    normalization), so the count is the number of distinct group elements
    reachable, not the number of free words.  `norm_cap` optionally drops
    elements with |a| beyond the cap; since |a| = cosh(d(0, gamma 0)/2),
    this truncates by translation distance and is inverse-closed.
    """
    if L < 0:
        raise ValueError("word length must be >= 0")
    step = np.roll(group.side_pairings, 4, axis=0)      # g_0..g_3, then inverses

    frontier = np.eye(2, dtype=complex)[None]
    seen = _dedup_keys(frontier)
    shells = [frontier]
    total = 1
    for _ in range(L):
        children = np.einsum("nij,gjk->ngik", frontier, step).reshape(-1, 2, 2)
        if norm_cap is not None:
            children = children[np.abs(children[:, 0, 0]) <= norm_cap]
        keys = _dedup_keys(children)
        # first occurrence of each key, in child order, unless seen before
        fresh = np.sort(np.unique(keys, return_index=True)[1])
        fresh = fresh[~np.isin(keys[fresh], seen)]
        if not len(fresh):
            break
        seen = np.concatenate([seen, keys[fresh]])
        frontier = _sign_normalize(children[fresh])
        total += len(frontier)
        if total > WORD_CAP:
            raise BudgetExceeded(
                "word ball exceeds cap of %d elements at length <= %d" % (WORD_CAP, L))
        shells.append(frontier)
    return np.concatenate(shells)


def reduce_to_domain(group: FuchsianGroup, z):
    """Carry each point of z into the octagon; returns (images, matrices).

    The octagon is the Dirichlet domain centered at 0, and tanh(d(w, c)/2)
    = |w - c| / |1 - conj(c) w|, so the ratio q of w's nearest neighbor
    center c decides it: w is outside iff q < |w| - REDUCE_TOL.  The band
    counts as inside, so the domain is closed and a point on a side is not
    carried back and forth between partner sides.  Every step moves each
    point outside by the side pairing of c, which carries the copy around
    c onto the octagon; matrices[i] is the product of those steps, which
    takes z[i] to images[i].  A point off the open disk, or still outside
    after REDUCE_STEPS steps, raises ValueError.
    """
    w = np.array(z, dtype=complex).reshape(-1)
    if not np.all(np.abs(w) < 1):
        raise ValueError("points must lie in the open unit disk")
    centers = group.neighbor_centers()
    # side_pairings[s] carries side s onto side s+4: the copy across side s
    # onto the octagon
    step = group.side_pairings
    mats = np.tile(np.eye(2, dtype=complex), (len(w), 1, 1))
    for _ in range(REDUCE_STEPS):
        q = np.abs((w[:, None] - centers) / (1 - np.conj(centers) * w[:, None]))
        near = q.argmin(axis=1)
        out = np.flatnonzero(q[np.arange(len(w)), near] < np.abs(w) - REDUCE_TOL)
        if not len(out):
            return w, mats
        h = step[near[out]]
        w[out] = act(h, w[out])
        mats[out] = h @ mats[out]
    raise ValueError("%d points not reduced in %d steps" % (len(out), REDUCE_STEPS))
