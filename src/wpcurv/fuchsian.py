"""Fuchsian group machinery for closed surfaces built from polygons.

The surface is realized as the quotient of the Poincare disk (SU(1,1)
model, metric density sigma(z) = 4/(1-|z|^2)^2) by the group generated
by the N side pairings of a centrally symmetric hyperbolic 2N-gon centered
at the origin, whose opposite sides are identified: `regular_group` builds
the regular one, `octagon_group` the genus-2 octagon.  A group element is a
2x2 complex array [[a, b], [c, d]] in SU(1,1), of unit determinant, acting
by z -> (az+b)/(cz+d); a set of elements is an (N, 2, 2) stack, such as
the word ball of `enumerate_words`.  The module functions renormalize
(`unit_det`), multiply (`product`), invert, act on points (`act`,
`derivative`, both over stacks too) and compare (`projective_distance`).
The polygon's vertices alone describe the fundamental domain: through
`FuchsianGroup.side_charts`, `reduce_to_domain` tests points side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .errors import BudgetExceeded, NearPole, ReductionFailure, UnsupportedGenus

POLE_TOL = 1e-14
DEDUP_DECIMALS = 8  # rounding used for the 1e-9 entrywise dedup radius
REDUCE_STEPS = 64  # side-pairing steps `reduce_to_domain` allows per point
REDUCE_TOL = 1e-12  # band of sinh(signed distance to a side) `reduce_to_domain` counts inside
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
    if not np.all(np.abs(den) > POLE_TOL):            # a NaN point fails it too
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
    """Surface group of a centrally symmetric 2N-gon with opposite sides paired.

    side_pairings -- (2N, 2, 2): row s carries side s onto side s + N
                     (mod 2N), so it carries the polygon onto the copy
                     across side s + N; rows N..2N-1 are the generators
                     g_0..g_{N-1}, rows 0..N-1 their inverses.
    vertices      -- the 2N polygon vertices; side s runs from vertex s-1
                     to vertex s.

    The genus is read off the polygon, and `relation_residual` checks that
    the pairings close up around its vertices.
    """

    side_pairings: np.ndarray
    vertices: np.ndarray

    @property
    def genus(self):
        """g = floor(N/2): a 4g-gon has one vertex cycle, a (4g+2)-gon two."""
        return len(self.vertices) // 4

    @property
    def rotation_order(self):
        """2N: z -> e^{2 pi i/2N} z maps the regular 2N-gon onto itself."""
        return len(self.vertices)

    @property
    def generators(self):
        """View of the N generators g_0..g_{N-1}, the rows N..2N-1 of
        `side_pairings`."""
        return self.side_pairings[len(self.side_pairings) // 2:]

    def side_charts(self):
        """(a, u): side s in its chart z -> (z - a_s)/(1 - conj(a_s) z) at
        a_s = vertex s-1, where it runs from 0 to u_s, the image of vertex s."""
        a = np.roll(self.vertices, 1)
        return a, (self.vertices - a) / (1 - np.conj(a) * self.vertices)

    def relation_residual(self):
        """Entrywise distance from +-identity of the vertex-cycle relation
        (Poincare's polygon theorem).  From vertex t, the pairing of side t + 1
        carries it to vertex t + 1 + N; the pairings met on the walk from
        vertex 0 back to it, last applied leftmost, compose to a map fixing
        vertex 0, the identity when the cycle's angles sum to 2 pi.  On a
        4g-gon the walk visits all 2N vertices; a (4g+2)-gon has two cycles."""
        two_n, step = len(self.vertices), len(self.vertices) // 2 + 1
        sides = (1 + step * np.arange(two_n // np.gcd(step, two_n))) % two_n
        return projective_distance(product(*self.side_pairings[sides[::-1]]), np.eye(2))

    def export_json(self, path, *, config_hash=None):
        """Write the genus, the 2N side-pairing rows in row order (8 reals
        each: Re and Im of a, b, c, d) and the relation residual."""
        payload = {
            "genus": self.genus,
            "side_pairings": self.side_pairings.reshape(-1, 4).view(float).tolist(),
            "relation_residual": self.relation_residual(),
        }
        return write_json(path, payload, config_hash)


def regular_group(sides: int) -> FuchsianGroup:
    """Surface group of the regular 2N-gon, 2N = `sides`, opposite sides
    paired; its gcd(N + 1, 2N) vertex cycles each sum to 2 pi, which fixes
    its angle at 2 pi gcd(N + 1, 2N)/2N.  The translation T across side 0 has
    cosh(l/2) = cos(angle/2) / sin(pi/2N); rows N..2N-1 are R(2 pi k/2N) T
    R(-2 pi k/2N), rows 0..N-1 their inverses, and the vertices are tanh(r/2)
    e^{i(2k+1) pi/2N}, cosh r = cot(angle/2) cot(pi/2N)."""
    angle = 2 * np.pi * np.gcd(sides // 2 + 1, sides) / sides
    ch = np.cos(angle / 2) / np.sin(np.pi / sides)
    sh = np.sqrt(ch**2 - 1)
    T = unit_det([[ch, sh], [sh, ch]])
    gens = [product(rotation(2 * np.pi * k / sides), T, rotation(-2 * np.pi * k / sides))
            for k in range(sides // 2)]
    rv = np.tanh(np.arccosh(1 / np.tan(angle / 2) / np.tan(np.pi / sides)) / 2)
    verts = rv * np.exp(1j * (2 * np.arange(sides) + 1) * np.pi / sides)
    return FuchsianGroup(side_pairings=np.array([inverse(g) for g in gens] + gens),
                         vertices=verts)


def octagon_group(genus: int = 2) -> FuchsianGroup:
    """Surface group of the regular octagon with opposite-side pairing, the
    `regular_group` of 8 sides whose angles sum to 2 pi.  Only genus 2 is
    validated; any other request raises UnsupportedGenus."""
    if genus != 2:
        raise UnsupportedGenus("only genus 2 is implemented, got %r" % (genus,))
    return regular_group(8)


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
    step = np.roll(group.side_pairings, len(group.generators), axis=0)  # g_k, then inverses

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
    """Carry each point of z into the polygon; returns (images, matrices).

    In side s's `side_charts` chart, where w is zeta and the side runs
    from 0 to u, the signed distance d from w to the side's geodesic
    (positive on the polygon's side) has sinh d = 2 Im(conj(u/|u|) zeta) /
    (1 - |zeta|^2); w is outside iff some side's is below -REDUCE_TOL.  The
    band counts as inside, so the domain is closed and a point on a side is
    not carried back and forth between partner sides.  Every step moves
    each point outside by the pairing of its most negative side s, which
    carries the copy across side s onto the polygon; matrices[i] is the
    product of those steps, which takes z[i] to images[i].  A point off the
    open disk, or outside after REDUCE_STEPS steps, raises ReductionFailure.
    """
    w = np.array(z, dtype=complex).reshape(-1)
    if not np.all(np.abs(w) < 1):
        raise ReductionFailure("points must lie in the open unit disk")
    a, u = group.side_charts()
    mats = np.tile(np.eye(2, dtype=complex), (len(w), 1, 1))
    for _ in range(REDUCE_STEPS):
        zeta = (w[:, None] - a) / (1 - np.conj(a) * w[:, None])
        sinh_d = 2 * (np.conj(u) / abs(u) * zeta).imag / (1 - abs(zeta) ** 2)
        side = sinh_d.argmin(axis=1)
        out = np.flatnonzero(sinh_d[np.arange(len(w)), side] < -REDUCE_TOL)
        if not len(out):
            return w, mats
        h = group.side_pairings[side[out]]
        w[out] = act(h, w[out])
        mats[out] = h @ mats[out]
    raise ReductionFailure("%d points not reduced in %d steps" % (len(out), REDUCE_STEPS))
