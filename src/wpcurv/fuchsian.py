"""Fuchsian group machinery for the genus-2 regular-octagon surface.

The surface is realized as the quotient of the Poincare disk (SU(1,1)
model, metric density sigma(z) = 4/(1-|z|^2)^2) by the group generated
by the four side pairings of the regular hyperbolic octagon centered at
the origin, whose opposite sides are identified.  All group elements are
unit-determinant 2x2 complex matrices acting by z -> (az+b)/(cz+d).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, NearPole, UnsupportedGenus

DET_TOL = 1e-12
POLE_TOL = 1e-14
DEDUP_DECIMALS = 8  # rounding used for the 1e-9 entrywise dedup radius


class MobiusMap:
    """Disk isometry z -> (az+b)/(cz+d), [[a,b],[c,d]] in SU(1,1).

    The matrix is renormalized to unit determinant on construction and
    after every product, so +-M ambiguity is the only slack left.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex).reshape(2, 2)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        self.mat = m / np.sqrt(det)

    @property
    def a(self):
        return self.mat[0, 0]

    @property
    def b(self):
        return self.mat[0, 1]

    @property
    def c(self):
        return self.mat[1, 0]

    @property
    def d(self):
        return self.mat[1, 1]

    def apply(self, z):
        """Image (az+b)/(cz+d); z may be scalar or array."""
        z = np.asarray(z, dtype=complex)
        den = self.c * z + self.d
        if np.any(np.abs(den) <= POLE_TOL):
            raise NearPole("evaluation within %g of the pole" % POLE_TOL)
        out = (self.a * z + self.b) / den
        return out[()] if out.ndim == 0 else out

    def derivative(self, z):
        """Complex derivative 1/(cz+d)^2 of the action at z."""
        z = np.asarray(z, dtype=complex)
        den = self.c * z + self.d
        if np.any(np.abs(den) <= POLE_TOL):
            raise NearPole("evaluation within %g of the pole" % POLE_TOL)
        out = 1.0 / den**2
        return out[()] if out.ndim == 0 else out

    def inverse(self):
        m = self.mat
        return MobiusMap([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])

    def __matmul__(self, other):
        return MobiusMap(self.mat @ other.mat)

    def trace(self):
        return self.mat[0, 0] + self.mat[1, 1]

    def su11_residual(self):
        """Max deviation from the SU(1,1) form d = conj(a), c = conj(b)."""
        m = self.mat
        return max(abs(m[1, 1] - np.conj(m[0, 0])), abs(m[1, 0] - np.conj(m[0, 1])))

    def dist_to(self, other):
        """Entrywise distance min(|M-N|, |M+N|) (projective comparison)."""
        d1 = np.abs(self.mat - other.mat).max()
        d2 = np.abs(self.mat + other.mat).max()
        return min(d1, d2)

    def __repr__(self):
        return "MobiusMap(a=%s, b=%s)" % (self.a, self.b)


def identity_map() -> MobiusMap:
    return MobiusMap(np.eye(2))


def rotation(angle: float) -> MobiusMap:
    """Rotation of the disk about the origin by `angle`."""
    return MobiusMap([[np.exp(1j * angle / 2), 0], [0, np.exp(-1j * angle / 2)]])


def hyperbolic_distance(z, w):
    """Distance in the Poincare disk of curvature -1."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    q = np.abs((z - w) / (1 - np.conj(z) * w))
    return 2 * np.arctanh(q)


@dataclass
class FuchsianGroup:
    """Surface group of the regular-octagon genus-2 surface.

    generators     -- the 2g = 4 side-pairing translations g_0..g_3; g_k is
                      the rotation conjugate R(k pi/4) g_0 R(-k pi/4) and
                      identifies octagon side k+4 with side k.
    side_pairings  -- side index s (0..7) -> map carrying side s onto its
                      partner side (s+4) mod 8.
    canonical_generators -- a standard (a1, b1, a2, b2) tuple, written as
                      words in `generators`, whose commutator product
                      [a1,b1][a2,b2] is +-identity: the defining surface
                      relation in canonical form.
    vertices       -- the 8 octagon vertices (one equivalence class).
    """

    genus: int
    generators: list
    side_pairings: dict
    canonical_generators: list
    vertices: np.ndarray

    @property
    def num_sides(self):
        return 4 * self.genus

    def side_generator_words(self):
        """All 8 neighbor translations: g_0..g_3 and their inverses."""
        return list(self.generators) + [g.inverse() for g in self.generators]

    def neighbor_centers(self):
        """Images of 0 under the 8 neighbor translations, ordered so that
        entry s is the center of the octagon copy across side s."""
        t0 = self.generators[0].apply(0.0)
        return np.array([t0 * np.exp(1j * s * np.pi / 4) for s in range(8)])

    def octagon_relation_residual(self):
        """Entrywise residual of the octagon side-pairing relation
        g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 = +-identity."""
        g0, g1, g2, g3 = self.generators
        word = (g0 @ g1.inverse() @ g2 @ g3.inverse()
                @ g0.inverse() @ g1 @ g2.inverse() @ g3)
        return word.dist_to(identity_map())

    def commutator_residual(self):
        """Entrywise residual of [a1,b1][a2,b2] = +-identity for the
        canonical generators."""
        a1, b1, a2, b2 = self.canonical_generators
        comm = lambda x, y: x @ y @ x.inverse() @ y.inverse()
        return (comm(a1, b1) @ comm(a2, b2)).dist_to(identity_map())

    def export_json(self, path):
        """Write generators (8 reals each), side-pairing table and the
        relation residuals."""
        def eight(g):
            return [g.a.real, g.a.imag, g.b.real, g.b.imag,
                    g.c.real, g.c.imag, g.d.real, g.d.imag]

        payload = {
            "genus": self.genus,
            "generators": [eight(g) for g in self.generators],
            "side_pairings": {str(s): eight(g) for s, g in self.side_pairings.items()},
            "octagon_relation_residual": self.octagon_relation_residual(),
            "commutator_relation_residual": self.commutator_residual(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        return payload


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
    T = MobiusMap([[ch, sh], [sh, ch]])
    gens = [rotation(k * np.pi / 4) @ T @ rotation(-k * np.pi / 4) for k in range(4)]

    side_pairings = {}
    for s in range(4):
        # g_s carries side s+4 onto side s, so its inverse carries s to s+4
        side_pairings[s] = gens[s].inverse()
        side_pairings[s + 4] = gens[s]

    g0, g1, g2, g3 = gens
    canonical = [
        g0,                                   # a1
        g1.inverse() @ g2 @ g3.inverse(),     # b1
        g1.inverse() @ g2,                    # a2
        g3.inverse() @ g1,                    # b2
    ]

    # octagon vertices: radius tanh(r_v/2) with cosh(r_v) = 3 + 2 sqrt(2),
    # at the odd multiples of pi/8
    rv = np.tanh(np.arccosh(3 + 2 * np.sqrt(2.0)) / 2)
    verts = rv * np.exp(1j * (2 * np.arange(8) + 1) * np.pi / 8)

    return FuchsianGroup(
        genus=genus,
        generators=gens,
        side_pairings=side_pairings,
        canonical_generators=canonical,
        vertices=verts,
    )


@dataclass
class GroupWordSet:
    """Deduplicated ball of reduced words of length <= max_length.

    `matrices` is an (N, 2, 2) complex array; projectively equal elements
    (+-M) are identified, the representative being the sign-normalized
    matrix.  When a norm cap was applied, `norm_cap` records it.  The
    matrices are stored shell by shell (word length 0, 1, ...) and
    `shell_sizes` records how many each shell holds.
    """

    max_length: int
    matrices: np.ndarray
    shell_sizes: tuple
    norm_cap: float | None = None
    _elements: list = field(default=None, repr=False, compare=False)

    @property
    def count(self):
        return len(self.matrices)

    @property
    def elements(self):
        if self._elements is None:
            self._elements = [MobiusMap(m) for m in self.matrices]
        return self._elements

    def __len__(self):
        return len(self.matrices)

    def ball(self, length: int) -> np.ndarray:
        """Matrices of the sub-ball of word length <= `length`; equal to
        `enumerate_words(group, length, norm_cap=self.norm_cap).matrices`."""
        if not 0 <= length <= self.max_length:
            raise ValueError("ball length %d outside 0..%d" % (length, self.max_length))
        return self.matrices[:sum(self.shell_sizes[:length + 1])]

    def contains(self, m: MobiusMap, tol: float = 1e-9) -> bool:
        d1 = np.abs(self.matrices - m.mat).max(axis=(1, 2))
        d2 = np.abs(self.matrices + m.mat).max(axis=(1, 2))
        return bool(np.minimum(d1, d2).min() <= tol)


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
    # quantize -0.0 to 0.0 so the rounded tuples hash consistently
    r = r + 0.0
    return [tuple(row) for row in r]


def enumerate_words(group: FuchsianGroup, L: int, *, norm_cap: float | None = None,
                    cap: int = 2_000_000) -> GroupWordSet:
    """Breadth-first ball of reduced words of length <= L.

    Words are multiplied out to matrices and deduplicated projectively
    (entrywise radius 1e-9 via rounded-coordinate hashing after sign
    normalization), so the count is the number of distinct group elements
    reachable, not the number of free words.  `norm_cap` optionally drops
    elements with |a| beyond the cap; since |a| = cosh(d(0, gamma 0)/2),
    this truncates by translation distance and is inverse-closed.
    """
    if L < 0:
        raise ValueError("word length must be >= 0")
    step = np.array([g.mat for g in group.side_generator_words()])

    frontier = np.eye(2, dtype=complex)[None]
    seen = set(_dedup_keys(frontier))
    shells = [frontier]
    total = 1
    for _ in range(L):
        children = np.einsum("nij,gjk->ngik", frontier, step).reshape(-1, 2, 2)
        if norm_cap is not None:
            children = children[np.abs(children[:, 0, 0]) <= norm_cap]
        keys = _dedup_keys(children)
        fresh = []
        for idx, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                fresh.append(idx)
        if not fresh:
            break
        frontier = _sign_normalize(children[fresh])
        total += len(frontier)
        if total > cap:
            raise BudgetExceeded(
                "word ball exceeds cap of %d elements at length <= %d" % (cap, L))
        shells.append(frontier)
    return GroupWordSet(max_length=L, matrices=np.concatenate(shells),
                        shell_sizes=tuple(len(sh) for sh in shells),
                        norm_cap=norm_cap)


def in_fundamental_domain(group: FuchsianGroup, z, tol: float = 1e-12):
    """Membership in the Dirichlet domain centered at 0 (the octagon).

    A point belongs iff it is at least as close (hyperbolic distance) to 0
    as to every neighbor center gamma(0); exact ties on a side boundary are
    broken toward the side of smaller index (sides 0..3 keep their points,
    their partners 4..7 do not).  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zf = z.reshape(-1)
    centers = group.neighbor_centers()
    d0 = hyperbolic_distance(zf, 0)
    margins = np.array([hyperbolic_distance(zf, c) - d0 for c in centers])
    mmin = margins.min(axis=0)
    inside = mmin > tol
    ties = np.abs(mmin) <= tol
    if np.any(ties):
        first = np.argmax(margins[:, ties] <= tol + mmin[ties], axis=0)
        inside[ties] = first < 4
    return bool(inside[0]) if scalar else inside.reshape(z.shape)
