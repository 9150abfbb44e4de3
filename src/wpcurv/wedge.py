"""The real curvature operator Q on the second exterior power.

The real tangent basis is (x_1..x_n, y_1..y_n) with x_i, y_i the real and
imaginary directions of the i-th complex coordinate.  Q acts on the
m = C(2n, 2) wedge basis e_a ^ e_b (a < b) by

    Q(V1 ^ V2, V3 ^ V4) = R(V1, V2, V3, V4),

extended bilinearly.  The real basis is one fixed change of basis from
(t, tbar): x_i = t_i + tbar_i, y_i = i (t_i - tbar_i).  `real_tensor`
applies it to all four slots of the complex tensor in a single einsum
contraction, and Q is that real tensor read at the wedge pairs
`np.triu_indices(2n, 1)`.  The same pair order indexes `wedge_vector`
and the induced action of a linear map on wedges (`induced_action`).

A second, independent evaluation path expresses x^T Q x through integrals
of the two-point fields

    F(z,w) = sum a_ij mu_i(w) conj(mu_j(z))   (and H, K likewise),

the resolvent D and its Green kernel.  Its three-term structure makes the
sign of Q manifest: a non-positive D-term, a non-positive Green term, and
a cross term dominated by the Green term through the Cauchy-Schwarz
inequality (G positive and symmetric).  The zero locus is exactly the
antisymmetric cross-block, i.e. the range of (identity - J), where J is
the involution induced on wedges by the complex structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import surface as surface_mod
from .curvature import CurvatureTensor
from .errors import KernelDimMismatch, PositiveModeDetected, TypeImbalance

TAU_REL_DEFAULT = 1e-8


def wedge_basis(n: int):
    """Ordered pairs (a, b), a < b, over indices 0..2n-1.

    Index a < n is the direction x_a; index a >= n is y_(a-n).
    """
    return list(zip(*(idx.tolist() for idx in np.triu_indices(2 * n, 1))))


def induced_action(M: np.ndarray) -> np.ndarray:
    """Matrix of u ^ w -> Mu ^ Mw on the wedges e_a ^ e_b, a < b.

    (L M)[(c,d), (a,b)] = M[c,a] M[d,b] - M[d,a] M[c,b], with the pairs in
    `np.triu_indices` order on both sides.
    """
    r, c = np.triu_indices(len(M), 1)
    return M[np.ix_(r, r)] * M[np.ix_(c, c)] - M[np.ix_(c, r)] * M[np.ix_(r, c)]


def real_tensor(R: CurvatureTensor) -> np.ndarray:
    """R(e_a, e_b, e_c, e_d) over the real basis (x_1..x_n, y_1..y_n).

    U and V hold the t- and tbar-coefficients of each real basis vector
    (x_i = t_i + tbar_i, y_i = i (t_i - tbar_i)).  Only a slot pair with one
    unbarred and one barred index survives; a (barred, unbarred) pair is
    reordered to the stored (holo, anti) order of R with a sign, so each
    pair enters through T[a,b,h,j] = U[a,h] V[b,j] - V[a,j] U[b,h].  The
    imaginary residue must vanish; above 1e-10 * max|R| it signals broken
    type bookkeeping.
    """
    eye = np.eye(R.n)
    U = np.vstack([eye, 1j * eye])
    V = np.vstack([eye, -1j * eye])
    T = np.einsum("ah,bj->abhj", U, V) - np.einsum("aj,bh->abhj", V, U)
    full = np.einsum("abhj,cdkl,hjkl->abcd", T, T, R.entries, optimize=True)
    residue = np.abs(full.imag).max()
    if residue > 1e-10 * max(R.max_abs(), 1e-300):
        raise TypeImbalance(
            "imaginary residue %.3g in a real curvature value" % residue)
    return full.real


@dataclass
class WedgeOperator:
    """m x m real symmetric matrix of Q on the wedge basis."""

    matrix: np.ndarray
    n: int
    symmetry_residual: float

    @property
    def m(self):
        return len(self.matrix)

    def quad(self, x):
        return float(x @ self.matrix @ x)


def assemble_Q(R: CurvatureTensor) -> WedgeOperator:
    """Read Q off the real tensor at the wedge pairs and symmetrize."""
    r, c = np.triu_indices(2 * R.n, 1)
    Q = real_tensor(R)[r, c][:, r, c]
    scale = max(np.abs(Q).max(), 1e-300)
    resid = float(np.abs(Q - Q.T).max() / scale)
    return WedgeOperator(matrix=(Q + Q.T) / 2, n=R.n, symmetry_residual=resid)


def j_wedge_matrix(n: int) -> np.ndarray:
    """Matrix of the involution induced on wedges by J x_i = y_i, J y_i = -x_i."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return induced_action(np.block([[zero, -eye], [eye, zero]]))


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    tau: float
    num_negative: int
    num_zero: int
    num_positive: int
    kernel_dim_expected: int
    gap_ratio: float

    def to_dict(self):
        return {
            "eigenvalues": list(self.eigenvalues),
            "tau": self.tau,
            "counts": [self.num_negative, self.num_zero, self.num_positive],
            "kernel_dim_expected": self.kernel_dim_expected,
            "gap_ratio": self.gap_ratio,
        }


def spectrum(Q: WedgeOperator, tau_rel: float = TAU_REL_DEFAULT,
             *, strict: bool = True) -> SpectrumReport:
    """Eigendecomposition with sign counts against tau = tau_rel * max|lam|.

    With `strict`, a positive mode raises PositiveModeDetected and a zero
    count different from n(n-1) raises KernelDimMismatch; both signal an
    implementation (not theorem) failure.
    """
    lam = np.linalg.eigvalsh((Q.matrix + Q.matrix.T) / 2)
    scale = np.abs(lam).max()
    tau = tau_rel * scale
    neg = int(np.sum(lam < -tau))
    pos = int(np.sum(lam > tau))
    zero = len(lam) - neg - pos
    expected = Q.n * (Q.n - 1)
    nonzero = np.abs(lam)[np.abs(lam) > tau]
    gap = float(nonzero.min() / tau) if (len(nonzero) and tau > 0) else float("inf")
    report = SpectrumReport(eigenvalues=lam, tau=float(tau), num_negative=neg,
                            num_zero=zero, num_positive=pos,
                            kernel_dim_expected=expected, gap_ratio=gap)
    if strict:
        if pos:
            raise PositiveModeDetected(
                "largest eigenvalue %.3g above tau %.3g" % (lam.max(), tau))
        if zero != expected:
            raise KernelDimMismatch(
                "found %d near-zero modes, expected %d" % (zero, expected))
    return report


def kernel_check(Q: WedgeOperator, Jmat: np.ndarray,
                 tau_rel: float = TAU_REL_DEFAULT, *, num_random: int = 20,
                 seed: int = 0) -> dict:
    """Both directions of the kernel characterization.

    range(I - J) lies inside ker Q (residual check), and the kernel is no
    larger: rank(Q) = m - n(n-1), and random unit elements of the +1
    eigenspace of J are strictly negative directions.
    """
    m = Q.m
    lam = np.linalg.eigvalsh((Q.matrix + Q.matrix.T) / 2)
    tau = tau_rel * np.abs(lam).max()
    range_resid = np.linalg.norm(Q.matrix @ (np.eye(m) - Jmat)) / np.linalg.norm(Q.matrix)
    rank = int(np.sum(np.abs(lam) > tau))
    expected_rank = m - Q.n * (Q.n - 1)
    if rank != expected_rank:
        raise KernelDimMismatch("rank %d, expected %d" % (rank, expected_rank))

    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(num_random):
        v = rng.standard_normal(m)
        v = (v + Jmat @ v) / 2          # project onto the +1 eigenspace
        v /= np.linalg.norm(v)
        worst = max(worst, Q.quad(v))
    return {
        "range_residual_rel": float(range_resid),
        "range_ok": bool(range_resid <= tau_rel),
        "rank": rank,
        "worst_plus_eigenspace_value": float(worst),
        "plus_eigenspace_negative": bool(worst < -tau),
        "tau": float(tau),
    }


# ---------------------------------------------------------------------------
# integral-form evaluation


def wedge_vector(coeffs: dict, n: int) -> np.ndarray:
    """Coordinates of a {a, b, c} coefficient triple in the wedge basis.

    a and c are n x n real matrices of xx- and yy-components (only their
    antisymmetric parts matter), b is the full n x n cross block; the
    block matrix [[a - a^T, b], [0, c - c^T]] is read at the pairs a < b.
    """
    zero = np.zeros((n, n))
    a, b, c = (np.asarray(coeffs.get(key, zero), dtype=float) for key in "abc")
    return np.block([[a - a.T, b], [zero, c - c.T]])[np.triu_indices(2 * n, 1)]


def pair_field(coeff: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Two-point field L[p, q] = sum_ij coeff_ij mu_i(q) conj(mu_j(p))."""
    coeff = np.asarray(coeff, dtype=complex)
    return np.conj(mu).T @ (coeff.T @ mu)


def weighted_green(surface, green) -> np.ndarray:
    """Green kernel contracted with the quadrature weights on both slots."""
    w = surface.weights
    return green.matrix * np.outer(w, w)


def _d_term(surface, diag_part: np.ndarray) -> float:
    """sum_p w_p D(diag_part)(p) diag_part(p) for a real diagonal field."""
    u = surface_mod.apply_D(surface, diag_part)
    return float(np.sum(surface.weights * u * diag_part))


def _green_quad(WG: np.ndarray, L: np.ndarray) -> tuple[float, float]:
    """(sum WG |L|^2, Re sum WG L(z,w) L(w,z)) without large complex temps."""
    Lr, Li = L.real, L.imag
    mod2 = float(np.sum(WG * (Lr * Lr + Li * Li)))
    cross = float(np.sum(WG * (Lr * Lr.T)) - np.sum(WG * (Li * Li.T)))
    return mod2, cross


def q_cross_term(a, b, fields, surface, green, *, WG=None) -> float:
    """Mixed value Q(xx-element(a), cross-element(b))."""
    mu = np.array([f.values for f in fields])
    if WG is None:
        WG = weighted_green(surface, green)
    F = pair_field(a, mu)
    H = pair_field(b, mu)
    u = surface_mod.apply_D(surface, np.diag(F).imag)
    t1 = -4 * float(np.sum(surface.weights * u * np.diag(H).real))
    Fr, Fi, Hr, Hi = F.real, F.imag, H.real, H.imag
    # Im sum WG F conj(H) and Im sum WG F(z,w) H(w,z), real arithmetic
    im_fh_bar = float(np.sum(WG * (Fi * Hr - Fr * Hi)))
    im_fh_swap = float(np.sum(WG * (Fr * Hi.T)) + np.sum(WG * (Fi * Hr.T)))
    return t1 - 2 * im_fh_bar - 2 * im_fh_swap


def integral_form_Q(coeffs: dict, fields, surface, green, *, WG=None) -> float:
    """Quadratic value of the full element {a, b, c} by the integral path.

    The yy-block is folded into the xx-block first (d = a + c; the wedge
    involution J sends xx-wedges to yy-wedges and preserves Q), then the
    three-term combined formula is evaluated with L = F_d + i H.
    """
    mu = np.array([f.values for f in fields])
    n = len(mu)
    a = np.asarray(coeffs.get("a", np.zeros((n, n))), dtype=float)
    b = np.asarray(coeffs.get("b", np.zeros((n, n))), dtype=float)
    c = np.asarray(coeffs.get("c", np.zeros((n, n))), dtype=float)
    if WG is None:
        WG = weighted_green(surface, green)
    d = a + c
    L = pair_field(d, mu) + 1j * pair_field(b, mu)
    t1 = -4 * _d_term(surface, np.diag(L).imag)
    mod2, cross = _green_quad(WG, L)
    return t1 - 2 * mod2 + 2 * cross


def cross_term_consistency(a, b, fields, surface, green, *, WG=None) -> dict:
    """Compare the standalone cross-term formula with its polarization.

    The polarization identity Q(A,B) = (Q(A+B,A+B) - Q(A,A) - Q(B,B)) / 2
    uses only the combined formula on single blocks, so a mismatch here
    isolates a sign or factor problem in the standalone cross term.
    """
    if WG is None:
        WG = weighted_green(surface, green)
    direct = q_cross_term(a, b, fields, surface, green, WG=WG)
    total = integral_form_Q({"a": a, "b": b}, fields, surface, green, WG=WG)
    qa = integral_form_Q({"a": a}, fields, surface, green, WG=WG)
    qb = integral_form_Q({"b": b}, fields, surface, green, WG=WG)
    polarized = (total - qa - qb) / 2
    return {
        "direct": direct,
        "polarized": polarized,
        "abs_difference": abs(direct - polarized),
    }


def cauchy_schwarz_slack(L: np.ndarray, WG: np.ndarray) -> dict:
    """|sum WG L(z,w) L(w,z)|  <=  sum WG |L(z,w)|^2 (G positive, symmetric)."""
    Lr, Li = L.real, L.imag
    lhs_re = float(np.sum(WG * (Lr * Lr.T)) - np.sum(WG * (Li * Li.T)))
    lhs_im = float(np.sum(WG * (Lr * Li.T)) + np.sum(WG * (Li * Lr.T)))
    rhs = float(np.sum(WG * (Lr * Lr + Li * Li)))
    return {"lhs_abs": abs(complex(lhs_re, lhs_im)), "rhs": rhs}


def export_spectrum_json(report: SpectrumReport, kernel_report: dict, path):
    payload = {"spectrum": report.to_dict(), "kernel_check": kernel_report}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return payload


def export_spectrum_csv(report: SpectrumReport, path):
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, lam in enumerate(report.eigenvalues):
            fh.write("%d,%.17g\n" % (i, lam))
