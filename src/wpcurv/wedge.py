"""The real curvature operator Q on the second exterior power.

The real tangent basis is (x_1..x_n, y_1..y_n) with x_i, y_i the real and
imaginary directions of the i-th complex coordinate.  Q acts on the
m = C(2n, 2) wedge basis e_a ^ e_b (a < b) by

    Q(V1 ^ V2, V3 ^ V4) = R(V1, V2, V3, V4),

extended bilinearly.  The real basis is one fixed change of basis from
(t, tbar): x_i = t_i + tbar_i, y_i = i (t_i - tbar_i).  `real_tensor`
applies it to all four slots of the complex tensor in a single einsum
contraction, and Q is that real tensor read at the wedge pairs
`np.triu_indices(2n, 1)` (index a < n is x_a, a >= n is y_(a-n)).  The
same pair order indexes `wedge_vector` and `induced_action`.

A second, independent evaluation path expresses x^T Q x through integrals
of the two-point fields

    F(z,w) = sum a_ij mu_i(w) conj(mu_j(z))   (and H, K likewise),

the resolvent D and its Green kernel.  Its three-term structure makes the
sign of Q manifest: a non-positive D-term, a non-positive Green term, and
a cross term dominated by the Green term through the Cauchy-Schwarz
inequality (G positive and symmetric).  The zero locus is exactly the
antisymmetric cross-block, i.e. the range of (identity - J), where J is
the involution induced on wedges by the complex structure.

Both Green sums of such a field are contractions of one n^4 table,
`curvature.kernel_table` taken through the weighted Green kernel
WG = w G w: the function that builds the tensor path's pairing table
through W = w D, with the kernel swapped.  WG is an operator on the
Green kernel's solved orbit rows (`weighted_green`), each solved as a
column by the untransposed LU solve of K + 2M, which equals its
transpose bit for bit: no N x N array is ever formed, and the two paths
share the table's code but meet independent solves.  `_green_table`
keeps the last table on the operator, keyed by the exact fields, so one
table, and one product with WG, serves every element of a stage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import surface as surface_mod
from .artifacts import write_json
from .curvature import CurvatureTensor, kernel_table
from .errors import KernelDimMismatch, PositiveModeDetected, TypeImbalance

#: an eigenvalue of Q counts as zero when |lambda| <= TAU_REL_DEFAULT * max|lambda|
TAU_REL_DEFAULT = 1e-8
#: random unit elements of J's +1 eigenspace `kernel_report` evaluates, and their seed
KERNEL_SAMPLES = 20
KERNEL_SEED = 0


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
    if residue > 1e-10 * max(np.abs(R.entries).max(), 1e-300):
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


@functools.cache
def j_wedge_matrix(n: int) -> np.ndarray:
    """Matrix of the involution induced on wedges by J x_i = y_i, J y_i = -x_i
    (built once per n, read-only)."""
    eye, zero = np.eye(n), np.zeros((n, n))
    Jw = induced_action(np.block([[zero, -eye], [eye, zero]]))
    Jw.setflags(write=False)
    return Jw


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    tau: float
    num_negative: int
    num_zero: int
    num_positive: int
    kernel_dim_expected: int
    gap_ratio: float
    tau_rel: float              # tau / max|lambda|; not part of `to_dict`

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
    """Eigenvalues of the symmetric Q, counted against tau = tau_rel * max|lam|.

    With `strict`, a positive mode raises PositiveModeDetected and a zero
    count different from n(n-1) raises KernelDimMismatch; both signal an
    implementation (not theorem) failure.
    """
    lam = np.linalg.eigvalsh(Q.matrix)
    scale = np.abs(lam).max()
    tau = tau_rel * scale
    neg = int(np.sum(lam < -tau))
    pos = int(np.sum(lam > tau))
    zero = len(lam) - neg - pos
    expected = Q.n * (Q.n - 1)
    nonzero = np.abs(lam)[np.abs(lam) > tau]
    gap = float(nonzero.min() / tau) if (len(nonzero) and tau > 0) else float("inf")
    report = SpectrumReport(eigenvalues=lam, tau=float(tau), num_negative=neg,
                            num_zero=zero, num_positive=pos, kernel_dim_expected=expected,
                            gap_ratio=gap, tau_rel=tau_rel)
    if strict:
        if pos:
            raise PositiveModeDetected(
                "largest eigenvalue %.3g above tau %.3g" % (lam.max(), tau))
        if zero != expected:
            raise KernelDimMismatch(
                "found %d near-zero modes, expected %d" % (zero, expected))
    return report


def range_residual(Q: WedgeOperator, Jmat: np.ndarray) -> float:
    """||Q (I - J)|| / ||Q||, zero when range(I - J) lies inside ker Q."""
    return float(np.linalg.norm(Q.matrix @ (np.eye(Q.m) - Jmat)) / np.linalg.norm(Q.matrix))


def kernel_report(Q: WedgeOperator, spec: SpectrumReport, Jmat: np.ndarray) -> dict:
    """Both directions of the kernel characterization: range(I - J) lies
    inside ker Q (residual check), and the kernel is no larger: rank(Q) =
    m - n(n-1), and random unit elements of the +1 eigenspace of J are
    strictly negative directions.  Rank, tau and tau_rel are read off Q's
    `spectrum` `spec`; nothing is raised."""
    range_resid = range_residual(Q, Jmat)
    rng = np.random.default_rng(KERNEL_SEED)
    worst = -np.inf
    for _ in range(KERNEL_SAMPLES):
        v = rng.standard_normal(Q.m)
        v = (v + Jmat @ v) / 2          # project onto the +1 eigenspace
        v /= np.linalg.norm(v)
        worst = max(worst, Q.quad(v))
    return {
        "range_residual_rel": range_resid,
        "range_ok": bool(range_resid <= spec.tau_rel),
        "rank": Q.m - spec.num_zero,
        "worst_plus_eigenspace_value": float(worst),
        "plus_eigenspace_negative": bool(worst < -spec.tau),
        "tau": spec.tau,
    }


def kernel_check(Q: WedgeOperator, Jmat: np.ndarray,
                 tau_rel: float = TAU_REL_DEFAULT) -> dict:
    """`kernel_report` on Q's own `spectrum`; KernelDimMismatch when the
    zero count is not n(n-1)."""
    spec = spectrum(Q, tau_rel, strict=False)
    if spec.num_zero != spec.kernel_dim_expected:
        raise KernelDimMismatch("rank %d, expected %d"
                                % (Q.m - spec.num_zero, Q.m - spec.kernel_dim_expected))
    return kernel_report(Q, spec, Jmat)


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


def weighted_green(surface, green) -> spla.LinearOperator:
    """WG V = w * G(w * V): the Green kernel weighted on both slots, applied
    through `green.matmat`; no N x N array is formed.  `last_table` holds
    the last `_green_table` built through it."""
    w = surface.weights

    def matmat(V):
        ww = w.reshape((-1,) + (1,) * (np.ndim(V) - 1))
        return ww * green.matmat(ww * V)

    op = spla.LinearOperator((len(w), len(w)), matvec=matmat, matmat=matmat,
                             dtype=float)
    op.last_table = None
    return op


def _diagonal(coeff, mu: np.ndarray) -> np.ndarray:
    """L[p,p] of L[p,q] = sum_ij coeff_ij mu_i(q) conj(mu_j(p))."""
    return np.sum(np.conj(mu) * (np.asarray(coeff, dtype=complex).T @ mu), axis=0)


def _green_table(mu: np.ndarray, WG) -> np.ndarray:
    """T = `curvature.kernel_table`(mu, WG) for a `weighted_green` operator,
    which keeps the last T with its fields (`last_table`) and returns it
    again for fields equal to those exactly, so the elements of one stage
    share one table."""
    last = WG.last_table
    if last is not None and np.array_equal(last[0], mu):
        return last[1]
    T = kernel_table(mu, WG)
    T.setflags(write=False)
    WG.last_table = (mu.copy(), T)
    return T


def _green_sums(T: np.ndarray, coeff) -> tuple[complex, complex]:
    """Green sums of the two-point field L[p,q] = sum_ij coeff_ij mu_i(q)
    conj(mu_j(p)) as contractions of T = `curvature.kernel_table`(mu, WG):

        mod2  = sum_pq WG[p,q] |L[p,q]|^2
              = sum coeff_ij conj(coeff_kl) T[i,k,l,j],
        cross = sum_pq WG[p,q] L[p,q] L[q,p]
              = sum coeff_ij coeff_kl T[i,l,k,j],

    with (WG v)(p) = sum_q WG[p,q] v(q).  WG need not be symmetric, and
    no N x N field is formed.
    """
    coeff = np.asarray(coeff, dtype=complex)
    mod2 = np.einsum("ij,kl,iklj->", coeff, np.conj(coeff), T)
    cross = np.einsum("ij,kl,ilkj->", coeff, coeff, T)
    return complex(mod2), complex(cross)


def integral_form_Q(coeffs: dict, fields, surface, green, *, WG=None) -> float:
    """Quadratic value of the full element {a, b, c} by the integral path.

    The yy-block is folded into the xx-block first (d = a + c; the wedge
    involution J sends xx-wedges to yy-wedges and preserves Q), then the
    three-term combined formula is evaluated with L = F_d + i H, whose
    coefficients are d + i b.  The fields are an (n, N) array.
    """
    mu = np.asarray(fields, dtype=complex)
    zero = np.zeros((len(mu),) * 2)
    a, b, c = (np.asarray(coeffs.get(key, zero), dtype=float) for key in "abc")
    if WG is None:
        WG = weighted_green(surface, green)
    coeff = (a + c) + 1j * b
    diag_part = _diagonal(coeff, mu).imag
    u = surface_mod.apply_D(surface, diag_part)
    t1 = -4 * float(np.sum(surface.weights * u * diag_part))
    mod2, cross = _green_sums(_green_table(mu, WG), coeff)
    return t1 - 2 * mod2.real + 2 * cross.real


def cauchy_schwarz_slack(coeff, T: np.ndarray) -> dict:
    """|sum WG L(z,w) L(w,z)|  <=  sum WG |L(z,w)|^2 (G positive, symmetric)
    for L[p,q] = sum_ij coeff_ij mu_i(q) conj(mu_j(p)), from the table
    T = `curvature.kernel_table`(mu, WG)."""
    rhs, lhs = _green_sums(T, coeff)
    return {"lhs_abs": abs(lhs), "rhs": rhs.real}


def export_spectrum_json(report: SpectrumReport, kernel: dict, path, *,
                         config_hash=None):
    payload = {"spectrum": report.to_dict(), "kernel_check": kernel}
    return write_json(path, payload, config_hash)


def export_spectrum_csv(report: SpectrumReport, path):
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, lam in enumerate(report.eigenvalues):
            fh.write("%d,%.17g\n" % (i, lam))
