"""The real curvature operator Q on the second exterior power.

The real tangent basis is (x_1..x_n, y_1..y_n) with x_i, y_i the real and
imaginary directions of the i-th complex coordinate.  Q acts on the
m = C(2n, 2) wedge basis e_a ^ e_b (a < b) by

    Q(V1 ^ V2, V3 ^ V4) = R(V1, V2, V3, V4),

extended bilinearly.  The real basis is one fixed change of basis from
(t, tbar): x_i = t_i + tbar_i, y_i = i (t_i - tbar_i).  Q is one product
W R W^T of R, flattened to n^2 x n^2, with the fixed m x n^2 wedge map W
(`_wedge_map`): the real tensor is antisymmetric in each slot pair, so its
wedge pairs `np.triu_indices(2n, 1)` (index a < n is x_a, a >= n is
y_(a-n)) hold all of it.  The same pair order indexes `wedge_vector` and
`induced_action`.

A second, independent evaluation path expresses x^T Q x through integrals
of the two-point fields

    F(z,w) = sum a_ij mu_i(w) conj(mu_j(z))   (and H, K likewise),

the resolvent D and its Green kernel.  Its value is quadratic in the
wedge coordinates, so the path is a real symmetric m x m matrix, the sum
of two terms that make the sign of Q manifest (`integral_matrices`): a
D-term Q_D, non-positive when D is positive, and a Green term Q_G, a
negative sum of squares when G is positive and symmetric (the paper's
Cauchy-Schwarz step).  The zero locus is exactly the antisymmetric
cross-block, i.e. the range of (identity - J), where J is the involution
induced on wedges by the complex structure.

Both terms are contractions of one n^4 table taken through the weighted
Green kernel WG = w G w.  Since WG f = w D f, that is the tensor path's
pairing table, which `checks.tensor_assembly` hands to `integral_matrices`:
the paths share the table, and their comparison checks the wedge and sign
bookkeeping, not the discretization.  G's solved rows are read only by its own check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureTensor, kernel_table, weighted_D
from .errors import KernelDimMismatch, TypeImbalance

#: an eigenvalue of Q counts as zero when |lambda| <= TAU_REL_DEFAULT * max|lambda|
TAU_REL_DEFAULT = 1e-8


def induced_action(M: np.ndarray) -> np.ndarray:
    """Matrix of u ^ w -> Mu ^ Mw on the wedges e_a ^ e_b, a < b.

    (L M)[(c,d), (a,b)] = M[c,a] M[d,b] - M[d,a] M[c,b], with the pairs in
    `np.triu_indices` order on both sides.
    """
    r, c = np.triu_indices(len(M), 1)
    return M[np.ix_(r, r)] * M[np.ix_(c, c)] - M[np.ix_(c, r)] * M[np.ix_(r, c)]


@dataclass
class WedgeOperator:
    """m x m real symmetric matrix of Q on the wedge basis; leading axes
    hold a stack of them (`assemble_Q`, `spectrum` and `range_residual`
    take stacks)."""

    matrix: np.ndarray
    n: int

    @property
    def m(self):
        return self.matrix.shape[-1]

    def quad(self, x):
        return float(x @ self.matrix @ x)

    def eigenvalues_on(self, vectors: np.ndarray) -> np.ndarray:
        """Eigenvalues of Q on the span of the independent wedge vectors
        `vectors` (m x k): their extremes are those of x^T Q x on the unit
        sphere of that subspace."""
        U = np.linalg.qr(vectors)[0]
        return np.linalg.eigvalsh(U.T @ self.matrix @ U)


@functools.cache
def _wedge_map(n: int) -> np.ndarray:
    """W[(a,b), (h,j)] = U[a,h] V[b,j] - V[a,j] U[b,h] at the wedge pairs a < b,
    with U, V the t- and tbar-coefficients of the real basis vectors: a slot
    pair meets R only as (unbarred, barred), a reversed pair with a sign
    (built once per n, read-only)."""
    eye, (r, c) = np.eye(n), np.triu_indices(2 * n, 1)
    U, V = np.vstack([eye, 1j * eye]), np.vstack([eye, -1j * eye])
    W = (U[r, :, None] * V[c, None, :] - V[r, None, :] * U[c, :, None]).reshape(len(r), n * n)
    W.setflags(write=False)
    return W


def assemble_Q(R: CurvatureTensor) -> WedgeOperator:
    """Q = W R W^T through the `_wedge_map` W, symmetrized, for each tensor
    of a stack; an imaginary residue above 1e-10 * max|R| (the tensor's
    own) signals broken type bookkeeping."""
    W, lead = _wedge_map(R.n), R.entries.shape[:-4]
    full = W @ R.entries.reshape(*lead, W.shape[1], -1) @ W.T
    residue = np.abs(full.imag).max(axis=(-2, -1))
    scale = np.abs(R.entries).max(axis=(-4, -3, -2, -1))
    if not (residue <= 1e-10 * np.maximum(scale, 1e-300)).all():
        raise TypeImbalance("imaginary residue %.3g in a real curvature value"
                            % residue.max())
    return WedgeOperator(matrix=(full.real + np.swapaxes(full.real, -2, -1)) / 2, n=R.n)


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
    """`spectrum` of one Q; for a stack, eigenvalues (S, m) and each scalar
    field a list of S values."""

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
             *, strict=None) -> SpectrumReport:
    """Eigenvalues of the symmetric Q, counted against tau = tau_rel * max|lam|,
    for each matrix of a stack.  The gap ratio is the least |lam| above tau
    over tau, inf when there is none.  A positive mode or a zero count other
    than n(n-1) is counted, never raised; `kernel_check` is the form that
    raises.  `strict` is not read; the benchmark harness passes it.
    """
    lam = np.linalg.eigvalsh(Q.matrix)
    mag = np.abs(lam)
    tau = tau_rel * mag.max(axis=-1)
    neg = np.sum(lam < -tau[..., None], axis=-1)
    pos = np.sum(lam > tau[..., None], axis=-1)
    zero = lam.shape[-1] - neg - pos
    with np.errstate(divide="ignore"):         # a zero tau gives inf too
        gap = np.where(mag > tau[..., None], mag, np.inf).min(axis=-1) / tau
    return SpectrumReport(eigenvalues=lam, tau=tau.tolist(), num_negative=neg.tolist(),
                          num_zero=zero.tolist(), num_positive=pos.tolist(),
                          kernel_dim_expected=Q.n * (Q.n - 1), gap_ratio=gap.tolist(),
                          tau_rel=tau_rel)


def range_residual(Q: WedgeOperator, Jmat: np.ndarray):
    """||Q (I - J)|| / ||Q|| (Frobenius), zero when range(I - J) lies inside
    ker Q; a list of them for a stack.  Each norm is the one dot product
    `np.linalg.norm` takes for a single matrix, so a matrix gives the same
    value alone and in a stack."""
    def norm(A):
        flat = A.reshape(*A.shape[:-2], 1, -1)
        return np.sqrt(flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]

    return (norm(Q.matrix @ (np.eye(Q.m) - Jmat)) / norm(Q.matrix)).tolist()


def kernel_report(Q: WedgeOperator, spec: SpectrumReport, Jmat: np.ndarray) -> dict:
    """Both directions of the kernel characterization: range(I - J) lies
    inside ker Q (residual check), and the kernel is no larger: rank(Q) =
    m - n(n-1), and Q is strictly negative on the whole +1 eigenspace of
    the symmetric J (the largest eigenvalue of Q there is below -tau).
    Rank, tau and tau_rel are read off Q's `spectrum` `spec`; nothing is
    raised."""
    range_resid = range_residual(Q, Jmat)
    lam, vecs = np.linalg.eigh(Jmat)
    worst = float(Q.eigenvalues_on(vecs[:, lam > 0]).max())
    return {
        "range_residual_rel": range_resid,
        "range_ok": bool(range_resid <= spec.tau_rel),
        "rank": Q.m - spec.num_zero,
        "worst_plus_eigenspace_value": worst,
        "plus_eigenspace_negative": bool(worst < -spec.tau),
        "tau": spec.tau,
    }


def kernel_check(Q: WedgeOperator, Jmat: np.ndarray,
                 tau_rel: float = TAU_REL_DEFAULT) -> dict:
    """`kernel_report` on Q's own `spectrum`; the one form that raises,
    KernelDimMismatch when the zero count is not n(n-1)."""
    spec = spectrum(Q, tau_rel)
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


def weighted_green(surface, green):
    """WG = w G w, the Green kernel weighted on both slots, applied as
    `curvature.weighted_D` (WG f = w D f).  Its attribute `last_table` holds
    the last `_green_table` built through it.  `green` is not read; the
    benchmark harness passes it until its tracer stops wrapping this."""
    WG = weighted_D(surface)
    WG.last_table = None
    return WG


def _green_table(mu: np.ndarray, WG) -> np.ndarray:
    """T = `curvature.kernel_table`(mu, WG), kept with its fields in the
    `weighted_green` function's `last_table` and returned again for exactly
    equal fields, so `integral_form_Q`'s calls on one field set share it."""
    last = WG.last_table
    if last is not None and np.array_equal(last[0], mu):
        return last[1]
    T = kernel_table(mu, WG)
    T.setflags(write=False)
    WG.last_table = (mu.copy(), T)
    return T


def integral_matrices(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integral path as the real symmetric m x m pair (Q_D, Q_G), from
    T = `curvature.kernel_table`(mu, WG),
    T[i,j,k,l] = sum_pq WG[p,q] mu_i(q) conj(mu_j(q)) mu_k(p) conj(mu_l(p)).

    An element folds its yy-block into its xx-block (d = a + c; the wedge
    involution J sends xx-wedges to yy-wedges and preserves Q) and enters
    through L[p,q] = sum_ij coeff_ij mu_i(q) conj(mu_j(p)), coeff = d + ib.
    The unit wedge k has coeff C_k: E_ij for the xx- and yy-wedges of
    i < j, i E_ij for x_i ^ y_j.  Polarized over the C_k, the Green sums

        diag  = sum_pq WG[p,q] d(p) d(q)      = sum e_ij e_kl T[i,j,k,l],
        mod2  = sum_pq WG[p,q] |L[p,q]|^2     = sum coeff_ij conj(coeff_kl) T[i,k,l,j],
        cross = sum_pq WG[p,q] L[p,q] L[q,p]  = sum coeff_ij coeff_kl T[i,l,k,j],

    with d(p) = Im L[p,p] = sum_ij e_ij mu_i(p) conj(mu_j(p)) for the
    Hermitian e = (coeff - coeff^H) / 2i, give Q_D = -4 diag, the D-term
    -4 <d, D d>_w, and Q_G = -2 mod2 + 2 Re cross, which for a symmetric WG
    is -sum_pq WG[p,q] |L[p,q] - conj(L[q,p])|^2.  An element's value is
    x^T (Q_D + Q_G) x on its `wedge_vector` x; WG need not be symmetric.  On
    generic fields the tensor path matches d - ib instead (a known defect).
    """
    n = len(T)
    r, c = np.triu_indices(2 * n, 1)
    C = np.zeros((len(r), n, n), dtype=complex)
    C[np.arange(len(r)), r % n, c % n] = np.where((r < n) & (c >= n), 1j, 1)
    E = (C - np.conj(C).transpose(0, 2, 1)) / 2j
    diag = np.einsum("aij,bkl,ijkl->ab", E, E, T)
    mod2 = np.einsum("aij,bkl,iklj->ab", C, np.conj(C), T)
    cross = np.einsum("aij,bkl,ilkj->ab", C, C, T)
    return tuple((M + M.T) / 2 for M in (-4 * diag.real, 2 * cross.real - 2 * mod2.real))


def integral_form_Q(coeffs: dict, fields, surface, green, *, WG) -> float:
    """x^T (Q_D + Q_G) x for the `wedge_vector` x of {a, b, c}, from the
    `integral_matrices` of the (n, N) fields' `_green_table` through the
    `weighted_green` WG.  This per-element form, the table cache and the
    unread `surface` and `green` stay only for the benchmark harness, which
    calls it per element on one WG."""
    mu = np.asarray(fields, dtype=complex)
    x = wedge_vector(coeffs, len(mu))
    return float(x @ sum(integral_matrices(_green_table(mu, WG))) @ x)
