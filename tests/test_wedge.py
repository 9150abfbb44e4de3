"""Wedge-space operator Q: assembly, involution, spectrum, integral forms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcurv import qdiff, surface, wedge
from wpcurv.curvature import CurvatureTensor, kernel_table
from wpcurv.errors import KernelDimMismatch, PositiveModeDetected, TypeImbalance


def test_j_matrix_involution_and_trace():
    for n in (2, 3):
        J = wedge.j_wedge_matrix(n)
        m = len(J)
        assert np.array_equal(J @ J, np.eye(m))
        # eigenspace dimensions: +1 has n^2, -1 has n(n-1)
        lam = np.linalg.eigvalsh((J + J.T) / 2)
        assert int(round(np.trace(J))) == n
        assert np.sum(lam > 0) == n * n
        assert np.sum(lam < 0) == n * (n - 1)


def test_j_wedge_matrix_built_once_read_only():
    J = wedge.j_wedge_matrix(3)
    assert wedge.j_wedge_matrix(3) is J
    assert not J.flags.writeable
    with pytest.raises(ValueError):
        J[0, 0] = 1.0


# real basis indices for n = 3: x_i = i, y_i = 3 + i


def test_real_curvature_repeated_vector_zero(pipe3):
    R = pipe3["tensor"]
    real = wedge.real_tensor(R)
    for a in (0, 4):                # x_0, y_1
        assert abs(real[a, a, 1, 5]) < 1e-12 * np.abs(R.entries).max()


def test_real_curvature_xxxx_equals_yyyy(pipe3):
    real = wedge.real_tensor(pipe3["tensor"])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        xx = real[i, j, i, j]
        yy = real[3 + i, 3 + j, 3 + i, 3 + j]
        assert xx == pytest.approx(yy, rel=1e-10)


def test_single_entry_tensor_sign_convention():
    """With only R[0,0,0,0] = 1, x_0 ^ y_0 = -2i t_0 ^ tbar_0 gives
    Q(x_0^y_0, x_0^y_0) = (-2i)^2 = -4, and x_0 ^ x_1 pairs t_0 with
    tbar_1 (or t_1 with tbar_0), which R does not see."""
    entries = np.zeros((3, 3, 3, 3), dtype=complex)
    entries[0, 0, 0, 0] = 1.0
    Q = wedge.assemble_Q(CurvatureTensor(entries))
    index = {p: i for i, p in enumerate(zip(*np.triu_indices(6, 1)))}
    x0y0, x0x1 = index[(0, 3)], index[(0, 1)]
    assert Q.matrix[x0y0, x0y0] == -4.0
    assert Q.matrix[x0x1, x0x1] == 0.0


def test_assemble_Q_shape_and_symmetry(pipe3):
    Q = pipe3["Q"]
    assert Q.matrix.shape == (15, 15)
    assert Q.symmetry_residual < 1e-12
    assert np.array_equal(Q.matrix, Q.matrix.T)


def test_Q_commutes_with_J(pipe3, jmat3):
    Q = pipe3["Q"].matrix
    assert np.abs(Q @ jmat3 - jmat3 @ Q).max() < 1e-9 * np.abs(Q).max()


def test_xx_subblock_negative_definite(pipe3):
    """Q restricted to the antisymmetric xx-wedges is strictly negative."""
    idx = [k for k, b in enumerate(np.triu_indices(6, 1)[1]) if b < 3]
    sub = pipe3["Q"].matrix[np.ix_(idx, idx)]
    assert np.linalg.eigvalsh(sub).max() < 0


def test_reduced_elements_are_null(pipe3):
    Q = pipe3["Q"]
    tau = 1e-8 * np.abs(Q.matrix).max()
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        b = np.zeros((3, 3))
        b[i, j], b[j, i] = 1.0, -1.0
        x = wedge.wedge_vector({"b": b}, 3)
        assert abs(Q.quad(x)) < tau


def test_spectrum_counts(pipe3):
    rep = wedge.spectrum(pipe3["Q"])
    assert (rep.num_negative, rep.num_zero, rep.num_positive) == (9, 6, 0)
    assert rep.gap_ratio > 1e2


def test_spectrum_strict_raises_on_positive():
    fake = wedge.WedgeOperator(matrix=np.eye(15), n=3, symmetry_residual=0.0)
    with pytest.raises(PositiveModeDetected):
        wedge.spectrum(fake)


def test_spectrum_strict_raises_on_kernel_mismatch():
    fake = wedge.WedgeOperator(matrix=-np.eye(15), n=3, symmetry_residual=0.0)
    with pytest.raises(KernelDimMismatch):
        wedge.spectrum(fake)


def test_kernel_check_report(pipe3, jmat3):
    rep = wedge.kernel_check(pipe3["Q"], jmat3)
    assert rep["range_ok"]
    assert rep["rank"] == 9
    assert rep["plus_eigenspace_negative"]


def test_kernel_check_is_the_report_of_one_spectrum(pipe3, jmat3):
    """`kernel_check` is `kernel_report` on the spectrum taken with the same
    tau_rel, which the report carries (and `to_dict` leaves out)."""
    Q, tau_rel = pipe3["Q"], 1e-9
    spec = wedge.spectrum(Q, tau_rel, strict=False)
    assert spec.tau_rel == tau_rel and "tau_rel" not in spec.to_dict()
    assert wedge.kernel_check(Q, jmat3, tau_rel) == wedge.kernel_report(Q, spec, jmat3)


def test_kernel_check_raises_on_rank_mismatch():
    Q = wedge.WedgeOperator(matrix=-np.eye(15), n=3, symmetry_residual=0.0)
    with pytest.raises(KernelDimMismatch, match="rank 15, expected 9"):
        wedge.kernel_check(Q, wedge.j_wedge_matrix(3))


def test_wedge_vector_roundtrip():
    """Coefficients land on the expected basis slots."""
    index = {p: i for i, p in enumerate(zip(*np.triu_indices(4, 1)))}
    a = np.array([[0.0, 2.0], [0.5, 0.0]])
    b = np.array([[1.0, -1.0], [3.0, 4.0]])
    x = wedge.wedge_vector({"a": a, "b": b}, 2)
    assert x[index[(0, 1)]] == pytest.approx(1.5)   # a antisymmetrized
    assert x[index[(0, 2)]] == pytest.approx(1.0)   # b[0,0]
    assert x[index[(1, 3)]] == pytest.approx(4.0)   # b[1,1]
    assert x[index[(2, 3)]] == pytest.approx(0.0)   # no c part


def test_green_sums_oracle():
    """The factored Green sums equal explicit double sums over the nodes,
    for a non-symmetric weighted kernel."""
    rng = np.random.default_rng(0)
    n, N = 2, 5
    mu = rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))
    coeff = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    WG = rng.standard_normal((N, N))

    def field(p, q):
        return sum(coeff[i, j] * mu[i, q] * np.conj(mu[j, p])
                   for i in range(n) for j in range(n))

    mod2 = sum(WG[p, q] * field(p, q) * np.conj(field(p, q))
               for p in range(N) for q in range(N))
    cross = sum(WG[p, q] * field(p, q) * field(q, p)
                for p in range(N) for q in range(N))
    got = wedge._green_sums(kernel_table(mu, WG), coeff)
    assert got[0] == pytest.approx(mod2, rel=1e-13)
    assert got[1] == pytest.approx(cross, rel=1e-13)


class _RecordingWG:
    """Delegates to a weighted kernel and records the columns it is handed."""

    def __init__(self, WG):
        self.WG, self.columns, self.last_table = WG, [], None

    def __matmul__(self, X):
        assert np.isrealobj(X)
        self.columns.append(X.shape[1])
        return self.WG @ X


def test_green_sums_hand_WG_n_squared_columns(pipe3, surf3, green3):
    """Each Green table applies WG once, to the n^2 real columns of the
    products mu_i conj(mu_k); the integral path takes one table for two
    elements on the same fields."""
    mu = pipe3["fields"]
    WG = _RecordingWG(wedge.weighted_green(surf3, green3))
    rng = np.random.default_rng(8)
    a, b, c = rng.standard_normal((3, 3, 3))
    wedge.integral_form_Q({"a": a, "b": b, "c": c}, mu, surf3, green3, WG=WG)
    wedge.integral_form_Q({"a": c, "b": a}, mu, surf3, green3, WG=WG)
    wedge.cauchy_schwarz_slack(a + 1j * b, kernel_table(mu, WG))
    assert WG.columns == [9, 9]


def test_weighted_green_keeps_its_last_table(pipe3, surf3, green3, monkeypatch):
    """The operator builds the table once per field set: equal fields reuse
    it with no product, and fields scaled by 2 rebuild it, bit for bit as a
    fresh operator builds it."""
    mu = pipe3["fields"]
    WG = wedge.weighted_green(surf3, green3)
    calls = []
    matmat = surface.GreenKernel.matmat
    monkeypatch.setattr(surface.GreenKernel, "matmat",
                        lambda self, V: calls.append(1) or matmat(self, V))
    T = wedge._green_table(mu, WG)
    assert wedge._green_table(mu.copy(), WG) is T
    assert len(calls) == 1
    T2 = wedge._green_table(2 * mu, WG)
    assert len(calls) == 2
    assert np.array_equal(T2, kernel_table(2 * mu, wedge.weighted_green(surf3, green3)))
    assert not np.array_equal(T2, T)
    scaled = [qdiff.BeltramiField(row) for row in 2 * mu]
    rng = np.random.default_rng(3)
    coeffs = {key: rng.standard_normal((3, 3)) for key in "abc"}
    assert (wedge.integral_form_Q(coeffs, scaled, surf3, green3, WG=WG)
            == wedge.integral_form_Q(coeffs, scaled, surf3, green3))


def test_real_tensor_planted_imaginary_residue_is_type_imbalance(pipe3):
    entries = pipe3["tensor"].entries.copy()
    entries[0, 0, 0, 0] += 1e-6j
    with pytest.raises(TypeImbalance):
        wedge.real_tensor(CurvatureTensor(entries))


def test_green_table_is_the_pairing_table(pipe3, surf3, green3):
    """T through the orbit-row kernel equals P through the LU."""
    T = kernel_table(pipe3["fields"], wedge.weighted_green(surf3, green3))
    P = pipe3["pairings"]
    assert np.abs(T - P).max() <= 1e-13 * np.abs(P).max()


# dense N x N oracle: the integral path as it was written before the Green
# sums were factored.  It returns its value and the magnitudes of its
# terms, the complex Green sums in full: roundoff scales with those, and
# on the octagon fields the cross term keeps about 1e-7 of them.


def _dense_field(coeff, mu):
    return np.conj(mu).T @ (np.asarray(coeff, dtype=complex).T @ mu)


def _dense_integral_Q(coeffs, mu, surf, WG):
    zero = np.zeros((len(mu), len(mu)))
    a, b, c = (coeffs.get(key, zero) for key in "abc")
    L = _dense_field(a + c, mu) + 1j * _dense_field(b, mu)
    u = surface.apply_D(surf, np.diag(L).imag)
    t1 = -4 * np.sum(surf.weights * u * np.diag(L).imag)
    mod2 = np.sum(WG * np.abs(L) ** 2)
    cross = np.sum(WG * (L * L.T))
    return t1 - 2 * mod2 + 2 * cross.real, abs(t1) + 2 * mod2 + 2 * abs(cross)


def _generic_fields(surf, seed):
    """mu = conj(theta) (1 - |z|^2)^2 / 4, theta of degree 6."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    z = surf.nodes
    return [qdiff.BeltramiField(np.conj(np.polynomial.polynomial.polyval(z, c))
                                * (1 - np.abs(z) ** 2) ** 2 / 4) for c in theta]


@pytest.mark.parametrize("kind", ["octagon", "generic"])
def test_integral_path_matches_dense_oracle(kind, pipe3, surf3, green3):
    fields = pipe3["fields"] if kind == "octagon" else _generic_fields(surf3, 5)
    mu = np.array(fields)
    WG = wedge.weighted_green(surf3, green3)
    dense_WG = green3.matrix * np.outer(surf3.weights, surf3.weights)
    T = kernel_table(mu, WG)
    rng = np.random.default_rng(6)
    for keys in ("a", "b", "c", "ab", "abc"):
        coeffs = {key: rng.standard_normal((3, 3)) for key in keys}
        got = wedge.integral_form_Q(coeffs, fields, surf3, green3, WG=WG)
        ref, scale = _dense_integral_Q(coeffs, mu, surf3, dense_WG)
        assert abs(got - ref) <= 1e-13 * scale
    for _ in range(3):
        coeff = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        L = _dense_field(coeff, mu)
        rep = wedge.cauchy_schwarz_slack(coeff, T)
        assert rep["lhs_abs"] == pytest.approx(abs(np.sum(dense_WG * L * L.T)), rel=1e-13)
        assert rep["rhs"] == pytest.approx(np.sum(dense_WG * np.abs(L) ** 2), rel=1e-13)


def test_integral_path_forms_no_node_square_array(pipe3, surf3, green3):
    """Neither the Green kernel, nor its weighted operator, nor its table,
    nor any call of the integral path allocates 8 N^2 bytes, the size of
    one real N x N array."""
    mu = pipe3["fields"]
    WG = wedge.weighted_green(surf3, green3)
    T = kernel_table(mu, WG)
    rng = np.random.default_rng(7)
    coeffs = {key: rng.standard_normal((3, 3)) for key in "abc"}
    calls = [
        lambda: surface.green_kernel(surf3),
        lambda: wedge.weighted_green(surf3, green3),
        lambda: kernel_table(mu, WG),
        lambda: wedge.integral_form_Q(coeffs, mu, surf3, green3, WG=WG),
        lambda: wedge.cauchy_schwarz_slack(coeffs["a"] + 1j * coeffs["b"], T),
    ]
    budget = 8 * surf3.num_nodes ** 2
    for call in calls:
        call()                          # the LU factorization is built once
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget


def test_integral_antisymmetric_cross_block_vanishes(pipe3, surf3, green3):
    Q = pipe3["Q"]
    WG = wedge.weighted_green(surf3, green3)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((3, 3))
    val = wedge.integral_form_Q({"b": b - b.T}, pipe3["fields"], surf3, green3,
                                WG=WG)
    assert abs(val) < 1e-8 * np.abs(Q.matrix).max()


def test_integral_opposite_xx_yy_vanishes(pipe3, surf3, green3):
    """a = -c folds to d = 0 and a vanishing cross part."""
    WG = wedge.weighted_green(surf3, green3)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    val = wedge.integral_form_Q({"a": a, "c": -a}, pipe3["fields"],
                                surf3, green3, WG=WG)
    assert abs(val) < 1e-10 * np.abs(pipe3["Q"].matrix).max()


def test_cauchy_schwarz_slack(pipe3, surf3, green3):
    """The swapped Green pairing never exceeds the diagonal one."""
    T = kernel_table(pipe3["fields"], wedge.weighted_green(surf3, green3))
    rng = np.random.default_rng(4)
    for _ in range(50):
        coeff = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = wedge.cauchy_schwarz_slack(coeff, T)
        assert rep["lhs_abs"] <= rep["rhs"] * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_quadratic_form_nonpositive(pipe3, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(15)
    Q = pipe3["Q"]
    assert Q.quad(x) <= 1e-8 * np.abs(Q.matrix).max() * (x @ x)


def test_spectrum_export(tmp_path, pipe3, jmat3):
    rep = wedge.spectrum(pipe3["Q"])
    ker = wedge.kernel_check(pipe3["Q"], jmat3)
    payload = wedge.export_spectrum_json(rep, ker, tmp_path / "spec.json")
    assert payload["spectrum"]["counts"] == [9, 6, 0]
    wedge.export_spectrum_csv(rep, tmp_path / "spec.csv")
    lines = (tmp_path / "spec.csv").read_text().strip().splitlines()
    assert len(lines) == 16
