"""Wedge-space operator Q: assembly, involution, spectrum, integral forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcurv import wedge
from wpcurv.curvature import CurvatureTensor
from wpcurv.errors import KernelDimMismatch, PositiveModeDetected


def test_wedge_basis_size():
    assert len(wedge.wedge_basis(3)) == 15
    assert len(wedge.wedge_basis(2)) == 6


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


# real basis indices for n = 3: x_i = i, y_i = 3 + i


def test_real_curvature_repeated_vector_zero(pipe3):
    R = pipe3["tensor"]
    real = wedge.real_tensor(R)
    for a in (0, 4):                # x_0, y_1
        assert abs(real[a, a, 1, 5]) < 1e-12 * R.max_abs()


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
    index = {p: i for i, p in enumerate(wedge.wedge_basis(3))}
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
    basis = wedge.wedge_basis(3)
    idx = [k for k, (a, b) in enumerate(basis) if b < 3]
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


def test_wedge_vector_roundtrip():
    """Coefficients land on the expected basis slots."""
    basis = wedge.wedge_basis(2)
    index = {p: i for i, p in enumerate(basis)}
    a = np.array([[0.0, 2.0], [0.5, 0.0]])
    b = np.array([[1.0, -1.0], [3.0, 4.0]])
    x = wedge.wedge_vector({"a": a, "b": b}, 2)
    assert x[index[(0, 1)]] == pytest.approx(1.5)   # a antisymmetrized
    assert x[index[(0, 2)]] == pytest.approx(1.0)   # b[0,0]
    assert x[index[(1, 3)]] == pytest.approx(4.0)   # b[1,1]
    assert x[index[(2, 3)]] == pytest.approx(0.0)   # no c part


def test_pair_field_oracle():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    coeff = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    L = wedge.pair_field(coeff, mu)
    for p in range(5):
        for q in range(5):
            ref = sum(coeff[i, j] * mu[i, q] * np.conj(mu[j, p])
                      for i in range(2) for j in range(2))
            assert L[p, q] == pytest.approx(ref)


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


def test_cross_term_consistency(pipe3, surf3, green3):
    WG = wedge.weighted_green(surf3, green3)
    rng = np.random.default_rng(3)
    scale = np.abs(pipe3["Q"].matrix).max()
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        rep = wedge.cross_term_consistency(a, b, pipe3["fields"], surf3,
                                           green3, WG=WG)
        assert rep["abs_difference"] < 1e-10 * scale * (1 + abs(rep["direct"]))


def test_cauchy_schwarz_slack(pipe3, surf3, green3):
    """The swapped Green pairing never exceeds the diagonal one."""
    mu = np.array([f.values for f in pipe3["fields"]])
    WG = wedge.weighted_green(surf3, green3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        coeff = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        L = wedge.pair_field(coeff, mu)
        rep = wedge.cauchy_schwarz_slack(L, WG)
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
