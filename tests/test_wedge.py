"""Wedge-space operator Q: assembly, involution, spectrum, integral forms."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcurv import cli, curvature, qdiff, surface, wedge
from wpcurv.curvature import CurvatureTensor, kernel_table
from wpcurv.errors import KernelDimMismatch, TypeImbalance

from oracle import integral_matrices_by_einsum, real_tensor


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
    real = real_tensor(R)
    for a in (0, 4):                # x_0, y_1
        assert abs(real[a, a, 1, 5]) < 1e-12 * np.abs(R.entries).max()


def test_real_curvature_xxxx_equals_yyyy(pipe3):
    real = real_tensor(pipe3["tensor"])
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
    """Q read off the real tensor is symmetric before symmetrization to
    1e-12 of its largest entry, and exactly after it."""
    Q = pipe3["Q"]
    assert Q.matrix.shape == (15, 15)
    r, c = np.triu_indices(6, 1)
    raw = real_tensor(pipe3["tensor"])[r, c][:, r, c]
    assert np.abs(raw - raw.T).max() < 1e-12 * np.abs(raw).max()
    assert np.array_equal(Q.matrix, Q.matrix.T)


def _oracle_Q(R):
    """The oracle's real tensor read at the wedge pairs and symmetrized."""
    r, c = np.triu_indices(2 * R.n, 1)
    raw = real_tensor(R)[r, c][:, r, c]
    return (raw + raw.T) / 2


def _symmetric_tensor(entries):
    """Project a complex n^4 array onto R's symmetries: the holomorphic
    and antiholomorphic slot swaps, then conjugation with pairwise swap
    (which exchanges the two swap symmetries, so all three hold)."""
    A = (entries + entries.transpose(2, 1, 0, 3)) / 2
    A = (A + A.transpose(0, 3, 2, 1)) / 2
    return (A + np.conj(A.transpose(1, 0, 3, 2))) / 2


def test_assemble_Q_is_the_real_tensor_at_the_wedge_pairs(pipe3):
    """The wedge map reads the same sums as the full real tensor, bit for
    bit, on the surface tensor and on the single-entry tensor."""
    single = np.zeros((3, 3, 3, 3), dtype=complex)
    single[0, 0, 0, 0] = 1.0
    for R in (pipe3["tensor"], CurvatureTensor(single)):
        assert np.array_equal(wedge.assemble_Q(R).matrix, _oracle_Q(R))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_assemble_Q_is_the_real_tensor_on_drawn_tensors(n, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) * 4
    R = CurvatureTensor(_symmetric_tensor(rng.standard_normal(shape)
                                          + 1j * rng.standard_normal(shape)))
    assert max(R.residuals().values()) <= 1e-15
    assert np.array_equal(wedge.assemble_Q(R).matrix, _oracle_Q(R))


def test_wedge_map_built_once_read_only():
    W = wedge._wedge_map(3)
    assert wedge._wedge_map(3) is W
    assert W.shape == (15, 9)
    with pytest.raises(ValueError):
        W[0, 0] = 1.0


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


def test_spectrum_counts_wrong_signs_and_raises_nothing():
    """+I has 15 positive modes and -I no zero mode: both are counted."""
    plus = wedge.spectrum(wedge.WedgeOperator(matrix=np.eye(15), n=3))
    minus = wedge.spectrum(wedge.WedgeOperator(matrix=-np.eye(15), n=3))
    assert plus.num_positive == 15
    assert (minus.num_negative, minus.num_zero) == (15, 0)


def test_stack_record_is_each_matrix_record(pipe3):
    """A stack's `to_dict` is the list of each Q's own record, bit for bit,
    on one leading axis and on two."""
    Q = pipe3["Q"].matrix
    stack = np.array([Q, -Q, np.eye(15), -np.eye(15)])
    records = [wedge.spectrum(wedge.WedgeOperator(matrix=M, n=3)).to_dict() for M in stack]
    assert wedge.spectrum(wedge.WedgeOperator(matrix=stack, n=3)).to_dict() == records
    assert (wedge.spectrum(wedge.WedgeOperator(matrix=stack.reshape(2, 2, 15, 15), n=3)).to_dict()
            == [records[:2], records[2:]])


def test_kernel_check_report(pipe3, jmat3):
    rep = wedge.kernel_check(pipe3["Q"], jmat3)
    assert rep["range_ok"]
    assert rep["rank"] == 9
    assert rep["plus_eigenspace_negative"]


def test_kernel_check_is_the_report_of_one_spectrum(pipe3, jmat3):
    """`kernel_check` is `kernel_report` on the spectrum taken with the same
    tau_rel, which the report carries (and `to_dict` leaves out)."""
    Q, tau_rel = pipe3["Q"], 1e-9
    spec = wedge.spectrum(Q, tau_rel)
    assert spec.tau_rel == tau_rel and "tau_rel" not in spec.to_dict()
    assert wedge.kernel_check(Q, jmat3, tau_rel) == wedge.kernel_report(Q, spec, jmat3)


def test_plus_eigenspace_with_a_null_direction_is_not_negative():
    """A Q whose kernel is J's -1 eigenspace plus one +1 direction v: Q is
    negative on every +1 direction but v, and the report finds v."""
    J = wedge.j_wedge_matrix(3)
    lam, vecs = np.linalg.eigh(J)
    plus = vecs[:, lam > 0]
    v = plus @ np.random.default_rng(0).standard_normal(plus.shape[1])
    v /= np.linalg.norm(v)
    Q = wedge.WedgeOperator(matrix=-(plus @ plus.T) + np.outer(v, v), n=3)
    spec = wedge.spectrum(Q)
    rep = wedge.kernel_report(Q, spec, J)
    assert spec.num_zero == 7
    assert abs(rep["worst_plus_eigenspace_value"]) <= 1e-15
    assert not rep["plus_eigenspace_negative"]


def test_eigenvalues_on_a_subspace():
    """Q on the span of two independent, non-orthogonal vectors: the
    eigenvalues of its compression to an orthonormal basis of that span."""
    Q = wedge.WedgeOperator(matrix=np.diag([-3.0, -1.0, 0.0, 2.0]), n=2)
    span = np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0]]).T
    assert np.allclose(Q.eigenvalues_on(span), [-3.0, -1.0], atol=1e-15)


def test_kernel_check_raises_on_rank_mismatch():
    Q = wedge.WedgeOperator(matrix=-np.eye(15), n=3)
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
    """Each integral matrix equals its explicit double sums over the nodes,
    for a non-symmetric weighted kernel, on an element whose coefficients
    d + ib are the unit wedges' exactly (a and c strictly upper)."""
    rng = np.random.default_rng(0)
    n, N = 2, 5
    mu = rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))
    a, c = (np.triu(rng.standard_normal((n, n)), 1) for _ in range(2))
    b = rng.standard_normal((n, n))
    coeff = a + c + 1j * b
    WG = rng.standard_normal((N, N))

    def field(p, q):
        return sum(coeff[i, j] * mu[i, q] * np.conj(mu[j, p])
                   for i in range(n) for j in range(n))

    diag = sum(WG[p, q] * field(p, p).imag * field(q, q).imag
               for p in range(N) for q in range(N))
    mod2 = sum(WG[p, q] * field(p, q) * np.conj(field(p, q))
               for p in range(N) for q in range(N))
    cross = sum(WG[p, q] * field(p, q) * field(q, p)
                for p in range(N) for q in range(N))
    x = wedge.wedge_vector({"a": a, "b": b, "c": c}, n)
    Q_D, Q_G = wedge.integral_matrices(kernel_table(mu, WG))
    assert x @ Q_D @ x == pytest.approx(-4 * diag.real, rel=1e-13)
    assert abs(x @ Q_G @ x - (2 * cross.real - 2 * mod2.real)) \
        <= 1e-13 * (2 * abs(cross) + 2 * abs(mod2))


@pytest.mark.parametrize("n, symmetric", [(3, True), (3, False), (6, True), (6, False),
                                           (9, True), (9, False), (12, False)])
def test_integral_matrices_match_einsum_oracle(n, symmetric):
    """The entries read by index are the oracle's contractions, to 1e-14 of
    the oracle's largest entry, on tables of random fields through a random
    real weight, symmetric or not, above the octagon's n = 3."""
    rng = np.random.default_rng(n)
    mu = rng.standard_normal((n, 40)) + 1j * rng.standard_normal((n, 40))
    W = rng.standard_normal((40, 40))
    T = kernel_table(mu, W + W.T if symmetric else W)
    for got, ref in zip(wedge.integral_matrices(T), integral_matrices_by_einsum(T)):
        assert got.shape == ref.shape == (n * (2 * n - 1),) * 2
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_integral_green_term_is_the_oracle_bit_for_bit(pipe3):
    """On the level-3 octagon table Q_G is the oracle's, bit for bit; Q_D
    sums its four terms in another order, so it agrees to roundoff."""
    (Q_D, Q_G), (ref_D, ref_G) = (f(pipe3["pairings"]) for f in (
        wedge.integral_matrices, integral_matrices_by_einsum))
    assert np.array_equal(Q_G, ref_G)
    assert np.abs(Q_D - ref_D).max() <= 1e-15 * np.abs(ref_D).max()


class _RecordingWG:
    """Delegates to a weighted kernel and records the columns it is handed."""

    def __init__(self, WG):
        self.WG, self.columns, self.last = WG, [], (None, None)

    def __matmul__(self, X):
        assert np.isrealobj(X)
        self.columns.append(X.shape[1])
        return self.WG(X)


def test_green_sums_hand_WG_n_squared_columns(pipe3, surf3, green3):
    """Each Green table applies WG once, to the n^2 real columns of the
    products mu_i conj(mu_k); the integral path builds one table for two
    elements on the same fields."""
    mu = pipe3["fields"]
    WG = _RecordingWG(wedge.weighted_green(surf3, green3))
    rng = np.random.default_rng(8)
    a, b, c = rng.standard_normal((3, 3, 3))
    wedge.integral_form_Q({"a": a, "b": b, "c": c}, mu, surf3, green3, WG=WG)
    wedge.integral_form_Q({"a": c, "b": a}, mu, surf3, green3, WG=WG)
    wedge.integral_matrices(kernel_table(mu, WG))
    assert WG.columns == [9, 9]


def test_integral_path_solves_nothing(pipe3, surf3, green3, monkeypatch):
    """The per-element calls on one set of fields share one Q_D + Q_G: once
    the first call has built it, the LU solver made to raise changes
    nothing, and the second call returns the same value from the cache."""
    WG = wedge.weighted_green(surf3, green3)
    rng = np.random.default_rng(9)
    coeffs = {key: rng.standard_normal((3, 3)) for key in "abc"}
    expected = wedge.integral_form_Q(coeffs, pipe3["fields"], surf3, green3, WG=WG)

    def no_solve(*args, **kwargs):
        raise AssertionError("the integral path called apply_D")

    monkeypatch.setattr(surface, "apply_D", no_solve)
    assert wedge.integral_form_Q(coeffs, pipe3["fields"], surf3, green3, WG=WG) == expected


def test_weighted_green_keeps_its_last_matrix(pipe3, surf3, green3, monkeypatch):
    """`integral_form_Q` builds Q_D + Q_G once per field set, with one
    9-column `apply_D` call: equal fields reuse it with no solve, and fields
    scaled by 2 rebuild it, bit for bit as a fresh table gives it."""
    mu = pipe3["fields"]
    WG = wedge.weighted_green(surf3, green3)
    calls = []
    apply_D = surface.apply_D
    monkeypatch.setattr(surface, "apply_D",
                        lambda surf, X, **kw: calls.append(np.shape(X)) or apply_D(surf, X, **kw))
    rng = np.random.default_rng(3)
    coeffs = {key: rng.standard_normal((3, 3)) for key in "abc"}
    wedge.integral_form_Q(coeffs, mu, surf3, green3, WG=WG)
    M = WG.last[1]
    wedge.integral_form_Q(coeffs, mu.copy(), surf3, green3, WG=WG)
    assert WG.last[1] is M
    assert calls == [(surf3.num_nodes, 9)]
    scaled = [qdiff.BeltramiField(row) for row in 2 * mu]
    wedge.integral_form_Q(coeffs, scaled, surf3, green3, WG=WG)
    assert calls == [(surf3.num_nodes, 9)] * 2
    fresh = sum(wedge.integral_matrices(kernel_table(2 * mu, wedge.weighted_green(surf3, green3))))
    assert np.array_equal(WG.last[1], fresh)
    assert not np.array_equal(WG.last[1], M)


def test_real_tensor_planted_imaginary_residue_is_type_imbalance(pipe3):
    """A planted imaginary part leaves an imaginary residue in the real
    values, which `assemble_Q` raises as a TypeImbalance."""
    entries = pipe3["tensor"].entries.copy()
    entries[0, 0, 0, 0] += 1e-6j
    with pytest.raises(TypeImbalance):
        wedge.assemble_Q(CurvatureTensor(entries))


def test_nan_tensor_is_type_imbalance(pipe3):
    entries = pipe3["tensor"].entries.copy()
    entries[0, 1, 0, 1] = np.nan
    with pytest.raises(TypeImbalance):
        wedge.assemble_Q(CurvatureTensor(entries))


def test_green_table_is_the_pairing_table(pipe3, pipe4, surf3, surf4, green3, green4):
    """T through the weighted Green kernel is P through the LU, bit for bit,
    at levels 3 and 4: w G w f is applied as w D f."""
    for pipe, surf, green in ((pipe3, surf3, green3), (pipe4, surf4, green4)):
        T = kernel_table(pipe["fields"], wedge.weighted_green(surf, green))
        assert np.array_equal(T, pipe["pairings"])


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
    rng = np.random.default_rng(6)
    for keys in ("a", "b", "c", "ab", "abc"):
        coeffs = {key: rng.standard_normal((3, 3)) for key in keys}
        got = wedge.integral_form_Q(coeffs, fields, surf3, green3, WG=WG)
        ref, scale = _dense_integral_Q(coeffs, mu, surf3, dense_WG)
        assert abs(got - ref) <= 1e-13 * scale
    for _ in range(3):
        coeff = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        L = _dense_field(coeff, mu)
        assert (abs(np.sum(dense_WG * L * L.T))
                <= np.sum(dense_WG * np.abs(L) ** 2) * (1 + 1e-12))    # Cauchy-Schwarz


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
        lambda: wedge.integral_matrices(T),
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


@pytest.mark.parametrize("kind", ["octagon", "generic"])
def test_integral_terms_nonpositive(kind, pipe3, surf3, green3):
    """The D-term and the Green term are each non-positive: their largest
    eigenvalues are at most 1e-12 of the largest |eigenvalue| of Q."""
    fields = pipe3["fields"] if kind == "octagon" else np.array(_generic_fields(surf3, 1))
    Q = wedge.assemble_Q(curvature.curvature_tensor(curvature.pairing_table(fields, surf3)))
    scale = np.abs(np.linalg.eigvalsh(Q.matrix)).max()
    for M in wedge.integral_matrices(kernel_table(fields, wedge.weighted_green(surf3, green3))):
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_quadratic_form_nonpositive(pipe3, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(15)
    Q = pipe3["Q"]
    assert Q.quad(x) <= 1e-8 * np.abs(Q.matrix).max() * (x @ x)


def test_spectrum_export(tmp_path, pipe3):
    """A level-3 run's spectrum.json is the spectrum of the stage's Q and its stamp."""
    config = cli.RunConfig(stage="surface", mesh_level=3, out=str(tmp_path / "o"))
    cli.run(config)
    payload = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    rep = wedge.spectrum(pipe3["Q"])
    assert payload == {"spectrum": rep.to_dict(), "config_hash": config.hash("surface")}
    assert payload["spectrum"]["counts"] == [9, 6, 0]
