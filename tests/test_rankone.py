"""Quaternionic-hyperbolic curvature algebra tests."""

import numpy as np
import pytest

from wpcurv import rankone, wedge
from wpcurv.errors import DimensionMismatch

from oracle import lemma51_by_trials


@pytest.mark.parametrize("m", [1, 2, 3])
def test_structures_algebra(m):
    I, J, K = rankone.structures(m)
    d = 4 * m
    for A in (I, J, K):
        assert np.abs(A @ A.T - np.eye(d)).max() < 1e-12   # orthogonal
        assert np.abs(A @ A + np.eye(d)).max() < 1e-12     # square -id
    assert np.abs(I @ J - K).max() < 1e-12
    assert np.abs(J @ I + K).max() < 1e-12


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rankone.quat_curvature(np.ones(4), np.ones(4), np.ones(4), np.ones(5), 1)
    with pytest.raises(DimensionMismatch):
        rankone.lie_triple_curvature(np.ones(8), np.ones(4), np.ones(4),
                                     np.ones(4), 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_curvature_is_row_by_row(m):
    """A (..., 4m) stack gives each row's scalar value exactly."""
    X, Y, Z, W = np.random.default_rng(m).standard_normal((4, 2, 5, 4 * m))
    stacked = rankone.quat_curvature(X, Y, Z, W, m)
    assert stacked.shape == (2, 5)
    rows = [[rankone.quat_curvature(*args, m) for args in zip(x, y, z, w)]
            for x, y, z, w in zip(X, Y, Z, W)]
    assert np.array_equal(stacked, rows)
    assert isinstance(rankone.quat_curvature(X[0, 0], Y[0, 0], Z[0, 0], W[0, 0], m), float)
    with pytest.raises(DimensionMismatch):
        rankone.quat_curvature(X, Y, Z, np.ones((2, 5, 4 * m + 1)), m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_lemma_is_the_per_trial_loop(m):
    """All 20 trials at once give each trial's record of the loop."""
    records = rankone.lemma51_check(m, 20)["records"]
    reference = lemma51_by_trials(m, 20)
    assert len(records) == len(reference) == 20
    for got, want in zip(records, reference):
        assert got.keys() == want.keys()
        for key in want:
            assert isinstance(got[key], float)
            assert abs(got[key] - want[key]) <= 1e-14


@pytest.mark.parametrize("m", [1, 2])
def test_curvature_symmetries(m):
    rng = np.random.default_rng(0)
    X, Y, Z, W = rng.standard_normal((4, 4 * m))
    R = lambda *a: rankone.quat_curvature(*a, m)
    assert R(X, Y, Z, W) == pytest.approx(-R(Y, X, Z, W))
    assert R(X, Y, Z, W) == pytest.approx(-R(X, Y, W, Z))
    assert R(X, Y, Z, W) == pytest.approx(R(Z, W, X, Y))
    assert R(X, X, Z, W) == pytest.approx(0.0, abs=1e-12)
    # first Bianchi identity
    assert (R(X, Y, Z, W) + R(Y, Z, X, W)
            + R(Z, X, Y, W)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("m", [1, 2])
def test_isometry_invariance(m):
    rng = np.random.default_rng(1)
    X, Y, Z, W = rng.standard_normal((4, 4 * m))
    base = rankone.quat_curvature(X, Y, Z, W, m)
    for A in rankone.structures(m):
        rotated = rankone.quat_curvature(A @ X, A @ Y, A @ Z, A @ W, m)
        assert rotated == pytest.approx(base)


def test_sectional_range():
    """Holomorphic planes have curvature -4, totally real planes -1."""
    I, J, K = rankone.structures(1)
    v = np.array([1.0, 0, 0, 0])
    assert rankone.quat_curvature(v, I @ v, v, I @ v, 1) == pytest.approx(-4.0)
    # a direction in a different quaternionic block spans a totally real
    # plane with v
    m = 2
    v = np.zeros(8)
    v[0] = 1.0
    w = np.zeros(8)
    w[4] = 1.0
    assert rankone.quat_curvature(v, w, v, w, m) == pytest.approx(-1.0)


def test_paired_plane_identity():
    """R(Kv, Iv, Kv, Iv) equals R(v, Jv, v, Jv) for every v."""
    rng = np.random.default_rng(2)
    for m in (1, 2):
        I, J, K = rankone.structures(m)
        for _ in range(10):
            v = rng.standard_normal(4 * m)
            lhs = rankone.quat_curvature(K @ v, I @ v, K @ v, I @ v, m)
            rhs = rankone.quat_curvature(v, J @ v, v, J @ v, m)
            assert lhs == pytest.approx(rhs)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_evaluators_agree(m):
    """The space-form tensor and the Lie-triple bracket evaluator are
    proportional with a single constant across random inputs."""
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(10):
        X, Y, Z, W = rng.standard_normal((4, 4 * m))
        a = rankone.quat_curvature(X, Y, Z, W, m)
        b = rankone.lie_triple_curvature(X, Y, Z, W, m)
        if abs(a) > 1e-9:
            ratios.append(b / a)
    ratios = np.array(ratios)
    assert np.abs(ratios - ratios[0]).max() < 1e-9
    assert ratios[0] == pytest.approx(1.0)


def _curvature_operator(m):
    """The curvature operator O on Lambda^2 R^{4m}, R(e_a, e_b, e_c, e_d)
    over the orthonormal e_a ^ e_b (a < b), with the index pairs (a, b)."""
    eye = np.eye(4 * m)
    a, b = np.triu_indices(4 * m, 1)
    O = rankone.quat_curvature(*np.broadcast_arrays(
        eye[a][:, None], eye[b][:, None], eye[a][None, :], eye[b][None, :]), m)
    return O, a, b


@pytest.mark.parametrize("m", [1, 2, 3])
def test_curvature_operator_spectrum(m):
    """Both evaluators give the curvature operator O entry for entry (the
    Lie-triple one on the upper triangle), and its spectrum is -4m three
    times (the span of I, J, K), -4 m(2m+1) times, 0 on the rest."""
    O, a, b = _curvature_operator(m)
    eye = np.eye(4 * m)
    assert np.array_equal(O, O.T)
    for p, q in zip(*np.triu_indices(len(a))):
        lie = rankone.lie_triple_curvature(eye[a[p]], eye[b[p]], eye[a[q]], eye[b[q]], m)
        assert abs(lie - O[p, q]) <= 1e-12
    expected = np.repeat([-4.0 * m, -4.0, 0.0], [3, m * (2 * m + 1), len(a) - 3 - m * (2 * m + 1)])
    assert np.abs(np.linalg.eigvalsh(O) - np.sort(expected)).max() <= 1e-12
    for A in rankone.structures(m):     # the 2-vector sum_{a<b} A_ab e_a ^ e_b
        assert np.abs(O @ A[a, b] + 4 * m * A[a, b]).max() <= 1e-12


@pytest.mark.parametrize("m, kernel_dim", [(1, 0), (2, 15), (3, 42)])
def test_omega_projected_onto_kernel_is_null(m, kernel_dim):
    """What holds beside criterion 8: ker O of the curvature operator on
    Lambda^2 R^{4m} has dimension 0, 15 and 42 at m = 1, 2, 3.  For 20 unit
    v, omega = v ^ Jv + Kv ^ Iv has omega^T O omega = -8 (the expansion
    criterion 8 reads), and at m = 2, 3 its projection p onto ker O keeps
    sqrt(1 - 1/m) of its norm, is curvature-null and J-invariant, with
    least-squares margin 1."""
    O, a, b = _curvature_operator(m)
    ev, U = np.linalg.eigh(O)
    ker = U[:, np.abs(ev) <= 1e-12]
    assert ker.shape[1] == kernel_dim
    v = np.random.default_rng(rankone.LEMMA_SEED).standard_normal((20, 4 * m))
    v /= np.linalg.norm(v, axis=1)[:, None]
    om = rankone.omega_wedge(v, m)[:, a, b]
    assert np.abs(np.einsum("ti,ij,tj->t", om, O, om) + 8).max() <= 1e-12
    if m == 1:
        return
    p = om @ ker @ ker.T
    norm = np.linalg.norm(p, axis=1)
    assert np.abs(norm / np.linalg.norm(om, axis=1) - np.sqrt(1 - 1 / m)).max() <= 1e-13
    assert np.abs(np.einsum("ti,ij,tj->t", p, O, p)).max() <= 1e-13
    Jp = p @ wedge.induced_action(rankone.structures(m)[1]).T
    assert (np.linalg.norm(Jp - p, axis=1) / norm).max() <= 1e-13
    assert (np.linalg.norm((p + Jp) / 2, axis=1) / norm).min() >= 1 - 1e-12


def test_omega_nonzero_and_j_invariant():
    rng = np.random.default_rng(4)
    for m in (1, 2):
        I, J, K = rankone.structures(m)
        v = rng.standard_normal(4 * m)
        om = rankone.omega_wedge(v, m)
        assert np.linalg.norm(om) > 0
        assert np.abs(om + om.T).max() < 1e-12
        # invariance: omega(Jx, Jy) = omega(x, y) as a bilinear form
        assert np.abs(J.T @ om @ J - om).max() < 1e-12 * np.abs(om).max()


def test_induced_j_action_involution():
    for m in (1, 2):
        W = wedge.induced_action(rankone.structures(m)[1])
        assert len(W) == (4 * m) * (4 * m - 1) // 2
        assert np.abs(W @ W - np.eye(len(W))).max() < 1e-12


def test_induced_j_action_matches_complex_basis():
    """Under the alignment x_i = e_{4b}, y_i = e_{4b+2} (and the partner
    pair inside each quaternionic block), the wedge action of J agrees
    with the matrix built directly on the complex wedge basis."""
    m = 1
    W = wedge.induced_action(rankone.structures(m)[1])
    pairs = list(zip(*np.triu_indices(4 * m, 1)))
    Jc = wedge.j_wedge_matrix(2)
    # real basis order for n = 2: x1, x2, y1, y2 -> disk coordinates
    perm = [0, 3, 2, 1]   # x1=e0, x2=e3, y1=e2, y2=e1
    cbasis = list(zip(*np.triu_indices(4, 1)))
    lift = np.zeros((len(pairs), len(cbasis)))
    index = {p: i for i, p in enumerate(pairs)}
    for col, (a, b) in enumerate(cbasis):
        ra, rb = perm[a], perm[b]
        s = 1.0
        if ra > rb:
            ra, rb, s = rb, ra, -1.0
        lift[index[(ra, rb)], col] = s
    assert np.abs(W @ lift - lift @ Jc).max() < 1e-12


def test_lemma_margins():
    rep = rankone.lemma51_check(1, 10)
    assert rep["worst_j_invariance"] < 1e-12
    assert rep["min_lstsq_resid"] >= 0.5
    # the claimed curvature-expansion vanishing does not hold: the value
    # is -8 |v|^4 for every unit v (see the acceptance criterion report)
    for r in rep["records"]:
        assert r["null_expansion_abs"] == pytest.approx(8.0)


def test_one_nan_trial_reaches_every_margin(monkeypatch):
    """A NaN in the second of three trials is not skipped, as Python's min
    and max would: each of the three margins reads NaN."""
    def planted(fn):
        def nan_at_1(*args):
            out = np.array(fn(*args), dtype=float)
            out[1] = np.nan
            return out
        return nan_at_1

    monkeypatch.setattr(rankone, "quat_curvature", planted(rankone.quat_curvature))
    monkeypatch.setattr(rankone, "omega_wedge", planted(rankone.omega_wedge))
    rep = rankone.lemma51_check(1, 3)
    for key in ("worst_null_expansion", "worst_j_invariance", "min_lstsq_resid"):
        assert np.isnan(rep[key])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lstsq_margin_is_the_projection(m):
    """Each trial's margin, taken as a projection, equals the least-squares
    residual of (identity - W_J) x = omega on the same draw of v."""
    W = wedge.induced_action(rankone.structures(m)[1])
    A = np.eye(len(W)) - W
    rng = np.random.default_rng(rankone.LEMMA_SEED)
    for record in rankone.lemma51_check(m, 5)["records"]:
        v = rng.standard_normal(4 * m)
        om = rankone.omega_wedge(v / np.linalg.norm(v), m)[np.triu_indices(4 * m, 1)]
        x, *_ = np.linalg.lstsq(A, om, rcond=None)
        ref = np.linalg.norm(A @ x - om) / np.linalg.norm(om)
        assert abs(record["lstsq_resid_rel"] - ref) <= 1e-15


def test_mixed_term_is_zero_not_negative():
    """The root cause of the failed null claim: R(v,Jv,Kv,Iv) = 0."""
    rng = np.random.default_rng(5)
    for m in (1, 2):
        I, J, K = rankone.structures(m)
        v = rng.standard_normal(4 * m)
        v /= np.linalg.norm(v)
        mixed = rankone.quat_curvature(v, J @ v, K @ v, I @ v, m)
        assert mixed == pytest.approx(0.0, abs=1e-12)
        diag = rankone.quat_curvature(v, J @ v, v, J @ v, m)
        assert diag == pytest.approx(-4.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        rankone.lemma51_check(0, 5)
    with pytest.raises(ValueError):
        rankone.lemma51_check(1, 0)


@pytest.mark.parametrize("m", [1, 2])
def test_structures_built_once_read_only(m, monkeypatch):
    """Repeated calls return the same read-only arrays, and the cached
    structures leave the lemma report unchanged."""
    mats = rankone.structures(m)
    assert all(a is b for a, b in zip(rankone.structures(m), mats))
    for A in mats:
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 1.0
    cached = rankone.lemma51_check(m, 5)
    monkeypatch.setattr(rankone, "structures", rankone.structures.__wrapped__)
    assert rankone.lemma51_check(m, 5) == cached
