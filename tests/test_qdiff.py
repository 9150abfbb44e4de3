"""Automorphy-solve basis, its series oracle, Beltrami sampling and Gram tests."""

import numpy as np
import pytest

from wpcurv import qdiff, surface
from wpcurv.errors import ConvergenceFailure, DegenerateBasis, UnsupportedGenus
from wpcurv.fuchsian import act, derivative, enumerate_words, regular_group

from oracle import REGULAR, _series, _solve_by_powers

def _probes(num=12, radius=0.35):
    """Interior points on two rings, inside every series' accurate range."""
    angles = np.arange(num) * 2 * np.pi / num + 0.1
    radii = np.where(np.arange(num) % 2 == 0, radius, 0.6 * radius)
    return radii * np.exp(1j * angles)


def test_basis_size_and_degrees(basis):
    """One real row of coefficients per character 0, 2, 4, each with a_0 = 1."""
    assert qdiff.SEED_DEGREES == (0, 2, 4)
    assert isinstance(basis, np.ndarray)
    assert basis.dtype == float
    assert basis.shape == (3, qdiff.NUM_COEFFS)
    assert np.all(basis[:, 0] == 1.0)


def test_automorphy_residuals(group, basis):
    """All 8 side pairings at points along every side, vertices included,
    and at points other than the certificate's own."""
    sides = qdiff.side_points(group, 257)
    assert np.abs(np.abs(sides).max() - np.abs(group.vertices).max()) < 1e-12
    assert np.all(qdiff.automorphy_residuals(basis, group) <= qdiff.AUTOMORPHY_TOL)
    for s, z in enumerate(sides):
        g = group.side_pairings[s]
        lhs = qdiff.theta(basis, act(g, z), group.rotation_order) * derivative(g, z) ** 2
        base = qdiff.theta(basis, z, group.rotation_order)
        assert np.all(np.abs(lhs - base).max(axis=1)
                      <= qdiff.AUTOMORPHY_TOL * np.abs(base).max(axis=1))


def test_side_points_trace_the_sides(group):
    """Side s runs from vertex s-1 to vertex s, and its pairing carries it
    onto side s+4 (reversed)."""
    sides = qdiff.side_points(group)
    for s in range(8):
        assert abs(sides[s, 0] - group.vertices[s - 1]) < 1e-12
        assert abs(sides[s, -1] - group.vertices[s]) < 1e-12
        image = act(group.side_pairings[s], sides[s])
        assert np.abs(image - sides[(s + 4) % 8, ::-1]).max() < 1e-12


def test_singular_values_isolate_one_null_vector(group):
    points = qdiff._collocation(group)
    for k in qdiff.SEED_DEGREES:
        _, sv = qdiff._solve(points, k, group.rotation_order)
        rel = sv / sv[0]
        assert rel[-1] <= qdiff.NULL_TOL
        assert rel[-2] >= qdiff.GAP_TOL


def test_solve_is_the_power_oracle(group, surf3):
    """The cumulative-product system and its R factor's SVD give the
    `**`-built system's singular values within 1e-12 of the largest, and
    its basis functions within 1e-12 relative at the side points and the
    level-3 nodes."""
    points = qdiff._collocation(group)
    z = np.concatenate([qdiff.side_points(group).ravel(), surf3.nodes])
    rows, rows_ref = [], []
    for k in qdiff.SEED_DEGREES:
        a, sv = qdiff._solve(points, k, group.rotation_order)
        a_ref, sv_ref = _solve_by_powers(points, k, group.rotation_order)
        assert np.abs(sv - sv_ref).max() <= 1e-12 * sv_ref[0]
        rows.append(a)
        rows_ref.append(a_ref)
    theta = qdiff.theta(np.array(rows), z, group.rotation_order)
    ref = qdiff.theta(np.array(rows_ref), z, group.rotation_order)
    for row, row_ref in zip(theta, ref):
        assert np.abs(row - row_ref).max() <= 1e-12 * np.abs(row_ref).max()


def test_series_oracle_in_span(basis, words8, surf3):
    """The length-8 Poincare series of degree k is a multiple of the solved
    theta_k at the level-3 nodes, up to the series' truncation error."""
    z = surf3.nodes
    series = _series(words8, z, qdiff.SEED_DEGREES)
    for theta, row in zip(qdiff.theta(basis, z, surf3.group.rotation_order), series):
        c = np.vdot(theta, row) / np.vdot(theta, theta)
        assert np.abs(row - c * theta).max() <= 1e-4 * np.abs(row).max()


def test_tail_increment_at_center(group, words8):
    """The series oracle: two more word lengths change it at interior
    probes by less than 1e-5 (geometric tail)."""
    bigger = enumerate_words(group, 10, norm_cap=400.0)
    probes = _probes()
    v8 = _series(words8, probes, qdiff.SEED_DEGREES)
    v10 = _series(bigger, probes, qdiff.SEED_DEGREES)
    inc = np.abs(v10 - v8) / np.maximum(1.0, np.abs(v10))
    assert inc.max() <= 1e-5


def test_short_truncation_rejected(group, monkeypatch):
    """With 20 coefficients the system has no null vector to roundoff."""
    monkeypatch.setattr(qdiff, "NUM_COEFFS", 20)
    with pytest.raises(ConvergenceFailure):
        qdiff.build_qdiff_basis(group)


def test_overtight_tolerance_rejected(group, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(qdiff, "NULL_TOL", 1e-17)
        with pytest.raises(ConvergenceFailure, match="singular values"):
            qdiff.build_qdiff_basis(group)
    monkeypatch.setattr(qdiff, "AUTOMORPHY_TOL", 1e-17)
    with pytest.raises(ConvergenceFailure, match="automorphy"):
        qdiff.build_qdiff_basis(group)


def test_perturbed_coefficient_fails_certificate(group, monkeypatch):
    """A relative change of 1e-8 in one coefficient of the solve breaks
    automorphy on the sides."""
    solve = qdiff._solve

    def perturbed(points, k, order):
        a, sv = solve(points, k, order)
        a[1] *= 1 + 1e-8 * (k == 2)
        return a, sv

    monkeypatch.setattr(qdiff, "_solve", perturbed)
    with pytest.raises(ConvergenceFailure, match="character 2: automorphy"):
        qdiff.build_qdiff_basis(group)


@pytest.mark.parametrize("where, gate", [("coefficient", "automorphy"),
                                         ("singular-value", "least singular values")])
def test_nan_in_solve_fails_certificate(where, gate, group, monkeypatch):
    """A NaN coefficient fails the automorphy gate, a NaN least singular
    value the null/gap gate: neither passes as not above its tolerance."""
    solve = qdiff._solve

    def planted(points, k, order):
        a, sv = solve(points, k, order)
        if k == 2 and where == "coefficient":
            a[1] = np.nan
        elif k == 2:
            sv[-1] = np.nan
        return a, sv

    monkeypatch.setattr(qdiff, "_solve", planted)
    with pytest.raises(ConvergenceFailure, match="character 2: " + gate):
        qdiff.build_qdiff_basis(group)


def test_basis_refuses_genus_3_before_any_solve(monkeypatch):
    """The 12-gon (genus 3) raises UnsupportedGenus, as SEED_DEGREES are
    genus 2's characters, before any collocation point is reduced; its
    solve would otherwise fail as a misleading ConvergenceFailure."""
    monkeypatch.setattr(qdiff, "reduce_to_domain", None)
    with pytest.raises(UnsupportedGenus, match="genus 3"):
        qdiff.build_qdiff_basis(regular_group(REGULAR["12-gon"]))


def test_collocation_points_pulled_back_once(group, monkeypatch):
    """One `reduce_to_domain` call serves the solves of all three characters."""
    calls = []
    reduce = qdiff.reduce_to_domain
    monkeypatch.setattr(qdiff, "reduce_to_domain",
                        lambda group, z: calls.append(len(z)) or reduce(group, z))
    qdiff.build_qdiff_basis(group)
    assert calls == [qdiff.NUM_POINTS]


def test_rotation_law_certified(group, basis):
    """theta_k(omega z) = omega^k theta_k(z) holds by construction."""
    order = group.rotation_order
    omega = np.exp(2j * np.pi / order)
    rng = np.random.default_rng(1)
    z = 0.84 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    rotated = qdiff.theta(basis, omega * z, order)
    values = qdiff.theta(basis, z, order)
    for k, row, base in zip(qdiff.SEED_DEGREES, rotated, values):
        expected = omega ** k * base
        assert np.abs(row - expected).max() <= 1e-13 * np.abs(expected).max()


def test_evaluate_sums_directly(group, basis):
    """Horner in z^2N equals the monomial sum sum_m a_m z^(k + 2N m)."""
    order = group.rotation_order
    z = np.concatenate([_probes(), 0.8 * np.exp(2j * np.pi / order) ** np.arange(order)])
    values = qdiff.theta(basis, z, order)
    for k, a, row in zip(qdiff.SEED_DEGREES, basis, values):
        powers = k + order * np.arange(qdiff.NUM_COEFFS)
        direct = (a * z[:, None] ** powers).sum(axis=1)
        assert np.abs(row - direct).max() <= 1e-13 * np.abs(direct).max()
    assert qdiff.theta(basis, 0.1, order).shape == (3,)


def test_odd_degree_series_vanishes(words8):
    """Degrees with the wrong rotation character average out."""
    even, odd = np.abs(_series(words8, _probes(), (2, 1))).max(axis=1)
    # the cancellation is exact on the full group; the truncated ball
    # leaves a tail of the order of its truncation error
    assert odd < 1e-4 * even


def test_beltrami_invariance(group, basis, surf3):
    """mu transforms as mu(gamma z) conj(gamma') / gamma' = mu(z)."""
    rng = np.random.default_rng(0)
    z = 0.3 * np.sqrt(rng.uniform(size=16)) * np.exp(
        2j * np.pi * rng.uniform(size=16))
    mu = lambda w: (np.conj(qdiff.theta(basis, w, group.rotation_order)[1])
                    * (1 - np.abs(w) ** 2) ** 2 / 4)
    for g in group.generators:
        gz = act(g, z)
        dg = derivative(g, z)
        lhs = mu(gz) * np.conj(dg) / dg
        assert np.abs(lhs - mu(z)).max() < 2e-5 * max(1.0, np.abs(mu(z)).max())


def test_beltrami_bounded(basis, surf3):
    fields = qdiff.beltrami_from_qdiff(basis, surf3)
    assert len(fields) == len(basis)
    for f in fields:
        assert np.all(np.isfinite(f))
        assert np.abs(f).max() < 1e3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(7,), (3, 7)], ids=["row", "stack"])
def test_beltrami_field_validation(shape, bad):
    """Finite samples, one row or an (n, N) stack, come back as an equal
    complex array; one NaN or inf entry is a ValueError."""
    values = np.arange(np.prod(shape), dtype=float).reshape(shape)
    field = qdiff.BeltramiField(values)
    assert field.dtype == complex
    assert np.array_equal(field, values)
    for entry in (bad, complex(0, bad)):    # in the real, then the imaginary part
        planted = field.copy()
        planted[(0,) * len(shape)] = entry
        with pytest.raises(ValueError, match="non-finite"):
            qdiff.BeltramiField(planted)


def test_gram_hermitian_posdef(raw3):
    g = raw3["gram"]
    assert np.abs(g - g.conj().T).max() < 1e-12 * np.abs(g).max()
    assert np.all(np.diag(g).real > 0)
    assert np.abs(np.diag(g).imag).max() < 1e-12 * np.abs(g).max()
    assert np.linalg.eigvalsh(raw3["gram"]).min() > 0


def test_duplicate_field_degenerate(raw3, surf3):
    fields = raw3["fields"]
    with pytest.raises(DegenerateBasis):
        qdiff.gram_matrix([fields[0], fields[0], fields[1]], surf3)


def test_nan_field_sample_is_degenerate(group, basis):
    """One NaN sample makes the Gram matrix non-finite: DegenerateBasis, not
    an error from the eigensolver."""
    surf = surface.build_mesh(group, 2)
    fields = qdiff.beltrami_from_qdiff(basis, surf)
    fields[1, 7] = np.nan
    with pytest.raises(DegenerateBasis, match="non-finite"):
        qdiff.gram_matrix(fields, surf)


def test_wrong_surface_rejected(raw3, surf4):
    with pytest.raises(ValueError):
        qdiff.gram_matrix(raw3["fields"], surf4)


def test_orthonormalize_output_gram_identity(pipe3, surf3):
    g = qdiff.gram_matrix(pipe3["fields"], surf3)
    assert np.abs(g - np.eye(3)).max() < 1e-12


def test_orthonormalize_recovers_gram(raw3):
    C = raw3["cholesky"]
    g = raw3["gram"]
    assert np.abs(C.conj().T @ C - g).max() < 1e-9 * np.abs(g).max()


def test_orthonormalize_identity_on_orthonormal_input(pipe3, surf3):
    fields, gram, C = qdiff.orthonormalize(
        pipe3["fields"], qdiff.gram_matrix(pipe3["fields"], surf3))
    assert np.abs(C - np.eye(3)).max() < 1e-10
    for old, new in zip(pipe3["fields"], fields):
        assert np.abs(old - new).max() < 1e-10


def test_petersson_consistency(basis, raw3, surf3):
    """The weighted mu-products equal the theta-products divided by the
    metric density squared (mu = conj(theta)/sigma exactly)."""
    z = surf3.nodes
    sigma = 4.0 / (1 - np.abs(z) ** 2) ** 2
    theta = qdiff.theta(basis, z, surf3.group.rotation_order)
    direct = np.einsum("p,ip,jp->ij", surf3.weights,
                       np.conj(theta) / sigma, theta / sigma)
    g = raw3["gram"]
    assert np.abs(direct - g).max() < 1e-12 * np.abs(g).max()


def test_gram_refinement(raw3, raw4):
    g3, g4 = raw3["gram"], raw4["gram"]
    rel = np.linalg.norm(g3 - g4) / np.linalg.norm(g4)
    assert rel < 0.02


@pytest.mark.parametrize("level", [3, 4])
def test_whole_mesh_symmetry_certificates(level, pipe3, pipe4, raw3, raw4):
    """The octagon's symmetries make the raw Gram matrix diagonal (distinct
    rotation characters) and the curvature tensor real, over all nodes."""
    pipe, raw = (pipe3, raw3) if level == 3 else (pipe4, raw4)
    g = raw["gram"]
    diag = np.abs(np.diag(g))
    off = np.abs(g - np.diag(np.diag(g))) / np.sqrt(np.outer(diag, diag))
    assert off.max() <= 1e-13
    R = pipe["tensor"].entries
    assert np.abs(R.imag).max() <= 1e-13 * np.abs(R).max()
