"""Series basis, automorphy, Beltrami sampling and Gram-matrix tests."""

import numpy as np
import pytest

from wpcurv import qdiff
from wpcurv.errors import ConvergenceFailure, DegenerateBasis
from wpcurv.fuchsian import enumerate_words


def test_basis_size_and_degrees(basis):
    assert len(basis) == 3
    assert [q.monomial_degree for q in basis] == [0, 2, 4]


def test_automorphy_residuals(group, basis):
    for q in basis:
        assert q.automorphy_residual(group) <= qdiff.EPS_AUTO_DEFAULT


def test_tail_increment_at_center(group, words8):
    """Adding two more word lengths changes theta at the probes by less
    than the automorphy tolerance (geometric tail)."""
    bigger = enumerate_words(group, 10, norm_cap=qdiff.NORM_CAP_DEFAULT)
    probes = qdiff.probe_points()
    for k in qdiff.SEED_DEGREES:
        q8 = qdiff.QuadDifferential(k, words8)
        q10 = qdiff.QuadDifferential(k, bigger)
        v8, v10 = q8.evaluate(probes), q10.evaluate(probes)
        inc = np.abs(v10 - v8) / np.maximum(1.0, np.abs(v10))
        assert inc.max() <= qdiff.EPS_AUTO_DEFAULT


def test_short_truncation_rejected(group):
    with pytest.raises(ValueError):
        qdiff.build_qdiff_basis(group, 3)


def test_overtight_tolerance_rejected(group, words8):
    with pytest.raises(ConvergenceFailure):
        qdiff.build_qdiff_basis(group, 8, word_set=words8, eps_auto=1e-14)


def test_tail_check_uses_word_set_cap(group, monkeypatch):
    """The tail check compares the word set against its own (L-1)-ball,
    built with the word set's norm cap, not the default cap."""
    words = enumerate_words(group, 5, norm_cap=50.0)
    inner = enumerate_words(group, 4, norm_cap=50.0).matrices
    seen = []
    original = qdiff._series

    def spy(mats, z, k):
        seen.append(mats)
        return original(mats, z, k)

    monkeypatch.setattr(qdiff, "_series", spy)
    qdiff.build_qdiff_basis(group, 5, word_set=words, eps_auto=np.inf)
    partial = [m for m in seen if len(m) != len(words)]
    assert len(partial) == len(qdiff.SEED_DEGREES)
    assert all(np.array_equal(m, inner) for m in partial)


def test_odd_degree_series_vanishes(words8):
    """Degrees with the wrong rotation character average out."""
    probes = qdiff.probe_points()
    even = np.abs(qdiff.QuadDifferential(2, words8).evaluate(probes)).max()
    odd = np.abs(qdiff.QuadDifferential(1, words8).evaluate(probes)).max()
    # the cancellation is exact on the full group; the truncated ball
    # leaves a tail of the order of the automorphy tolerance
    assert odd < 1e-4 * even


def test_beltrami_invariance(group, basis, surf3):
    """mu transforms as mu(gamma z) conj(gamma') / gamma' = mu(z)."""
    rng = np.random.default_rng(0)
    z = 0.3 * np.sqrt(rng.uniform(size=16)) * np.exp(
        2j * np.pi * rng.uniform(size=16))
    q = basis[1]
    mu = lambda w: np.conj(q.evaluate(w)) * (1 - np.abs(w) ** 2) ** 2 / 4
    for g in group.generators:
        gz = g.apply(z)
        dg = g.derivative(z)
        lhs = mu(gz) * np.conj(dg) / dg
        assert np.abs(lhs - mu(z)).max() < 2e-5 * max(1.0, np.abs(mu(z)).max())


def test_beltrami_bounded(basis, surf3):
    for q in basis:
        f = qdiff.beltrami_from_qdiff(q, surf3)
        assert np.all(np.isfinite(f.values))
        assert np.abs(f.values).max() < 1e3


def test_gram_hermitian_posdef(pipe3):
    g = pipe3["gram_raw"].entries
    assert np.abs(g - g.conj().T).max() < 1e-12 * np.abs(g).max()
    assert np.all(np.diag(g).real > 0)
    assert np.abs(np.diag(g).imag).max() < 1e-12 * np.abs(g).max()
    assert pipe3["gram_raw"].eigenvalues().min() > 0


def test_duplicate_field_degenerate(pipe3, surf3):
    fields = pipe3["fields_raw"]
    with pytest.raises(DegenerateBasis):
        qdiff.gram_matrix([fields[0], fields[0], fields[1]], surf3)


def test_wrong_surface_rejected(pipe3, surf4):
    with pytest.raises(ValueError):
        qdiff.gram_matrix(pipe3["fields_raw"], surf4)


def test_orthonormalize_output_gram_identity(pipe3, surf3):
    g = qdiff.gram_matrix(pipe3["fields"], surf3).entries
    assert np.abs(g - np.eye(3)).max() < 1e-12


def test_orthonormalize_recovers_gram(pipe3):
    C = pipe3["cholesky"]
    g = pipe3["gram_raw"].entries
    assert np.abs(C.conj().T @ C - g).max() < 1e-9 * np.abs(g).max()


def test_orthonormalize_identity_on_orthonormal_input(pipe3, surf3):
    fields, gram, C = qdiff.orthonormalize(
        pipe3["fields"], qdiff.gram_matrix(pipe3["fields"], surf3))
    assert np.abs(C - np.eye(3)).max() < 1e-10
    for old, new in zip(pipe3["fields"], fields):
        assert np.abs(old.values - new.values).max() < 1e-10


def test_petersson_consistency(basis, pipe3, surf3):
    """The weighted mu-products equal the theta-products divided by the
    metric density squared (mu = conj(theta)/sigma exactly)."""
    z = surf3.nodes
    sigma = 4.0 / (1 - np.abs(z) ** 2) ** 2
    theta = np.array([q.evaluate(z) for q in basis])
    direct = np.einsum("p,ip,jp->ij", surf3.weights,
                       np.conj(theta) / sigma, theta / sigma)
    g = pipe3["gram_raw"].entries
    assert np.abs(direct - g).max() < 1e-12 * np.abs(g).max()


def test_gram_refinement(pipe3, pipe4):
    g3, g4 = pipe3["gram_raw"].entries, pipe4["gram_raw"].entries
    rel = np.linalg.norm(g3 - g4) / np.linalg.norm(g4)
    assert rel < 0.02
