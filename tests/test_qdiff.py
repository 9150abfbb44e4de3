"""Series basis, automorphy, Beltrami sampling and Gram-matrix tests."""

import dataclasses

import numpy as np
import pytest

from wpcurv import qdiff
from wpcurv.errors import ConvergenceFailure, DegenerateBasis, SymmetryViolation
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
    built with the word set's norm cap, not the default cap, evaluating
    that ball once for all seed degrees."""
    words = enumerate_words(group, 5, norm_cap=50.0)
    inner = enumerate_words(group, 4, norm_cap=50.0).matrices
    seen = []
    original = qdiff._series

    def spy(mats, z, degrees):
        seen.append((mats, tuple(degrees)))
        return original(mats, z, degrees)

    monkeypatch.setattr(qdiff, "_series", spy)
    qdiff.build_qdiff_basis(group, 5, word_set=words, eps_auto=np.inf)
    partial = [(m, k) for m, k in seen if len(m) != len(words)]
    assert len(partial) == 1
    assert np.array_equal(partial[0][0], inner)
    assert partial[0][1] == qdiff.SEED_DEGREES


def test_folded_series_equals_direct(group, words8, surf3):
    """Evaluation through the rotation law agrees with the direct sum, for
    odd degrees too, at the probes, inside |z| <= 0.9, at mesh nodes and
    at the octagon vertices."""
    rng = np.random.default_rng(0)
    disk = 0.9 * np.sqrt(rng.uniform(size=64)) * np.exp(
        2j * np.pi * rng.uniform(size=64))
    z = np.concatenate([qdiff.probe_points(), disk, surf3.nodes[::8],
                        group.vertices])
    degrees = range(5)
    direct = qdiff._series(words8.matrices, z, degrees)
    folded = qdiff._folded_series(words8.matrices, z, degrees)
    rel = np.abs(folded - direct) / np.maximum(1.0, np.abs(direct))
    assert rel.max() <= 1e-12


def test_rotation_law_certified(group, words8):
    """A word set that is not closed under the octagon rotation fails the
    symmetry certificate of the basis constructor."""
    lopsided = dataclasses.replace(words8, matrices=words8.matrices[:-1000])
    with pytest.raises(SymmetryViolation):
        qdiff.build_qdiff_basis(group, 8, word_set=lopsided, eps_auto=np.inf)


def test_evaluate_sums_directly(words8):
    """evaluate does not fold through the rotation law, so it stays the
    direct sum on a word set that is not rotation-closed."""
    lopsided = dataclasses.replace(words8, matrices=words8.matrices[:-1000])
    probes = qdiff.probe_points()
    for k in qdiff.SEED_DEGREES:
        got = qdiff.QuadDifferential(k, lopsided).evaluate(probes)
        direct = qdiff._series(lopsided.matrices, probes, (k,))[0]
        assert np.abs(got - direct).max() <= 1e-14 * np.abs(direct).max()


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
    fields = qdiff.beltrami_from_qdiff(basis, surf3)
    assert len(fields) == len(basis)
    for f in fields:
        assert np.all(np.isfinite(f.values))
        assert np.abs(f.values).max() < 1e3


def test_beltrami_rejects_mixed_word_sets(group, words8, surf3):
    other = enumerate_words(group, 4)
    mixed = [qdiff.QuadDifferential(0, words8), qdiff.QuadDifferential(2, other)]
    with pytest.raises(ValueError):
        qdiff.beltrami_from_qdiff(mixed, surf3)


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
    # the basis is certified, so its nodes are sampled through the fold,
    # as beltrami_from_qdiff does
    theta = qdiff._folded_series(basis[0].word_set.matrices, z,
                                 [q.monomial_degree for q in basis])
    direct = np.einsum("p,ip,jp->ij", surf3.weights,
                       np.conj(theta) / sigma, theta / sigma)
    g = pipe3["gram_raw"].entries
    assert np.abs(direct - g).max() < 1e-12 * np.abs(g).max()


def test_gram_refinement(pipe3, pipe4):
    g3, g4 = pipe3["gram_raw"].entries, pipe4["gram_raw"].entries
    rel = np.linalg.norm(g3 - g4) / np.linalg.norm(g4)
    assert rel < 0.02
