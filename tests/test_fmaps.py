import dataclasses

import numpy as np
import pytest

from helpers import bumpy_sphere, cached_bumpy_shape, full_info_family, permute_vertices, random_orthonormal
from lskit.errors import DimensionMismatch, NonBijective, UnderDeterminedWarning
from lskit.fmaps import (
    Correspondence,
    FunctionalMap,
    fmap_from_correspondence,
    fmap_from_landmarks,
    identity_correspondence,
    load_correspondence,
    pair_difference,
    save_correspondence,
)
from lskit.meshes import validate_mesh
from lskit.spectral import compute_shape
from lskit.synth import icosphere


@pytest.fixture(scope="module")
def bumpy20():
    return cached_bumpy_shape(1, 2, 20)


def test_identity_correspondence_gives_identity_map(bumpy20):
    corr = identity_correspondence(bumpy20.num_vertices)
    C = fmap_from_correspondence(bumpy20, bumpy20, corr).matrix
    assert np.abs(C - np.eye(20)).max() <= 1e-9


def test_relabeling_permutation_is_orthonormal(bumpy20):
    rng = np.random.default_rng(2)
    perm = rng.permutation(bumpy20.num_vertices)
    twin_mesh, pairs = permute_vertices(bumpy_sphere(1, 2), perm, "twin")
    twin = compute_shape(twin_mesh, 20)
    C = fmap_from_correspondence(bumpy20, twin, Correspondence(pairs)).matrix
    assert np.abs(C.T @ C - np.eye(20)).max() <= 1e-8


def test_scaled_icosphere_area_difference():
    v, t = icosphere(2)
    src = compute_shape(validate_mesh(v, t, "unit"), 20)
    tgt = compute_shape(validate_mesh(2.0 * v, t, "double"), 20)
    corr = identity_correspondence(src.num_vertices)
    C = fmap_from_correspondence(src, tgt, corr).matrix
    # areas scale by 4 uniformly, so C^T C = 4 I
    np.testing.assert_allclose(C.T @ C, 4.0 * np.eye(20), rtol=0.05, atol=0.05)
    D = pair_difference(
        fmap_from_correspondence(src, tgt, corr),
        src.eigenvalues,
        tgt.eigenvalues,
        "area",
    )
    np.testing.assert_allclose(D.matrix, 4.0 * np.eye(20), rtol=0.05, atol=0.05)


def test_non_bijective_rejected(bumpy20):
    n = bumpy20.num_vertices
    pairs = np.stack([np.zeros(n, dtype=int), np.arange(n)], axis=1)  # duplicate sources
    with pytest.raises(NonBijective):
        fmap_from_correspondence(bumpy20, bumpy20, Correspondence(pairs))
    with pytest.raises(NonBijective):
        fmap_from_correspondence(
            bumpy20, bumpy20, Correspondence(np.array([[0, 0], [1, 1]]), "sparse_landmarks")
        )


def _shifted(n, column, by):
    """Identity pairs with entry 0 of `column` moved by `by`."""
    pairs = np.stack([np.arange(n), np.arange(n)], axis=1)
    pairs[0, column] += by
    return pairs


@pytest.mark.parametrize("pairs_of, kind, message", [
    (lambda n: _shifted(n, 0, 1), "full_bijection", "correspondence has duplicate indices"),
    (lambda n: _shifted(n, 1, 1), "full_bijection", "correspondence has duplicate indices"),
    (lambda n: _shifted(n, 0, n), "full_bijection", "correspondence index out of range"),
    (lambda n: _shifted(n, 1, n), "full_bijection", "correspondence index out of range"),
    (lambda n: _shifted(n, 1, -1), "full_bijection", "correspondence index out of range"),
    (lambda n: _shifted(n, 0, 0)[1:], "full_bijection", r"bijection needs (\d+) == \1 pairs, got \d+$"),
    (lambda n: _shifted(n, 0, 0), "sparse_landmarks", "correspondence kind 'sparse_landmarks' is not a full bijection"),
], ids=["repeated source", "repeated target", "source >= n", "target >= n", "negative", "pair count",
        "sparse landmarks"])
def test_each_refusal_of_the_bijection_check(bumpy20, pairs_of, kind, message):
    corr = Correspondence(pairs_of(bumpy20.num_vertices), kind)
    with pytest.raises(NonBijective, match=message):
        fmap_from_correspondence(bumpy20, bumpy20, corr)


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_permuted_correspondence_moves_each_source_row_to_its_target(bumpy20, order):
    """The map pulls row pairs[i, 0] of the source eigenvectors into row
    pairs[i, 1], whatever order the pairs come in, and its bits do not depend
    on how the rows are moved."""
    basis = dataclasses.replace(bumpy20, eigenvectors=np.asarray(bumpy20.eigenvectors, order=order))
    rng = np.random.default_rng(5)
    n = basis.num_vertices
    pairs = np.stack([rng.permutation(n), rng.permutation(n)], axis=1)
    pulled = np.empty_like(basis.eigenvectors)
    for s, t in pairs:
        pulled[t] = basis.eigenvectors[s]
    expected = basis.eigenvectors.T @ (basis.mass[:, None] * pulled)
    C = fmap_from_correspondence(basis, basis, Correspondence(pairs)).matrix
    assert np.array_equal(C, expected)


def test_correspondence_file_roundtrip(tmp_path):
    pairs = np.array([[0, 3], [1, 4], [2, 5]])
    path = tmp_path / "corr.txt"
    save_correspondence(Correspondence(pairs), path)
    assert path.read_text() == "0 3\n1 4\n2 5\n"
    again = load_correspondence(path)
    np.testing.assert_array_equal(again.pairs, pairs)


def test_landmark_identity_fit(bumpy20):
    marks = np.arange(0, bumpy20.num_vertices, 6)
    corr = Correspondence(np.stack([marks, marks], axis=1), "sparse_landmarks")
    fm = fmap_from_landmarks(bumpy20, bumpy20, corr, regularizer_weight=0.0)
    from lskit.fmaps import _landmark_descriptors

    A = _landmark_descriptors(bumpy20, marks)
    B = _landmark_descriptors(bumpy20, marks)
    resid = np.linalg.norm(fm.matrix @ A - B, "fro") / np.linalg.norm(B, "fro")
    assert resid <= 1e-6


def test_landmark_large_weight_drives_diagonal():
    a = cached_bumpy_shape(7, 2, 15)
    b = cached_bumpy_shape(8, 2, 15)
    marks = np.arange(0, a.num_vertices, 4)
    corr = Correspondence(np.stack([marks, marks], axis=1), "sparse_landmarks")
    fm = fmap_from_landmarks(a, b, corr, regularizer_weight=1e6)
    C = fm.matrix
    off = C - np.diag(np.diag(C))
    assert np.linalg.norm(off, "fro") <= 0.10 * np.linalg.norm(C, "fro")


def test_two_landmarks_flagged_underdetermined(bumpy20):
    corr = Correspondence(np.array([[0, 0], [5, 5]]), "sparse_landmarks")
    with pytest.warns(UnderDeterminedWarning):
        fmap_from_landmarks(bumpy20, bumpy20, corr)


def test_pair_difference_identity_map():
    lam = np.linspace(0.0, 5.0, 8)
    fm = FunctionalMap(np.eye(8), "a", "b")
    area = pair_difference(fm, lam, lam, "area")
    conf = pair_difference(fm, lam, lam, "conformal")
    np.testing.assert_array_equal(area.matrix, np.eye(8))
    np.testing.assert_allclose(conf.matrix, np.eye(8), atol=1e-12)


def test_pair_difference_orthonormal_map_is_identity():
    rng = np.random.default_rng(0)
    C = random_orthonormal(rng, 10)
    fm = FunctionalMap(C, "a", "b")
    D = pair_difference(fm, np.arange(10.0), np.arange(10.0), "area")
    assert np.abs(D.matrix - np.eye(10)).max() <= 1e-12


def test_area_difference_psd_property():
    rng = np.random.default_rng(3)
    for _ in range(25):
        C = rng.standard_normal((12, 9))
        D = pair_difference(FunctionalMap(C, "a", "b"), np.arange(9.0), np.arange(12.0), "area")
        sym = np.abs(D.matrix - D.matrix.T).max()
        assert sym <= 1e-10 * max(1.0, np.abs(D.matrix).max())
        assert np.linalg.eigvalsh(D.matrix).min() >= -1e-10


def test_pair_difference_dimension_mismatch():
    fm = FunctionalMap(np.eye(4), "a", "b")
    with pytest.raises(DimensionMismatch):
        pair_difference(fm, np.arange(5.0), np.arange(4.0), "area")


def test_composition_consistency_full_information():
    shapes, net = full_info_family(subdivisions=1, count=3)
    lam = [s.eigenvalues for s in shapes]
    C01 = net.edges[("s0", "s1")].matrix
    C12 = net.edges[("s1", "s2")].matrix
    C02 = net.edges[("s0", "s2")].matrix
    composed = FunctionalMap(C12 @ C01, "s0", "s2")
    for kind in ("area", "conformal"):
        d_direct = pair_difference(net.edges[("s0", "s2")], lam[0], lam[2], kind).matrix
        d_comp = pair_difference(composed, lam[0], lam[2], kind).matrix
        rel = np.linalg.norm(d_direct - d_comp, "fro") / np.linalg.norm(d_direct, "fro")
        assert rel <= 1e-6
