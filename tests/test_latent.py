import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from helpers import (
    apply_rigid,
    bumpy_sphere,
    cached_bumpy_shape,
    full_info_family,
    full_info_meshes,
    identity_net,
    landmark_net,
    mean_shape_oracle,
    permute_vertices,
    random_rotation,
    solver_path,
    subspace_sine,
    with_id,
)
from lskit.errors import InsufficientShapes, ProviderFailure, RequiresCanonical, SpectralGapWarning
from lskit.fmaps import Correspondence, FunctionalMap, fmap_from_correspondence, pair_difference
from lskit.latent import (
    LatentShape,
    _block_matrix,
    canonical_residuals,
    canonicalize,
    consistent_latent_basis,
    extend_to_shape,
    latent_differences,
    nearest_member,
    stability_probe,
)
from lskit.network import FMNetwork
from lskit.spectral import compute_shape
from lskit.synth import chain_family, perturbation_family


def identical_collection(n=3, k=12, seed=2):
    base = cached_bumpy_shape(seed, 1, k)
    return [base] + [compute_shape(bumpy_sphere(seed, 1, shape_id=f"twin{i}"), k) for i in range(1, n)]


def test_identical_shapes_kernel_structure():
    shapes = identical_collection(3, k=12)
    net = identity_net(shapes)
    with pytest.warns(SpectralGapWarning):
        clb = consistent_latent_basis(net, 8)  # cuts inside the exact kernel
    assert clb.consistency_residual <= 1e-10
    for sid in clb.order:
        gram = clb.Y[sid].T @ clb.Y[sid]
        assert np.abs(gram - np.eye(8) / 3.0).max() <= 1e-8


def test_single_shape_no_edges():
    shape = cached_bumpy_shape(0, 1, 10)
    net = FMNetwork([shape], {}, "single")
    clb = consistent_latent_basis(net, 10)
    gram = clb.Y[shape.shape_id].T @ clb.Y[shape.shape_id]
    assert np.abs(gram - np.eye(10)).max() <= 1e-10


def test_exact_clique_zero_residual():
    _, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, net.shapes[0].k)
    assert clb.consistency_residual <= 1e-8


def test_canonicalize_idempotent():
    _, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, 42)
    spectra = net.spectra()
    can, lat = canonicalize(clb, spectra)
    again, lat2 = canonicalize(can, spectra)
    np.testing.assert_allclose(lat2.spectrum, lat.spectrum, atol=1e-10 * max(1, lat.spectrum.max()))
    for sid in can.order:
        np.testing.assert_allclose(again.Y[sid], can.Y[sid], atol=1e-8)


def test_identical_shapes_latent_spectrum_matches_member():
    # with m = k the latent basis spans the full consistency kernel, so the
    # canonical spectrum must reproduce each member's own eigenvalues
    shapes = identical_collection(3, k=12)
    net = identity_net(shapes)
    clb = consistent_latent_basis(net, 12)
    can, lat = canonicalize(clb, net.spectra())
    lam = shapes[0].eigenvalues
    assert np.abs(lat.spectrum - lam).max() <= 1e-8 * max(1.0, lam.max())


def test_mean_shape_oracle_equivalence():
    shapes, net = full_info_family(subdivisions=1, count=4)
    n = shapes[0].num_vertices
    clb = consistent_latent_basis(net, n)
    can, lat = canonicalize(clb, net.spectra())
    lam_o, phi_o, Mbar = mean_shape_oracle(full_info_meshes(subdivisions=1, count=4))
    assert np.abs(lat.spectrum - lam_o).max() / lam_o.max() <= 1e-6
    phi0 = shapes[0].eigenvectors @ can.Y[shapes[0].shape_id]
    # recovered basis is orthonormal wrt sum(M) = count * mean(M)
    phi0 = phi0 * np.sqrt(len(shapes))
    num = np.abs(np.einsum("vi,v,vi->i", phi0, Mbar, phi_o))
    den = np.sqrt(
        np.einsum("vi,v,vi->i", phi0, Mbar, phi0) * np.einsum("vi,v,vi->i", phi_o, Mbar, phi_o)
    )
    cos = num / den
    gaps = np.minimum(np.diff(lam_o, prepend=-np.inf), np.diff(lam_o, append=np.inf))
    outside = gaps > 1e-5 * lam_o.max()
    assert cos[outside].min() >= 1.0 - 1e-6


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # m=20 cuts a degenerate latent band (gap 0)
def test_canonical_constraint_pair():
    shapes, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, 20)
    can, _ = canonicalize(clb, net.spectra())
    ortho, offdiag = canonical_residuals(can, net.spectra())
    assert ortho <= 1e-8
    assert offdiag <= 1e-8


def test_latent_differences_identity_family():
    shapes = identical_collection(3, k=10)
    net = identity_net(shapes)
    with pytest.warns(SpectralGapWarning):
        clb = consistent_latent_basis(net, 6)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    total = np.zeros((6, 6))
    for sid, D in diffs.items():
        assert np.abs(D.matrix - np.eye(6) / 3.0).max() <= 1e-8
        total += D.matrix
    assert np.abs(total - np.eye(6)).max() <= 1e-8
    normalized = latent_differences(can, net.spectra(), lat, "area", normalized=True)
    for D in normalized.values():
        assert np.abs(D.matrix - np.eye(6)).max() <= 1e-8


def test_latent_differences_require_canonical():
    shapes = identical_collection(3, k=8)
    net = identity_net(shapes)
    with pytest.warns(SpectralGapWarning):
        clb = consistent_latent_basis(net, 4)
    with pytest.raises(RequiresCanonical):
        latent_differences(clb, net.spectra(), LatentShape(np.zeros(4)), "area")


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # m=15 cuts a degenerate latent band (gap 0)
def test_sum_rule_generic_family():
    shapes, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, 15)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    total = sum(D.matrix for D in diffs.values())
    assert np.abs(total - np.eye(15)).max() <= 1e-8


def test_functoriality_full_information():
    shapes, net = full_info_family(subdivisions=1, count=3)
    n = shapes[0].num_vertices
    clb = consistent_latent_basis(net, n)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            si, sj = f"s{i}", f"s{j}"
            direct = pair_difference(
                net.edges[(si, sj)],
                net.shape(si).eigenvalues,
                net.shape(sj).eigenvalues,
                "area",
            ).matrix
            Yi = can.Y[si]
            through = Yi @ np.linalg.solve(diffs[si].matrix, diffs[sj].matrix) @ np.linalg.inv(Yi)
            rel = np.linalg.norm(direct - through, "fro") / np.linalg.norm(direct, "fro")
            assert rel <= 1e-6


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # m=20 cuts a degenerate latent band (gap 0)
def test_informativeness_probe():
    # two visibly different shapes must produce distinguishable operators
    shapes, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, 20)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    d01 = np.linalg.norm(diffs["s0"].matrix - diffs["s1"].matrix, "fro")
    assert d01 >= 1e-3


def test_isometry_invariance_within_collection():
    base = cached_bumpy_shape(9, 1, 12)
    rng = np.random.default_rng(4)
    moved = apply_rigid(bumpy_sphere(9, 1), random_rotation(rng), np.array([0.3, 0.1, -2.0]), "copy")
    twin_mesh, pairs = permute_vertices(moved, rng.permutation(base.num_vertices), "copy")
    twin = compute_shape(twin_mesh, 12)
    corr = Correspondence(pairs)
    rev = Correspondence(pairs[:, ::-1])

    def provider(src, tgt):
        c = corr if src.shape_id == base.shape_id else rev
        return fmap_from_correspondence(src, tgt, c)

    from lskit.network import attach_maps

    net = attach_maps([base, twin], [(0, 1)], provider, "pair")
    with pytest.warns(SpectralGapWarning):
        clb = consistent_latent_basis(net, 8)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    assert np.abs(diffs[base.shape_id].matrix - diffs["copy"].matrix).max() <= 1e-8


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # m=20 cuts a degenerate latent band (gap 0)
def test_extend_identical_twin_exact():
    shapes, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, 20)
    can, lat = canonicalize(clb, net.spectra())
    twin = compute_shape(with_id(full_info_meshes(count=1)[0], "new"), net.shape("s0").k)

    def provider(src, tgt):
        return fmap_from_correspondence(
            src, tgt, Correspondence(np.stack([np.arange(tgt.num_vertices)] * 2, axis=1))
        )

    neighbor = nearest_member(can, net.spectra(), twin)
    assert neighbor == "s0"
    Y_new, diffs = extend_to_shape(lat, net.shape(neighbor), twin, provider)
    diffs_core = latent_differences(can, net.spectra(), lat, "area")
    assert np.abs(diffs["area"].matrix - diffs_core["s0"].matrix).max() <= 1e-8
    # a different neighbor still reproduces the operator
    _, diffs_b = extend_to_shape(lat, net.shape("s1"), twin, provider)
    assert np.abs(diffs_b["area"].matrix - diffs_core["s0"].matrix).max() <= 1e-6


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # m=20 cuts a degenerate latent band (gap 0)
def test_extend_rejects_non_finite_map():
    _, net = full_info_family(subdivisions=1, count=3)
    can, lat = canonicalize(consistent_latent_basis(net, 20), net.spectra())
    twin = compute_shape(with_id(full_info_meshes(count=1)[0], "new"), net.shape("s0").k)

    def provider(src, tgt):
        matrix = np.eye(tgt.k, src.k)
        matrix[1, 1] = np.nan
        return FunctionalMap(matrix, src.shape_id, tgt.shape_id)

    with pytest.raises(ProviderFailure) as err:
        extend_to_shape(lat, net.shape("s1"), twin, provider)
    assert err.value.edge == ("s1", "new")


def test_extend_requires_canonical_basis():
    twin = cached_bumpy_shape(0, 1, 8)
    with pytest.raises(RequiresCanonical):
        extend_to_shape(LatentShape(np.zeros(4), clb=None), None, twin, lambda a, b: None)


def test_stability_probe_duplicate_extra():
    fam = perturbation_family(seed=0, count=4)
    shapes = [compute_shape(m, 20) for m in fam.meshes]
    dup = compute_shape(with_id(fam.meshes[0], "dup"), 20)
    net = landmark_net(shapes + [dup], stride=4, weight=1e-2)
    probe = stability_probe(net, "dup", m=10)
    assert probe.r_canonical >= 0.99
    assert probe.r_canonical >= probe.r_standard - 1e-12


def test_stability_probe_requires_enough_shapes():
    fam = perturbation_family(seed=1, count=3)
    shapes = [compute_shape(m, 15) for m in fam.meshes]
    net = landmark_net(shapes, stride=4)
    with pytest.raises(InsufficientShapes):
        stability_probe(net, shapes[-1].shape_id, m=6)


def test_spectral_gap_warning_on_degenerate_cut():
    # m=8 cuts the exact 40-dimensional kernel of three identical shapes:
    # any 8 kernel vectors are a valid answer, and both paths must warn
    shapes = identical_collection(3, k=40)
    net = identity_net(shapes)
    W, _ = _block_matrix(net, tuple(net.ids))
    for path in ("dense", "sparse"):
        with solver_path(path), pytest.warns(SpectralGapWarning):
            clb = consistent_latent_basis(net, 8)
        assert np.abs(W @ clb.stacked()).max() <= 1e-10


def _landmark_collection():
    shapes = [compute_shape(mesh, 30) for mesh in perturbation_family(count=5).meshes]
    return landmark_net(shapes), 10


def _criterion_06_chain():
    # gap at m is 6e-10 against a form of norm 13
    shapes = [compute_shape(mesh, 50) for mesh in chain_family(23, cycle=True).meshes]
    return identity_net(shapes, "chain", order=list(range(23))), 20


@pytest.mark.parametrize("build", [_landmark_collection, _criterion_06_chain], ids=["landmark", "chain"])
def test_latent_basis_dense_and_shift_invert_agree(build):
    net, m = build()
    with solver_path("dense"):
        dense = consistent_latent_basis(net, m)
    with solver_path("sparse"):
        shift = consistent_latent_basis(net, m)
    # perturbation bound: backward error of order eps * |W| over the gap at m
    W, _ = _block_matrix(net, dense.order)
    lam = np.linalg.eigvalsh(W.toarray())
    bound = 1e-14 * sla.norm(W, 1) / (lam[m] - lam[m - 1])
    assert subspace_sine(dense.stacked(), shift.stacked()) <= bound
    spectra = net.spectra()
    lat_dense = canonicalize(dense, spectra)[1].spectrum
    lat_shift = canonicalize(shift, spectra)[1].spectrum
    assert np.abs(lat_shift - lat_dense).max() <= bound * lat_dense.max()


def test_m_out_of_range():
    shapes = identical_collection(2, k=6)
    net = identity_net(shapes)
    with pytest.raises(ValueError):
        consistent_latent_basis(net, 7)


def coo_block_matrix(net, order):
    """Oracle for `_block_matrix`: every summed block expanded into COO
    triplets, then converted to CSC through CSR."""
    ks = [net.shape(i).k for i in order]
    offsets = np.concatenate([[0], np.cumsum(ks)])
    pos = {sid: idx for idx, sid in enumerate(order)}
    blocks = {}
    for (i, j), fm in net.edges.items():
        C, bi, bj = fm.matrix, pos[i], pos[j]
        for key, mat in (((bi, bi), C.T @ C), ((bj, bj), np.eye(C.shape[0])), ((bi, bj), -C.T), ((bj, bi), -C)):
            blocks[key] = blocks.get(key, 0) + mat
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for (bi, bj), mat in blocks.items():
        r, c = np.divmod(np.arange(mat.size), mat.shape[1])
        rows.append(r + offsets[bi])
        cols.append(c + offsets[bj])
        vals.append(mat.ravel())
    size = int(offsets[-1])
    coo = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size))
    return coo.tocsr().tocsc()


@pytest.fixture(scope="module")
def chain_120():
    """The 120-member chain at k=40 under a knn:4 topology: a 4800-wide form."""
    shapes = [compute_shape(mesh, 40) for mesh in chain_family(count=120, subdivisions=2).meshes]
    return identity_net(shapes, "knn", k_nn=4)


def _unequal_k():
    shapes = [compute_shape(mesh, k) for mesh, k in zip(full_info_meshes(subdivisions=1, count=4), (8, 13, 11, 17))]
    return identity_net(shapes, "clique")  # the other topologies compare equal-length shape-DNA


def _single_node():
    return FMNetwork([cached_bumpy_shape(0, 1, 10)], {}, "single")


@pytest.mark.parametrize("build", [None, _unequal_k, _single_node], ids=["chain-120", "unequal-k", "single-node"])
def test_block_matrix_is_the_coo_assembly_in_csc(build, request):
    net = request.getfixturevalue("chain_120") if build is None else build()
    order = tuple(net.ids)
    W, offsets = _block_matrix(net, order)
    oracle = coo_block_matrix(net, order)
    assert W.format == "csc" and W.shape == oracle.shape
    assert list(offsets) == list(np.concatenate([[0], np.cumsum([net.shape(i).k for i in order])]))
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(W, name), getattr(oracle, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
    assert W.tocsc() is W  # the solver's conversion copies nothing


def test_block_matrix_allocates_little_beyond_the_matrix(chain_120):
    order = tuple(chain_120.ids)
    tracemalloc.start()
    try:
        W, _ = _block_matrix(chain_120, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.shape == (4800, 4800)
    assert peak <= 1.5 * (W.data.nbytes + W.indices.nbytes + W.indptr.nbytes)
