import numpy as np
import pytest

from helpers import full_info_family, random_orthonormal, random_spd, suppression_gain
from lskit.errors import (
    DegenerateSpectrumWarning,
    InsufficientShapes,
    NonOrthonormalF,
    NotFullInformation,
    UnknownShape,
)
from lskit.latent import canonicalize, consistent_latent_basis, latent_differences
from lskit.variability import (
    DistinctiveFunction,
    Partition,
    ProjectionBasis,
    cross_collection_variability,
    delta,
    global_variability,
    adjoint_energy_commutativity_check,
    project_difference,
    separation_embedding,
    transfer_to_shape,
)


def test_projection_full_basis_is_identity():
    rng = np.random.default_rng(0)
    D = random_spd(rng, 6)
    F = np.eye(6)
    np.testing.assert_allclose(project_difference(D, F), np.eye(6), atol=1e-12)


def test_projection_empty_basis_is_identity_on_d():
    rng = np.random.default_rng(1)
    D = random_spd(rng, 5)
    F = np.zeros((5, 0))
    np.testing.assert_array_equal(project_difference(D, F), D)


def test_projection_hand_example():
    D = np.diag([2.0, 3.0])
    F = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(project_difference(D, F), np.diag([1.0, 3.0]), atol=1e-14)


def test_projection_action_on_and_off_span():
    rng = np.random.default_rng(2)
    D = random_spd(rng, 8)
    F = random_orthonormal(rng, 8, 3)
    P = project_difference(D, F)
    alpha_in = F @ rng.standard_normal(3)
    np.testing.assert_allclose(P @ alpha_in, alpha_in, atol=1e-10)
    alpha_perp = rng.standard_normal(8)
    alpha_perp -= F @ (F.T @ alpha_perp)
    np.testing.assert_allclose(P @ alpha_perp, D @ alpha_perp, atol=1e-10)


def test_projector_idempotence():
    rng = np.random.default_rng(3)
    F = random_orthonormal(rng, 10, 4)
    FFt = F @ F.T
    assert np.abs(FFt @ FFt - FFt).max() <= 1e-12
    K = np.eye(10) - FFt
    assert np.abs(K @ K - K).max() <= 1e-12


def test_non_orthonormal_f_rejected():
    D = np.eye(3)
    with pytest.raises(NonOrthonormalF):
        project_difference(D, np.ones((3, 2)))
    with pytest.raises(NonOrthonormalF):
        delta(D, D, np.ones((3, 1)))


def test_delta_zero_for_equal_operators():
    rng = np.random.default_rng(4)
    D = random_spd(rng, 7)
    F = random_orthonormal(rng, 7, 2)
    assert delta(D, D, F) == 0.0


def test_delta_hand_example():
    D_i = np.diag([1.0, 2.0])
    D_j = np.zeros((2, 2))
    F = np.array([[0.0], [1.0]])
    assert abs(delta(D_i, D_j, F) - 4.0) < 1e-14


def test_delta_identity_and_nonnegativity():
    # quadratic form equals the drop in squared Frobenius distance (suite of
    # random instances; mirrors the acceptance criterion at smaller volume)
    rng = np.random.default_rng(5)
    for m in (5, 20, 40):
        for _ in range(20):
            D_i, D_j = random_spd(rng, m), random_spd(rng, m)
            F = random_orthonormal(rng, m, rng.integers(1, m))
            val = delta(D_i, D_j, F)
            P_i, P_j = project_difference(D_i, F), project_difference(D_j, F)
            frob = np.linalg.norm(D_i - D_j, "fro") ** 2 - np.linalg.norm(P_i - P_j, "fro") ** 2
            assert val >= -1e-12
            assert abs(val - frob) <= 1e-10 * max(1.0, abs(frob))


def test_global_variability_degenerate_flagged():
    D = np.eye(4)
    with pytest.warns(DegenerateSpectrumWarning):
        out = global_variability([D, D.copy(), D.copy()], count=2)
    assert out[0].degenerate
    assert abs(out[0].eigenvalue) <= 1e-12


def test_global_variability_rank_one():
    m = 6
    D1 = np.zeros((m, m))
    D2 = np.zeros((m, m))
    D2[m - 1, m - 1] = 5.0
    out = global_variability([D1, D2], count=1)
    assert abs(out[0].eigenvalue - 25.0) < 1e-10
    np.testing.assert_allclose(np.abs(out[0].alpha), np.eye(m)[:, m - 1], atol=1e-10)


def test_global_objective_additivity_and_rayleigh_optimality():
    rng = np.random.default_rng(6)
    diffs = [random_spd(rng, 8) for _ in range(4)]
    out = global_variability(diffs, count=1)
    alpha = out[0].alpha
    F = alpha[:, None]
    total = sum(
        delta(diffs[i], diffs[j], F) for i in range(4) for j in range(i + 1, 4)
    )
    assert abs(total - out[0].eigenvalue) <= 1e-10 * max(1.0, out[0].eigenvalue)
    # Monte-Carlo optimality: no random unit probe beats the eigenvector
    for _ in range(1000):
        probe = rng.standard_normal(8)
        probe /= np.linalg.norm(probe)
        val = sum(
            delta(diffs[i], diffs[j], probe[:, None]) for i in range(4) for j in range(i + 1, 4)
        )
        assert val <= out[0].eigenvalue + 1e-9


def test_suppression_effect():
    rng = np.random.default_rng(7)
    diffs = [random_spd(rng, 6) for _ in range(3)]
    top = global_variability(diffs, count=1)[0]
    before = sum(
        np.linalg.norm(diffs[i] - diffs[j], "fro") ** 2
        for i in range(3)
        for j in range(i + 1, 3)
    )
    F = top.alpha[:, None]
    projected = [project_difference(D, F) for D in diffs]
    after = sum(
        np.linalg.norm(projected[i] - projected[j], "fro") ** 2
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert after < before
    assert abs((before - after) - suppression_gain(diffs, F)) <= 1e-9


def test_cross_collection_rank_one_case():
    m = 5
    base = np.eye(m)
    bumped = np.eye(m)
    bumped[m - 1, m - 1] = 3.0
    diffs = {"a0": base, "a1": base.copy(), "b0": bumped, "b1": bumped.copy()}
    part = Partition(("a0", "a1"), ("b0", "b1"))
    out = cross_collection_variability(diffs, part, count=1)
    np.testing.assert_allclose(np.abs(out[0].alpha), np.eye(m)[:, m - 1], atol=1e-10)
    assert out[0].eigenvalue > 0


def test_cross_collection_requires_nonempty_clusters():
    with pytest.raises(InsufficientShapes):
        Partition((), ("b",))
    diffs = {"a": np.eye(2), "b": np.eye(2)}
    with pytest.raises(UnknownShape):
        cross_collection_variability(diffs, Partition(("a",), ("zz",)), 1)


def test_partition_rejects_a_shape_listed_twice_or_in_both_clusters():
    with pytest.raises(ValueError, match=r"lists shapes \['a0', 'b1'\] more than once"):
        Partition(("a0", "a0", "a1"), ("b0", "b1", "b1"))
    with pytest.raises(ValueError, match="disjoint"):
        Partition(("a0", "a1"), ("a1", "b0"))
    with pytest.raises(UnknownShape, match=r"unknown shapes \['zz'\]"):
        Partition(("a0",), ("zz",)).require({"a0", "b0"})


def test_cross_collection_within_weight():
    rng = np.random.default_rng(8)
    diffs = {f"s{i}": random_spd(rng, 4) for i in range(4)}
    part = Partition(("s0", "s1"), ("s2", "s3"))
    heavy = cross_collection_variability(diffs, part, 1, within_weight=5.0)
    light = cross_collection_variability(diffs, part, 1, within_weight=0.0)
    assert heavy[0].eigenvalue <= light[0].eigenvalue


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # m=10 cuts a degenerate latent band (gap 0)
def test_transfer_to_shape():
    shapes, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, 10)
    can, lat = canonicalize(clb, net.spectra())
    zero = DistinctiveFunction(np.zeros(10), 0.0, "global")
    raw, norm = transfer_to_shape(zero, shapes[0], can.Y["s0"])
    assert np.all(raw == 0) and np.all(norm == 0)
    alpha = DistinctiveFunction(np.eye(10)[:, 1], 1.0, "global")
    raw, norm = transfer_to_shape(alpha, shapes[0], can.Y["s0"])
    assert raw.shape == (shapes[0].num_vertices,)
    assert abs(norm.max() - 1.0) < 1e-12
    with pytest.raises(UnknownShape):
        transfer_to_shape(alpha, shapes[0], None)


def test_transfer_identical_members_equal_fields():
    from helpers import bumpy_sphere, cached_bumpy_shape, identity_net
    from lskit.spectral import compute_shape

    base = cached_bumpy_shape(3, 1, 8)
    twin = compute_shape(bumpy_sphere(3, 1, shape_id="twin"), 8)
    net = identity_net([base, twin])
    with pytest.warns(Warning):
        clb = consistent_latent_basis(net, 5)
    can, lat = canonicalize(clb, net.spectra())
    alpha = DistinctiveFunction(np.eye(5)[:, 2], 1.0, "global")
    f1, _ = transfer_to_shape(alpha, base, can.Y[base.shape_id])
    f2, _ = transfer_to_shape(alpha, twin, can.Y["twin"])
    assert np.abs(f1 - f2).max() <= 1e-8


def test_separation_embedding():
    rng = np.random.default_rng(9)
    D = random_spd(rng, 5)
    ids, betas, coords = separation_embedding([D, D.copy(), D.copy()], np.eye(5)[:, 0])
    assert np.abs(coords).max() <= 1e-12
    np.testing.assert_allclose(betas[0], D[:, 0])  # alpha = e1 selects first column
    a, b = random_spd(rng, 5), random_spd(rng, 5) + 3 * np.eye(5)
    diffs = {"a0": a, "a1": a + 1e-3, "b0": b, "b1": b + 1e-3}
    alpha = np.ones(5) / np.sqrt(5)
    ids, betas, coords = separation_embedding(diffs, alpha)
    from scipy.cluster.vq import kmeans2

    _, labels = kmeans2(coords, 2, seed=1, minit="++")
    la = {i for i, sid in enumerate(ids) if sid.startswith("a")}
    groups = {labels[i] for i in la}, {labels[i] for i in range(4) if i not in la}
    assert all(len(g) == 1 for g in groups) and groups[0] != groups[1]


def test_adjoint_energy_commutativity():
    shapes, net = full_info_family(subdivisions=1, count=3)
    n = shapes[0].num_vertices
    clb = consistent_latent_basis(net, n)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    by_id = {s.shape_id: s for s in shapes}
    worst = adjoint_energy_commutativity_check(diffs, can, by_id)
    assert worst <= 1e-6


def test_commutativity_identical_shapes_zero():
    from helpers import bumpy_sphere, cached_bumpy_shape, identity_net
    from lskit.spectral import compute_shape

    base = cached_bumpy_shape(2, 0, 12)  # 12-vertex icosahedron, full basis
    twins = [base, compute_shape(bumpy_sphere(2, 0, shape_id="t"), 12)]
    net = identity_net(twins)
    clb = consistent_latent_basis(net, 12)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    worst = adjoint_energy_commutativity_check(diffs, can, {s.shape_id: s for s in twins})
    assert worst == 0.0  # all difference terms vanish


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # m=10 cuts a degenerate latent band (gap 0)
def test_commutativity_refuses_reduced_basis():
    shapes, net = full_info_family(subdivisions=1, count=3)
    clb = consistent_latent_basis(net, 10)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    with pytest.raises(NotFullInformation):
        adjoint_energy_commutativity_check(diffs, can, {s.shape_id: s for s in shapes})


def test_projection_basis_container():
    rng = np.random.default_rng(10)
    F = ProjectionBasis(random_orthonormal(rng, 6, 2), "test")
    D = random_spd(rng, 6)
    np.testing.assert_allclose(project_difference(D, F), project_difference(D, F.F))
    assert F.p == 2


def _pairwise(mats, pairs):
    """Reference loop: sum over the pairs of (D_i - D_j)^T (D_i - D_j)."""
    Q = np.zeros_like(mats[0])
    for i, j in pairs:
        d = mats[i] - mats[j]
        Q += d.T @ d
    return Q


def _eigenvalues_close(out, Q):
    ref = np.sort(np.linalg.eigvalsh(0.5 * (Q + Q.T)))[::-1]
    got = np.array([f.eigenvalue for f in out])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("spread", [1.0, 1e-3])
def test_closed_forms_match_pairwise_sums(spread):
    # near-isometric members (spread 1e-3 around I) cancel badly in the
    # uncentred form n sum D^T D - S^T S; non-symmetric (conformal-like)
    # operators exercise the Gram orientation
    rng = np.random.default_rng(9)
    m, n, na = 7, 9, 4
    mats = [np.eye(m) + spread * rng.standard_normal((m, m)) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    _eigenvalues_close(global_variability(mats, count=m), _pairwise(mats, pairs))

    diffs = {f"s{i}": D for i, D in enumerate(mats)}
    part = Partition([f"s{i}" for i in range(na)], [f"s{i}" for i in range(na, n)])
    across = [(i, j) for i in range(na) for j in range(na, n)]
    within = [(i, j) for i, j in pairs if (i < na) == (j < na)]
    Q = _pairwise(mats, across) - 0.5 * _pairwise(mats, within)
    _eigenvalues_close(cross_collection_variability(diffs, part, m, within_weight=0.5), Q)

    F = random_orthonormal(rng, m, 3)
    ref = sum(delta(mats[i], mats[j], F) for i, j in pairs)
    assert abs(suppression_gain(diffs, F) - ref) <= 1e-12 * ref
