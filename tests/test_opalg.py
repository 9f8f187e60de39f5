import dataclasses
import warnings

import numpy as np
import pytest

from helpers import full_info_family, random_orthonormal, random_spd
from lskit.errors import EmptyRegion, IllConditioned, SpectralGapWarning, UnknownShape
from lskit.latent import LatentDifference, canonicalize, consistent_latent_basis, latent_differences
from lskit.opalg import (
    align_by_descriptor,
    analogy,
    interpolate,
    localized_basis,
    lssd_spectrum_descriptor,
    partial_mix,
    replay,
)
from lskit.synth import bump_region, icosphere


def test_analogy_identities():
    rng = np.random.default_rng(0)
    A, B, C = random_spd(rng, 6), random_spd(rng, 6), random_spd(rng, 6)
    np.testing.assert_allclose(analogy(A, A, C).result, C, atol=1e-10)
    np.testing.assert_allclose(analogy(A, B, A).result, B, atol=1e-10)


def test_analogy_diagonal_example():
    A, B, C = np.diag([1.0, 2.0]), np.diag([2.0, 2.0]), np.diag([3.0, 1.0])
    np.testing.assert_allclose(analogy(A, B, C).result, np.diag([6.0, 1.0]), atol=1e-12)


def test_analogy_rejects_ill_conditioned():
    A = np.diag([1.0, 1e-12])
    with pytest.raises(IllConditioned):
        analogy(A, np.eye(2), np.eye(2))


def test_interpolate_endpoints_exact():
    rng = np.random.default_rng(1)
    A, B = random_spd(rng, 5), random_spd(rng, 5)
    np.testing.assert_array_equal(interpolate(A, B, 0.0).result, A)
    np.testing.assert_array_equal(interpolate(A, B, 1.0).result, B)
    np.testing.assert_allclose(interpolate(np.zeros((3, 3)), np.eye(3), 0.5).result, np.eye(3) / 2)


def test_interpolate_linearity_and_psd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A, B = random_spd(rng, 6), random_spd(rng, 6)
        t = float(rng.random())
        s = interpolate(A, B, t).result + interpolate(A, B, 1.0 - t).result
        assert np.abs(s - (A + B)).max() <= 1e-12
        assert np.linalg.eigvalsh(interpolate(A, B, t).result).min() >= -1e-12


def test_interpolate_domain():
    with pytest.raises(ValueError):
        interpolate(np.eye(2), np.eye(2), 1.5)
    with pytest.raises(ValueError):
        interpolate(np.eye(2), np.eye(3), 0.5)


def test_partial_mix_limits_and_example():
    rng = np.random.default_rng(3)
    A, B = random_spd(rng, 4), random_spd(rng, 4)
    np.testing.assert_allclose(partial_mix(A, B, np.eye(4)).result, B, atol=1e-12)
    np.testing.assert_array_equal(partial_mix(A, B, np.zeros((4, 0))).result, A)
    D_A, D_B = np.diag([1.0, 4.0]), np.eye(2)
    F = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(partial_mix(D_A, D_B, F).result, np.eye(2), atol=1e-14)


def test_partial_mix_self_is_identity_op():
    rng = np.random.default_rng(4)
    D = random_spd(rng, 7)
    F = random_orthonormal(rng, 7, 3)
    np.testing.assert_allclose(partial_mix(D, D, F).result, D, atol=1e-12)


def test_replay_bit_identical():
    rng = np.random.default_rng(5)
    A, B, C = random_spd(rng, 5), random_spd(rng, 5), random_spd(rng, 5)
    for expr in (analogy(A, B, C), interpolate(A, B, 0.37), partial_mix(A, B, random_orthonormal(rng, 5, 2))):
        again = replay(expr.recipe)
        np.testing.assert_array_equal(again.result, expr.result)


def test_descriptors_of_a_sequence_are_each_operators_rows():
    """One stacked eigensolve gives each operator's own descriptor, bit for
    bit, and warns once for each asymmetric area operator."""
    rng = np.random.default_rng(9)
    skew = np.triu(np.ones((5, 5)), 1) * 1e-3
    ops = [
        random_spd(rng, 5),
        LatentDifference(random_spd(rng, 5) + skew, "area", "a"),
        LatentDifference(random_spd(rng, 5) + skew, "conformal", "b"),
        LatentDifference(random_spd(rng, 5) + skew, "area", "c"),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        singles = [lssd_spectrum_descriptor(D) for D in ops]
        rows = lssd_spectrum_descriptor(ops)
    assert [str(w.message) for w in caught] == ["area operator unexpectedly asymmetric; symmetrizing"] * 4
    assert rows.shape == (4, 5) and all(np.array_equal(row, single) for row, single in zip(rows, singles))


def test_descriptor_identity_and_invariance():
    assert np.array_equal(lssd_spectrum_descriptor(np.eye(6)), np.ones(6))
    rng = np.random.default_rng(6)
    D = random_spd(rng, 6)
    Q = random_orthonormal(rng, 6)
    rotated = Q @ D @ Q.T  # equal operators up to basis rotation share spectra
    assert np.abs(lssd_spectrum_descriptor(D) - lssd_spectrum_descriptor(rotated)).max() <= 1e-10


def test_descriptor_symmetrizes_conformal():
    D = np.array([[1.0, 0.5], [0.0, 2.0]])
    got = lssd_spectrum_descriptor(D)
    np.testing.assert_allclose(got, np.linalg.eigvalsh(0.5 * (D + D.T)))


def test_align_by_descriptor():
    a = {"a0": np.array([1.0, 2.0]), "a1": np.array([5.0, 5.0])}
    b = {"b0": np.array([1.1, 2.1]), "b1": np.array([5.2, 4.9])}
    assert align_by_descriptor(a, b) == {"a0": "b0", "a1": "b1"}


@pytest.fixture(scope="module")
def localized_setup():
    shapes, net = full_info_family(subdivisions=1, count=3)
    # module scope runs before the autouse filter: m=20 truncates across a gap of exactly 0 on purpose
    with pytest.warns(SpectralGapWarning, match="m=20 cuts a spectral gap"):
        clb = consistent_latent_basis(net, 20)
    can, lat = canonicalize(clb, net.spectra())
    return shapes, net, can, lat


def test_localized_basis_full_region(localized_setup):
    shapes, net, can, lat = localized_setup
    region = np.arange(shapes[0].num_vertices)
    F = localized_basis(lat, can, shapes[0], region, p=5)
    assert np.abs(F.F.T @ F.F - np.eye(F.p)).max() <= 1e-10
    # indicator of everything is the constant: first direction ~ e1
    assert abs(F.F[0, 0]) >= 0.9


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=50 splits b0's eigenvalue cluster at 40.0
def test_localized_basis_disjoint_regions():
    # measured on the sphere-bump family: the two bump caps support a couple
    # of well-concentrated latent modes each, and those are near-orthogonal
    from lskit.network import attach_maps, build_topology, identity_map_provider
    from lskit.spectral import compute_shape, shape_dna
    from lskit.synth import sphere_bump_family

    fam = sphere_bump_family(subdivisions=2)
    shapes = [compute_shape(mesh, 50) for mesh in fam.meshes]
    net = attach_maps(
        shapes, build_topology([shape_dna(s) for s in shapes], "clique"), identity_map_provider, "clique"
    )
    clb = consistent_latent_basis(net, 30)
    can, lat = canonicalize(clb, net.spectra())
    Fa = localized_basis(lat, can, shapes[0], fam.horizontal_region)
    Fb = localized_basis(lat, can, shapes[0], fam.vertical_region)
    sv = np.linalg.svd(Fa.F.T @ Fb.F, compute_uv=False)
    assert sv.max() <= 0.3


def test_localized_basis_errors(localized_setup):
    shapes, net, can, lat = localized_setup
    with pytest.raises(EmptyRegion):
        localized_basis(lat, can, shapes[0], np.array([], dtype=int))
    foreign = dataclasses.replace(shapes[0], shape_id="stranger")
    with pytest.raises(UnknownShape):
        localized_basis(lat, can, foreign, np.array([0, 1]))


def test_partial_mix_on_latent_operators(localized_setup):
    shapes, net, can, lat = localized_setup
    diffs = latent_differences(can, net.spectra(), lat, "area")
    v, _ = icosphere(1)
    region = bump_region(v, (1.0, 0.0, 0.0), 0.7)
    F = localized_basis(lat, can, shapes[0], region, p=4)
    mixed = partial_mix(diffs["s0"], diffs["s1"], F)
    # acts as D_s1 on span(F), as D_s0 off it
    x_in = F.F @ np.ones(F.p)
    np.testing.assert_allclose(mixed.result @ x_in, diffs["s1"].matrix @ x_in, atol=1e-10)
    x_out = np.ones(can.m) - F.F @ (F.F.T @ np.ones(can.m))
    np.testing.assert_allclose(mixed.result @ x_out, diffs["s0"].matrix @ x_out, atol=1e-10)
