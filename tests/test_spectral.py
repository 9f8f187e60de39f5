import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from helpers import (
    apply_rigid,
    bumpy_sphere,
    cached_bumpy_shape,
    dense_generalized_eigh,
    grid_patch,
    random_rotation,
    solver_path,
    subspace_sine,
    total_area,
    unit_area_triangle,
)
from lskit.errors import DegenerateGeometry, RankDeficientMass, SpectralGapWarning
from lskit.meshes import Mesh, validate_mesh
from lskit.spectral import (
    MetricMeasure,
    _lowest_eigenpairs,
    compute_shape,
    eigenbasis,
    metric_measure,
    shape_dna,
)
from lskit.synth import icosphere, sphere_bump_family


@pytest.fixture(scope="module")
def ico2():
    v, t = icosphere(2)
    return validate_mesh(v, t, "ico2")


def test_unit_triangle_barycentric_mass():
    mm = metric_measure(unit_area_triangle())
    np.testing.assert_allclose(mm.mass_diag, np.full(3, 1.0 / 3.0), atol=1e-14)
    assert abs(total_area(mm) - 1.0) < 1e-14


def test_stiffness_row_sums_zero(ico2):
    mm = metric_measure(ico2)
    row_sums = np.asarray(mm.stiffness.sum(axis=1)).ravel()
    scale = np.abs(mm.stiffness).max()
    assert np.abs(row_sums).max() <= 1e-10 * scale


def test_stiffness_symmetric(ico2):
    mm = metric_measure(ico2)
    L = mm.stiffness
    asym = sparse.linalg.norm(L - L.T, "fro") / sparse.linalg.norm(L, "fro")
    assert asym <= 1e-12


def reference_stiffness(mesh):
    """The cotangent stiffness as `metric_measure` assembled it in one pass
    with the mass: the reference for the assembly on first use."""
    v, t, n = mesh.vertices, mesh.triangles, mesh.num_vertices
    p = [v[t[:, i]] for i in range(3)]
    edges = [p[2] - p[1], p[0] - p[2], p[1] - p[0]]
    double_area = np.linalg.norm(np.cross(edges[0], -edges[2]), axis=1)
    rows, cols, vals = [], [], []
    for corner in range(3):
        a, b = (corner + 1) % 3, (corner + 2) % 3
        half_cot = 0.5 * (np.einsum("ij,ij->i", -edges[b], edges[a]) / double_area)
        i, j = t[:, a], t[:, b]
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-half_cot, -half_cot, half_cot, half_cot]
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


def test_stiffness_assembled_on_first_use_equals_the_reference_bit_for_bit():
    mesh = bumpy_sphere(1, 2)
    mm, want = metric_measure(mesh), reference_stiffness(mesh)
    L = mm.stiffness
    assert L.format == "csr" and L.shape == want.shape and mm.stiffness is L
    for got, ref in ((L.data, want.data), (L.indices, want.indices), (L.indptr, want.indptr)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_a_non_finite_cotangent_fails_when_the_stiffness_is_read():
    """The mass does not need the cotangents: a measure of a triangle with no
    area (an unvalidated mesh) gives its mass, and fails when its stiffness
    is assembled."""
    v, t = icosphere(0)
    mesh = Mesh(v, np.vstack([t, [[0, 1, 0]]]), "flat")
    mm = metric_measure(mesh)
    assert mm.num_vertices == len(v) and np.all(mm.mass_diag > 0)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(DegenerateGeometry, match="non-finite cotangent"):
        mm.stiffness


def test_uniform_scaling_scales_mass_not_stiffness(ico2):
    mm = metric_measure(ico2)
    s = 1.7
    scaled = validate_mesh(ico2.vertices * s, ico2.triangles, "scaled")
    mm_s = metric_measure(scaled)
    np.testing.assert_allclose(mm_s.mass_diag, mm.mass_diag * s**2, rtol=1e-12)
    d = sparse.linalg.norm(mm_s.stiffness - mm.stiffness, "fro")
    assert d <= 1e-12 * sparse.linalg.norm(mm.stiffness, "fro")


def test_k1_constant_eigenvector(ico2):
    mm = metric_measure(ico2)
    basis = eigenbasis(mm, 1)
    assert basis.eigenvalues[0] <= 1e-10
    expected = 1.0 / np.sqrt(total_area(mm))
    np.testing.assert_allclose(np.abs(basis.eigenvectors[:, 0]), expected, rtol=1e-8)
    assert basis.eigenvectors[:, 0].max() > 0  # sign convention


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=10 splits the icosphere's eigenvalue cluster at 11.3
def test_unit_sphere_low_spectrum(ico2):
    # continuous sphere Laplacian eigenvalues are l(l+1); the l=1 triple is 2
    shape = compute_shape(ico2, 10)
    lam = shape.eigenvalues
    assert lam[0] <= 1e-10
    np.testing.assert_allclose(lam[1:4], 2.0, rtol=0.05)
    np.testing.assert_allclose(lam[4:9], 6.0, rtol=0.05)


def test_full_basis_against_dense_oracle():
    mesh = grid_patch(6)  # 49 vertices
    mm = metric_measure(mesh)
    basis = eigenbasis(mm, mesh.num_vertices)
    lam_o, _ = dense_generalized_eigh(mm.stiffness, mm.mass_diag)
    np.testing.assert_allclose(basis.eigenvalues, lam_o, atol=1e-8 * lam_o.max())
    gram = basis.eigenvectors.T @ (mm.mass_diag[:, None] * basis.eigenvectors)
    assert np.abs(gram - np.eye(mesh.num_vertices)).max() <= 1e-10


def test_generalized_residual_and_orthonormality():
    shape = cached_bumpy_shape(1, 2, 25)
    L = metric_measure(bumpy_sphere(1, 2)).stiffness
    scale = sparse.linalg.norm(L, "fro")
    resid = L @ shape.eigenvectors - (
        shape.mass[:, None] * shape.eigenvectors
    ) * shape.eigenvalues[None, :]
    assert np.linalg.norm(resid, axis=0).max() <= 1e-8 * scale
    gram = shape.eigenvectors.T @ (shape.mass[:, None] * shape.eigenvectors)
    assert np.abs(gram - np.eye(25)).max() <= 1e-8
    lam = shape.eigenvalues
    assert lam[0] <= 1e-8 * lam[-1]
    assert np.all(np.diff(lam) >= -1e-12)


def test_rigid_motion_invariance():
    mesh = bumpy_sphere(2, 2)
    rng = np.random.default_rng(5)
    moved = apply_rigid(mesh, random_rotation(rng), np.array([0.4, -2.0, 1.0]), "moved")
    mm, mm2 = metric_measure(mesh), metric_measure(moved)
    np.testing.assert_allclose(mm2.mass_diag, mm.mass_diag, rtol=1e-9)
    d = sparse.linalg.norm(mm2.stiffness - mm.stiffness, "fro")
    assert d <= 1e-9 * sparse.linalg.norm(mm.stiffness, "fro")
    b1 = eigenbasis(mm, 15)
    b2 = eigenbasis(mm2, 15)
    np.testing.assert_allclose(b2.eigenvalues, b1.eigenvalues, rtol=1e-9, atol=1e-12)


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=6 splits the icosphere's eigenvalue cluster at 5.86
def test_connected_sphere_has_single_zero_mode(ico2):
    shape = compute_shape(ico2, 6)
    lam = shape.eigenvalues
    assert lam[0] <= 1e-10
    assert lam[1] > 1e-3  # next mode well away from zero
    assert np.all(lam >= 0)


def test_eigenbasis_deterministic():
    a = cached_bumpy_shape(3, 1, 12)
    mm = metric_measure(bumpy_sphere(3, 1))
    again = eigenbasis(mm, 12)
    np.testing.assert_array_equal(a.eigenvectors, again.eigenvectors)
    np.testing.assert_array_equal(a.eigenvalues, again.eigenvalues)


def test_sign_convention():
    shape = cached_bumpy_shape(4, 1, 10)
    vecs = shape.eigenvectors
    idx = np.argmax(np.abs(vecs), axis=0)
    assert np.all(vecs[idx, np.arange(10)] > 0)


def test_shape_dna_prefix_and_errors():
    from lskit.spectral import SpectralBasis

    basis = SpectralBasis(np.array([0.0, 2.1, 2.2]), np.zeros((5, 3)), "toy")
    np.testing.assert_array_equal(shape_dna(basis, 2), [0.0, 2.1])
    with pytest.raises(ValueError):
        shape_dna(basis, 4)


def test_shape_dna_rigid_invariance():
    mesh = bumpy_sphere(6, 1)
    rng = np.random.default_rng(11)
    moved = apply_rigid(mesh, random_rotation(rng), np.array([1.0, 1.0, -3.0]), "m")
    d1 = shape_dna(compute_shape(mesh, 12))
    d2 = shape_dna(compute_shape(moved, 12))
    scale = max(d1.max(), 1.0)
    assert np.abs(d1 - d2).max() <= 1e-9 * scale


def test_rank_deficient_mass_rejected():
    mesh = unit_area_triangle()
    mm = metric_measure(mesh)
    bad = MetricMeasure(mm.stiffness, np.array([1.0, 0.0, 1.0]), "bad")
    with pytest.raises(RankDeficientMass):
        eigenbasis(bad, 2)


def test_k_out_of_range():
    mm = metric_measure(unit_area_triangle())
    with pytest.raises(ValueError):
        eigenbasis(mm, 4)
    with pytest.raises(ValueError):
        eigenbasis(mm, 0)


def test_eigenbasis_dense_and_shift_invert_agree():
    mm = metric_measure(bumpy_sphere(1, 3))  # 642 vertices, generic spectrum
    with solver_path("dense"):
        dense = eigenbasis(mm, 30)
    with solver_path("sparse"):
        shift = eigenbasis(mm, 30)
    np.testing.assert_allclose(shift.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=1e-12)
    assert subspace_sine(dense.eigenvectors, shift.eigenvectors, mm.mass_diag) <= 1e-10
    # simple eigenvalues: the sign convention makes the bases equal columnwise
    np.testing.assert_allclose(shift.eigenvectors, dense.eigenvectors, atol=1e-9)


@pytest.mark.parametrize("path", ["dense", "sparse"])
@pytest.mark.parametrize("k, splits", [(4, False), (9, False), (2, True), (7, True)])
def test_gap_warning_only_when_k_splits_a_band(ico2, path, k, splits):
    # the icosphere's l=1 triple and l=2 quintuple are exactly degenerate:
    # k=4 and k=9 end a band, k=2 and k=7 cut one
    mm = metric_measure(ico2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with solver_path(path):
            eigenbasis(mm, k)
    assert any(issubclass(w.category, SpectralGapWarning) for w in caught) == splits


def test_shift_invert_returns_every_member_of_a_degenerate_band():
    # sphere-bump member b0 is a plain subdivision-5 icosphere (10242
    # vertices, shift-invert path) and k=49 ends its bands l <= 6; started
    # from the constant vector, an exact eigenvector, the solver returned
    # four of the five copies of 41.849 and 55.710 as the 49th eigenvalue
    b0 = next(m for m in sphere_bump_family(n_per_cluster=1, subdivisions=5).meshes if m.shape_id == "b0")
    mm = metric_measure(b0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = eigenbasis(mm, 49)
    assert not any(issubclass(w.category, SpectralGapWarning) for w in caught)
    continuum = np.repeat([l * (l + 1.0) for l in range(7)], [2 * l + 1 for l in range(7)])
    np.testing.assert_allclose(basis.eigenvalues, continuum, rtol=1e-2, atol=1e-10)
    quintuple = basis.eigenvalues[39:44]  # l=6 splits into 3 + 5 + 4 + 1
    np.testing.assert_allclose(quintuple, 41.849, rtol=1e-4)
    assert np.ptp(quintuple) <= 1e-9 * quintuple[0]
    gram = basis.eigenvectors.T @ (mm.mass_diag[:, None] * basis.eigenvectors)
    assert np.abs(gram - np.eye(49)).max() <= 1e-8


@pytest.mark.parametrize(
    "size, count, path",
    [
        (2568, 642, "dense"),  # criterion 01: full bases of 4 x 642 vertices
        (1000, 30, "dense"),
        (1001, 30, "sparse"),
        (1150, 20, "sparse"),  # criterion 06: 23 shapes x k=50
        (2400, 300, "dense"),  # an eighth of the spectrum or more
        (2400, 290, "sparse"),
    ],
)
def test_dispatch_by_size_and_share_of_spectrum(monkeypatch, size, count, path):
    taken = []

    def fake(kind):
        def solve(A, **kwargs):
            taken.append(kind)
            want = kwargs["k"] if "k" in kwargs else kwargs["subset_by_index"][1] + 1
            return np.arange(want, dtype=float), np.ones((size, want))

        return solve

    monkeypatch.setattr(scipy.linalg, "eigh", fake("dense"))
    monkeypatch.setattr(sla, "eigsh", fake("sparse"))
    lam, vecs = _lowest_eigenpairs(sparse.identity(size, format="csr"), count)
    assert taken == [path]
    assert lam.shape == (count + 1,) and vecs.shape == (size, count)
