import hashlib
import json

import numpy as np
import pytest

from helpers import grid_patch
from lskit.errors import InvalidArgument
from lskit.fmaps import Correspondence, save_correspondence
from lskit.meshes import Mesh, load_mesh, save_off
from lskit.synth import (
    FamilySpec,
    bump_region,
    chain_family,
    chain_ground_truth,
    family_pairs,
    icosphere,
    perturbation_family,
    realize,
    sphere_bump_family,
    sphere_bump_ground_truth,
    two_cluster_family,
    two_cluster_ground_truth,
    write_family,
    write_identity_correspondences,
)


def test_icosphere_counts_and_unit_radius():
    for sub, nv, nf in ((0, 12, 20), (1, 42, 80), (2, 162, 320), (3, 642, 1280)):
        v, t = icosphere(sub)
        assert v.shape == (nv, 3) and t.shape == (nf, 3)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def test_grid_patch():
    mesh = grid_patch(6)
    assert mesh.num_vertices == 49
    assert mesh.num_triangles == 72


def test_sphere_bump_default_family():
    fam = sphere_bump_family()
    assert len(fam.meshes) == 4
    assert fam.cluster_a == ("a0", "a1") and fam.cluster_b == ("b0", "b1")
    # shared connectivity
    tris = fam.meshes[0].triangles
    for mesh in fam.meshes[1:]:
        np.testing.assert_array_equal(mesh.triangles, tris)
    # cluster a carries the vertical bump, cluster b does not
    v0 = fam.meshes[0].vertices
    v2 = fam.meshes[2].vertices  # b0: same horizontal sweep position, no vertical bump
    outside = np.setdiff1d(np.arange(len(v0)), np.union1d(fam.horizontal_region, fam.vertical_region))
    np.testing.assert_allclose(v0[outside], v2[outside], atol=1e-12)
    assert np.abs(v0[fam.vertical_region] - v2[fam.vertical_region]).max() > 0.01


def test_sphere_bump_zero_heights_identical():
    fam = sphere_bump_family(horizontal_height=0.0, vertical_heights=(0.0, 0.0))
    base = fam.meshes[0].vertices
    for mesh in fam.meshes[1:]:
        np.testing.assert_array_equal(mesh.vertices, base)


def test_sphere_bump_negative_height_rejected():
    with pytest.raises(ValueError):
        sphere_bump_family(horizontal_height=-1.0)


def test_family_determinism():
    a = sphere_bump_family(seed=3)
    b = sphere_bump_family(seed=3)
    for ma, mb in zip(a.meshes, b.meshes):
        np.testing.assert_array_equal(ma.vertices, mb.vertices)
    ta = two_cluster_family(seed=5)
    tb = two_cluster_family(seed=5)
    for ma, mb in zip(ta.meshes, tb.meshes):
        np.testing.assert_array_equal(ma.vertices, mb.vertices)


def test_realize_from_spec_roundtrip():
    fam = two_cluster_family(seed=9)
    again = realize(fam.spec)
    for ma, mb in zip(fam.meshes, again):
        np.testing.assert_array_equal(ma.vertices, mb.vertices)
        assert ma.shape_id == mb.shape_id


def test_chain_family_cycle():
    fam = chain_family(23, cycle=True)
    assert len(fam.meshes) == 23
    p = fam.parameters
    # closed parameter loop: the wrap-around step looks like any other step
    steps = np.linalg.norm(np.diff(np.vstack([p, p[:1]]), axis=0), axis=1)
    assert steps[-1] <= 1.5 * np.median(steps[:-1])
    assert np.ptp(p[:, 0]) > 0 and np.ptp(p[:, 1]) > 0  # two quadrature modes


def test_chain_family_minimal_and_ramp():
    fam = chain_family(3, cycle=True)
    assert len(fam.meshes) == 3
    ramp = chain_family(5, cycle=False)
    heights = ramp.parameters[:, 0]
    assert np.all(np.diff(heights) > 0)
    with pytest.raises(ValueError):
        chain_family(2)


def test_two_cluster_zero_gap_pairs_identical():
    fam = two_cluster_family(inter_gap=0.0, seed=1)
    for ida, idb in fam.pairing:
        ma = next(m for m in fam.meshes if m.shape_id == ida)
        mb = next(m for m in fam.meshes if m.shape_id == idb)
        np.testing.assert_array_equal(ma.vertices, mb.vertices)


def test_two_cluster_zero_spread_within_identical():
    fam = two_cluster_family(intra_spread=0.0, seed=2)
    a_ids = fam.cluster_ids(0)
    base = next(m for m in fam.meshes if m.shape_id == a_ids[0])
    for sid in a_ids[1:]:
        mesh = next(m for m in fam.meshes if m.shape_id == sid)
        np.testing.assert_array_equal(mesh.vertices, base.vertices)


def test_perturbation_family_graded():
    fam = perturbation_family(seed=0, count=5, spread=0.2)
    assert len(fam.meshes) == 5
    assert np.all(np.diff(fam.heights) > 0)
    again = perturbation_family(seed=0, count=5, spread=0.2)
    np.testing.assert_array_equal(fam.meshes[3].vertices, again.meshes[3].vertices)


def test_bump_region_matches_support():
    v, _ = icosphere(2)
    region = bump_region(v, (1.0, 0.0, 0.0), 0.7)
    ang = np.arccos(np.clip(v @ np.array([1.0, 0.0, 0.0]), -1, 1))
    np.testing.assert_array_equal(np.sort(region), np.nonzero(ang <= 0.7)[0])


def test_write_family_layout(tmp_path):
    fam = sphere_bump_family(subdivisions=1)
    write_family(fam.meshes, tmp_path / "out", sphere_bump_ground_truth(fam))
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == ["a0.off", "a1.off", "b0.off", "b1.off", "ground_truth.json"]
    mesh = load_mesh(tmp_path / "out" / "a0.off")
    np.testing.assert_array_equal(mesh.vertices, fam.meshes[0].vertices)
    doc = json.loads((tmp_path / "out" / "ground_truth.json").read_text())
    assert doc["partition"]["cluster_a"] == ["a0", "a1"]
    assert doc["shared_connectivity"]


def test_ground_truth_documents():
    chain = chain_family(5, cycle=True, subdivisions=1)
    doc = chain_ground_truth(chain)
    assert doc["cycle"] and len(doc["order"]) == 5
    two = two_cluster_family(n_per_cluster=2, subdivisions=1)
    doc2 = two_cluster_ground_truth(two)
    assert doc2["pairing"] == [["a0", "b0"], ["a1", "b1"]]
    assert set(doc2["labels"]) == {"a0", "a1", "b0", "b1"}


# sha256 of the vertex bytes and of the face bytes of icosphere(s), recorded
# from the per-edge midpoint-cache subdivision that the vectorized one replaced
ICOSPHERE_DIGESTS = {
    0: ("25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
        "3db7a1822c9b623934e2e4740412c5fbeb065c97b1d30344bad8fa21007c31dc"),
    1: ("06c7f0252260d8fc7aee150c52687730f6e6b5155419da81ee280e48c7b5a6a0",
        "e0cdbcb335bade58be14276c1a7faf8c7b2b9d10522ca0de92c2bd6db7443d1e"),
    2: ("7de701b5e82e6ee7720d5b5c3cbaba8ceec2aa1e2f7901e80eea82c2254f27c0",
        "b749ec47113ac6dd2fa5788272bee48303d83020354a7b3516876ae6685c404a"),
    3: ("e30eeaa5b2391204db18ad30d68443f2573f17187b99a8a2149acb61dc3f8d88",
        "52ba19c5cda73d335f2e29108333509a800acd29026ae2e6c65c32ec3dd5394b"),
    4: ("0ad2d3b64249546dacbf5ec693366050a9b2b396f11f7b1786beda06a3a1b218",
        "1d19353ebb1a280dd705a884e8db6ef144348417dd5324e62326249995dddb35"),
    5: ("530009fc2d21f6622caac7c547696baca4ab1eb07a25eab7ae06dc0c6f9c9503",
        "6bf33a7fc9429eef8639fd65852d853d10c4399075ba2e6a3789cf2ac7743fd9"),
}


@pytest.mark.parametrize("sub", sorted(ICOSPHERE_DIGESTS))
def test_icosphere_bytes_are_pinned(sub):
    v, t = icosphere(sub)
    assert v.dtype == np.float64 and t.dtype == np.int64
    assert v.flags.c_contiguous and t.flags.c_contiguous
    digests = (hashlib.sha256(v.tobytes()).hexdigest(), hashlib.sha256(t.tobytes()).hexdigest())
    assert digests == ICOSPHERE_DIGESTS[sub]


def test_negative_subdivisions_are_refused():
    with pytest.raises(InvalidArgument, match="subdivisions must be >= 0, got -1"):
        icosphere(-1)
    for make in (chain_family, two_cluster_family, sphere_bump_family):
        with pytest.raises(InvalidArgument, match="got -2"):
            make(subdivisions=-2)


def per_line_off(mesh):
    """OFF text as the per-line writer that `save_off` replaced formatted it."""
    return "".join((
        f"OFF\n{mesh.num_vertices} {mesh.num_triangles} 0\n",
        *(f"{x!r} {y!r} {z!r}\n" for x, y, z in np.asarray(mesh.vertices, dtype=np.float64).tolist()),
        *(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()),
    ))


def odd_floats_mesh():
    """Coordinates whose text is easy to get wrong: a signed zero, the
    smallest subnormal, a large power of ten and a sum with a long repr."""
    verts = np.array([[-0.0, 5e-324, 1e16], [0.1 + 0.2, 1.0, -1e16], [0.0, -5e-324, 1e-300], [2.5, -0.0, 1e22]])
    return Mesh(verts, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]], dtype=np.int64), "odd")


FAMILIES = {
    "sphere-bump": lambda: sphere_bump_family(subdivisions=2).meshes,
    "chain": lambda: chain_family(4, subdivisions=2).meshes,
    "two-cluster": lambda: two_cluster_family(n_per_cluster=2, subdivisions=2, seed=4).meshes,
    "perturbation": lambda: perturbation_family(count=3, subdivisions=2).meshes,
    "odd-floats": lambda: [odd_floats_mesh()],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_save_off_writes_the_bytes_of_the_per_line_writer(tmp_path, family):
    for mesh in FAMILIES[family]():
        path = tmp_path / f"{mesh.shape_id}.off"
        save_off(mesh, path)
        assert path.read_bytes() == per_line_off(mesh).encode("utf-8")
        np.testing.assert_array_equal(load_mesh(path).vertices, mesh.vertices)


def per_line_identity(n):
    return "".join(f"{i} {i}\n" for i in range(n))


def test_correspondence_writers_write_the_bytes_of_the_per_line_writer(tmp_path):
    pairs = np.stack([np.arange(50), np.random.default_rng(3).permutation(50)], axis=1)
    save_correspondence(Correspondence(pairs), tmp_path / "perm.txt")
    assert (tmp_path / "perm.txt").read_text() == "".join(f"{s} {t}\n" for s, t in pairs.tolist())
    for fam, truth in ((sphere_bump_family(subdivisions=1), sphere_bump_ground_truth),
                       (chain_family(4, subdivisions=2), chain_ground_truth),
                       (two_cluster_family(n_per_cluster=2, subdivisions=1), two_cluster_ground_truth)):
        out = tmp_path / truth.__name__
        write_identity_correspondences(fam.meshes, family_pairs(truth(fam)), out)
        assert len(list(out.iterdir())) == 2 * len(family_pairs(truth(fam)))
        for path in out.iterdir():
            assert path.read_text() == per_line_identity(fam.meshes[0].num_vertices), path.name


def test_identity_correspondences_of_members_of_two_sizes(tmp_path):
    small, large = sphere_bump_family(subdivisions=1).meshes, chain_family(3, subdivisions=2).meshes
    write_identity_correspondences(small + large, [("a0", "a1"), ("frame00", "frame01"), ("b0", "b1")], tmp_path)
    assert len(list(tmp_path.iterdir())) == 6
    assert (tmp_path / "a1__a0.txt").read_text() == per_line_identity(42)
    assert (tmp_path / "frame01__frame00.txt").read_text() == per_line_identity(162)
    assert (tmp_path / "b0__b1.txt").read_text() == per_line_identity(42)
