import json

import numpy as np
import pytest

from helpers import grid_patch
from lskit.meshes import load_mesh
from lskit.synth import (
    FamilySpec,
    bump_region,
    chain_family,
    chain_ground_truth,
    icosphere,
    perturbation_family,
    realize,
    sphere_bump_family,
    sphere_bump_ground_truth,
    two_cluster_family,
    two_cluster_ground_truth,
    write_family,
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
