import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import bumpy_sphere, listed_files, name_digest, tracked, tree_bytes, with_id
from lskit import matio, opalg, variability
from lskit.cli import build_parser, main
from lskit.latent import LatentDifference
from lskit.matio import read_matrix, sha256_file
from lskit.meshes import load_mesh, save_off
from lskit.opalg import lssd_spectrum_descriptor
from lskit.synth import sphere_bump_family, sphere_bump_ground_truth, two_cluster_family, two_cluster_ground_truth, write_family
from lskit.variability import global_variability


@pytest.fixture(scope="module")
def family_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("family")
    fam = sphere_bump_family(subdivisions=1)
    write_family(fam.meshes, root, sphere_bump_ground_truth(fam))
    return root


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, family_dir):
    ws = tmp_path_factory.mktemp("ws")
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "16"]) == 0
    assert main(["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]) == 0
    assert (
        main(["latent", "--workspace", str(ws), "--m", "10", "--kind", "both", "--normalized"])
        == 0
    )
    return ws


def manifest_of(ws):
    return json.loads((ws / "manifest.json").read_text())


def test_synth_command(tmp_path):
    out = tmp_path / "chain"
    assert main(["synth", "chain", "--out", str(out), "--count", "5", "--subdivisions", "1"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "ground_truth.json" in names and "correspondences" in names
    assert sum(n.endswith(".off") for n in names) == 5
    assert len(list((out / "correspondences").iterdir())) == 8  # 4 consecutive pairs x 2


def test_spectra_manifest_and_idempotence(family_dir, workspace, capsys):
    manifest = manifest_of(workspace)
    assert sorted(manifest["shapes"]) == ["a0", "a1", "b0", "b1"]
    for sid, entry in manifest["shapes"].items():
        assert entry["k"] == 16
        for rel in entry["files"].values():
            assert (workspace / rel).is_file()
    capsys.readouterr()
    assert main(["spectra", str(family_dir), "--workspace", str(workspace), "--k", "16"]) == 0
    out = capsys.readouterr().out
    assert "up to date" in out


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=8 splits b0's eigenvalue cluster at 5.48
def test_spectra_corrupt_mesh_fails_loudly(tmp_path, capsys):
    fam_dir = tmp_path / "meshes"
    fam = sphere_bump_family(subdivisions=1)
    write_family(fam.meshes, fam_dir)
    (fam_dir / "broken.off").write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n")
    ws = tmp_path / "ws"
    assert main(["spectra", str(fam_dir), "--workspace", str(ws), "--k", "8"]) == 1
    err = capsys.readouterr().err
    assert "broken.off" in err


def test_fmn_artifacts(workspace):
    manifest = manifest_of(workspace)
    assert manifest["fmn"]["topology"] == "clique"
    assert len(manifest["fmn"]["edges"]) == 12  # 4 shapes, clique, both directions
    for _, _, rel in manifest["fmn"]["edges"]:
        assert (workspace / rel).is_file()


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=12 splits b0's eigenvalue cluster at 9.52
def test_fmn_knn_saturation(tmp_path, family_dir, caplog):
    ws = tmp_path / "ws"
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "12"]) == 0
    assert main(["fmn", "--workspace", str(ws), "--topology", "knn:10", "--maps", "identity"]) == 0
    manifest = json.loads((ws / "manifest.json").read_text())
    assert len(manifest["fmn"]["edges"]) == 12  # saturated to the clique


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=8 splits b0's eigenvalue cluster at 5.48
def test_fmn_missing_correspondence(tmp_path, family_dir, capsys):
    ws = tmp_path / "ws"
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "8"]) == 0
    empty = tmp_path / "corr"
    empty.mkdir()
    code = main([
        "fmn", "--workspace", str(ws), "--topology", "chain",
        "--maps", "correspondence", "--corr-dir", str(empty),
    ])
    assert code == 1
    assert "missing correspondence" in capsys.readouterr().err


def test_fmn_missing_correspondence_file_names_the_edge(tmp_path, capsys):
    out = tmp_path / "chain"
    assert main(["synth", "chain", "--out", str(out), "--count", "4", "--subdivisions", "1"]) == 0
    missing = out / "correspondences" / "frame01__frame02.txt"
    missing.unlink()
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(out), "--workspace", ws, "--k", "8"]) == 0
    capsys.readouterr()
    fmn = ["fmn", "--workspace", ws, "--topology", "chain", "--corr-dir", str(out / "correspondences")]
    assert main(fmn + ["--maps", "correspondence"]) == 1
    assert capsys.readouterr().err == (
        f"error: map provider failed for edge ('frame01', 'frame02'): missing correspondence file {missing}\n"
    )


def test_fmn_identity_maps_between_unequal_vertex_counts_name_the_edge(tmp_path, capsys):
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    for sid, subdivisions in (("a0", 1), ("a1", 2)):  # 42 and 162 vertices
        save_off(bumpy_sphere(seed=subdivisions, subdivisions=subdivisions, shape_id=sid), mesh_dir / f"{sid}.off")
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(mesh_dir), "--workspace", ws, "--k", "8"]) == 0
    capsys.readouterr()
    assert main(["fmn", "--workspace", ws, "--topology", "chain", "--maps", "identity"]) == 1
    assert capsys.readouterr().err == (
        "error: map provider failed for edge ('a0', 'a1'): identity correspondence needs equal vertex counts\n"
    )


@pytest.mark.parametrize("topology", ["knn:x", "foo", "knn:0", "knn:-1", "knn:", "mst:2"])
def test_fmn_malformed_topology_is_a_usage_error(tmp_path, capsys, topology):
    ws = tmp_path / "ws"
    with pytest.raises(SystemExit) as exc:
        main(["fmn", "--workspace", str(ws), "--topology", topology, "--maps", "identity"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --topology: invalid topology {topology!r}" in err
    assert "mst | knn | knn:K (K >= 1) | clique | chain | two-cluster" in err
    assert not ws.exists()


@pytest.mark.parametrize("topology", ["knn", "knn:2"])
def test_fmn_records_a_valid_topology_as_given(tmp_path, workspace, topology):
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    assert main(["fmn", "--workspace", str(ws), "--topology", topology, "--maps", "identity"]) == 0
    assert manifest_of(ws)["fmn"]["topology"] == topology


@pytest.mark.parametrize("k", ["0", "-3"])
def test_spectra_k_below_one_is_a_usage_error(tmp_path, family_dir, capsys, k):
    ws = tmp_path / "ws"
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", k]) == 2
    assert capsys.readouterr().err == f"usage error: --k must be at least 1, got {k}\n"
    assert not (ws / "manifest.json").exists()


@pytest.mark.parametrize("m", ["0", "-2"])
def test_latent_m_below_one_is_a_usage_error(tmp_path, workspace, capsys, m):
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["latent", "--workspace", str(ws), "--m", m]) == 2
    assert capsys.readouterr().err == f"usage error: --m must be at least 1, got {m}\n"
    assert tree_bytes(ws) == before


def test_latent_artifacts_and_outputs(workspace, capsys):
    manifest = manifest_of(workspace)
    lat = manifest["latent"]
    assert lat["m"] == 10
    assert sorted(lat["Y"]) == ["a0", "a1", "b0", "b1"]
    assert sorted(manifest["diffs"]["files"]) == ["area", "conformal"]  # the kinds stored
    for kind in ("area", "conformal"):
        assert len(manifest["diffs"]["files"][kind]) == 4
    lam0 = read_matrix(workspace / lat["lambda0"])
    assert lam0.shape == (10, 1)
    assert lam0[0, 0] <= 1e-8 * max(1.0, lam0.max())


def test_latent_m_too_large_is_usage_error(workspace):
    assert main(["latent", "--workspace", str(workspace), "--m", "99"]) == 2


def test_variability_global_and_cross(workspace, family_dir):
    part = family_dir / "ground_truth.json"
    assert main(["variability", "--workspace", str(workspace), "--mode", "global", "--count", "3"]) == 0
    doc = json.loads((workspace / "variability" / "global.json").read_text())
    assert doc["count"] == 3
    eigs = [f["eigenvalue"] for f in doc["functions"]]
    assert eigs == sorted(eigs, reverse=True)
    assert (workspace / "variability" / "global_embedding.csv").is_file()
    assert (
        main([
            "variability", "--workspace", str(workspace), "--mode", "cross",
            "--partition", str(part), "--emit-fields",
        ])
        == 0
    )
    bundle = json.loads((workspace / "fields" / "cross.json").read_text())
    assert sorted(bundle["shapes"]) == ["a0", "a1", "b0", "b1"]
    field_file = workspace / "fields" / "cross.a0.txt"
    lines = field_file.read_text().splitlines()
    assert len(lines) == 42  # one value per vertex
    idx, val = lines[5].split()
    assert idx == "5"
    float(val)


def test_a_fields_bundle_entry_is_its_field_file_and_max_abs(workspace):
    assert main(["variability", "--workspace", str(workspace), "--mode", "global", "--emit-fields"]) == 0
    bundle = json.loads((workspace / "fields" / "global.json").read_text())
    assert sorted(bundle["shapes"]) == ["a0", "a1", "b0", "b1"]
    for entry in bundle["shapes"].values():
        assert sorted(entry) == ["field", "max_abs"]
        assert entry["max_abs"] == np.max(np.abs(np.loadtxt(workspace / entry["field"], usecols=1)))


def test_variability_cross_requires_partition(workspace):
    assert main(["variability", "--workspace", str(workspace), "--mode", "cross"]) == 2


@pytest.mark.parametrize("count", ["0", "-1"])
def test_variability_count_below_one_is_a_usage_error(tmp_path, workspace, capsys, count):
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["variability", "--workspace", str(ws), "--mode", "global", "--count", count]) == 2
    assert f"usage error: --count must be at least 1, got {count}" in capsys.readouterr().err
    assert tree_bytes(ws) == before


def test_conformal_differences_feed_variability_and_descriptors(tmp_path, workspace, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    files = manifest_of(ws)["diffs"]["files"]["conformal"]
    diffs = {sid: LatentDifference(read_matrix(ws / rel), "conformal", sid, True) for sid, rel in files.items()}
    assert main(["variability", "--workspace", str(ws), "--mode", "global", "--count", "2",
                 "--diff-kind", "conformal"]) == 0
    doc = json.loads((ws / "variability" / "global.json").read_text())
    assert doc["kind"] == "conformal" and doc["functions"] == [
        {"alpha": f.alpha.tolist(), "eigenvalue": f.eigenvalue, "degenerate": f.degenerate}
        for f in global_variability(diffs, count=2)
    ]
    assert main(["ops", "descriptors", "--workspace", str(ws), "--diff-kind", "conformal"]) == 0
    doc = json.loads((ws / "ops" / "descriptors.conformal.json").read_text())
    assert doc == {sid: lssd_spectrum_descriptor(D).tolist() for sid, D in diffs.items()}
    # an area-only workspace stores no conformal differences
    assert main(["latent", "--workspace", str(ws), "--m", "10"]) == 0
    for argv in (["variability", "--mode", "global", "--diff-kind", "conformal"],
                 ["ops", "descriptors", "--diff-kind", "conformal"]):
        capsys.readouterr()
        assert main(argv + ["--workspace", str(ws)]) == 1
        assert "no 'conformal' differences stored" in capsys.readouterr().err


def test_ops_interp_identity(workspace):
    assert main([
        "ops", "interp", "a0", "a0", "--t", "0.3", "--workspace", str(workspace),
    ]) == 0
    out = read_matrix(workspace / "ops" / "interp_a0_a0_t0.3.area.lsk")
    manifest = manifest_of(workspace)
    a0 = read_matrix(workspace / manifest["diffs"]["files"]["area"]["a0"])
    np.testing.assert_allclose(out, a0, atol=1e-12)  # (1-t)A + tA rounds at ulp scale
    recipe = json.loads((workspace / "ops" / "interp_a0_a0_t0.3.area.json").read_text())
    assert recipe["op"] == "interpolate" and recipe["t"] == 0.3


def test_ops_analogy_and_descriptors(workspace):
    assert main(["ops", "analogy", "a0", "a1", "b0", "--workspace", str(workspace)]) == 0
    assert (workspace / "ops" / "analogy_a0_a1_b0.area.lsk").is_file()
    assert main(["ops", "descriptors", "--workspace", str(workspace)]) == 0
    doc = json.loads((workspace / "ops" / "descriptors.area.json").read_text())
    assert sorted(doc) == ["a0", "a1", "b0", "b1"]
    assert all(len(v) == 10 for v in doc.values())


@pytest.mark.parametrize("argv", [["analogy", "a0", "zz", "b0"], ["interp", "zz", "b0", "--t", "0.5"],
                                  ["mix", "a0", "zz", "--region", "unread.json"]], ids=lambda argv: argv[0])
def test_ops_unknown_operand_exits_1(workspace, capsys, argv):
    capsys.readouterr()
    assert main(["ops", *argv, "--workspace", str(workspace)]) == 1
    assert capsys.readouterr().err == f"error: {argv[0]} operands must be shape ids with stored differences\n"


def test_ops_mix_with_region(workspace, family_dir):
    truth = json.loads((family_dir / "ground_truth.json").read_text())
    region_doc = {"shape": "a0", "vertices": truth["vertical_region"]}
    region_path = workspace / "region.json"
    region_path.write_text(json.dumps(region_doc))
    assert main([
        "ops", "mix", "a0", "b0", "--region", str(region_path), "--workspace", str(workspace),
    ]) == 0
    assert (workspace / "ops" / "mix_a0_b0.area.lsk").is_file()


@pytest.fixture(scope="module")
def two_cluster_ws(tmp_path_factory):
    """A four-shape two-cluster workspace through `latent`, and its ground_truth.json."""
    root = tmp_path_factory.mktemp("two-cluster")
    fam = two_cluster_family(n_per_cluster=2, subdivisions=2)
    fam_dir, ws = root / "meshes", root / "ws"
    write_family(fam.meshes, fam_dir, two_cluster_ground_truth(fam))
    part = fam_dir / "ground_truth.json"
    for argv in (
        ["spectra", str(fam_dir), "--k", "40"],
        ["fmn", "--topology", "two-cluster", "--maps", "identity", "--partition", str(part)],
        ["latent", "--m", "15"],
    ):
        assert main(argv + ["--workspace", str(ws)]) == 0
    return ws, part


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # align's m=15 cuts a degenerate latent band (gap 0)
def test_ops_align_two_cluster(two_cluster_ws, capsys):
    ws, part = two_cluster_ws
    capsys.readouterr()
    assert main(["ops", "align", "--workspace", str(ws), "--partition", str(part)]) == 0
    out = capsys.readouterr().out
    assert "a0 -> b0" in out and "a1 -> b1" in out


def test_extend_duplicate_twin(tmp_path, workspace, capsys):
    manifest = manifest_of(workspace)
    mesh = load_mesh(workspace / manifest["shapes"]["a0"]["mesh"], shape_id="dup")
    dup_path = tmp_path / "dup.off"
    save_off(mesh, dup_path)
    n = mesh.num_vertices
    corr_path = tmp_path / "corr.txt"
    corr_path.write_text("".join(f"{i} {i}\n" for i in range(n)))
    assert main([
        "extend", "--workspace", str(workspace), "--mesh", str(dup_path),
        "--neighbor", "auto", "--corr", str(corr_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "a0" in out  # neighbor choice logged
    manifest = manifest_of(workspace)
    ext = manifest["latent"]["extended"]["dup"]
    assert ext["neighbor"] == "a0"
    dup_area = read_matrix(workspace / ext["diffs"]["area"])
    a0_area = read_matrix(workspace / manifest["diffs"]["files"]["area"]["a0"])
    assert np.abs(dup_area - a0_area).max() <= 1e-8


def test_extend_unknown_neighbor(tmp_path, workspace, monkeypatch, capsys):
    from lskit import spectral

    def no_solve(*args, **kwargs):
        raise AssertionError("extend solved the new shape's eigenproblem before checking --neighbor")

    monkeypatch.setattr(spectral, "compute_shape", no_solve)

    manifest = manifest_of(workspace)
    mesh = load_mesh(workspace / manifest["shapes"]["a1"]["mesh"], shape_id="dup2")
    dup_path = tmp_path / "dup2.off"
    save_off(mesh, dup_path)
    corr_path = tmp_path / "corr.txt"
    corr_path.write_text("".join(f"{i} {i}\n" for i in range(mesh.num_vertices)))
    assert main([
        "extend", "--workspace", str(workspace), "--mesh", str(dup_path),
        "--neighbor", "nope", "--corr", str(corr_path),
    ]) == 1
    assert "unknown --neighbor 'nope'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=8 splits b0's eigenvalue cluster at 5.48
def test_manifest_tamper_aborts(tmp_path, family_dir, capsys):
    ws = tmp_path / "ws"
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "8"]) == 0
    manifest = json.loads((ws / "manifest.json").read_text())
    victim = sorted(listed_files(manifest))[0]
    with open(ws / victim, "r+b") as fh:
        fh.seek(16)
        fh.write(b"\x01")
    assert main(["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]) == 1
    assert "hash mismatch" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["fmn"])  # missing required --workspace
    assert exc.value.code == 2


def test_fmn_correspondence_mode_matches_identity(tmp_path):
    out = tmp_path / "chain"
    assert main(["synth", "chain", "--out", str(out), "--count", "4", "--subdivisions", "1"]) == 0
    corr_dir = out / "correspondences"
    assert len(list(corr_dir.iterdir())) == 6  # 3 consecutive pairs, both directions
    ws_a, ws_b = tmp_path / "wsa", tmp_path / "wsb"
    for ws in (ws_a, ws_b):
        assert main(["spectra", str(out), "--workspace", str(ws), "--k", "10"]) == 0
    assert main([
        "fmn", "--workspace", str(ws_a), "--topology", "chain",
        "--maps", "correspondence", "--corr-dir", str(corr_dir),
    ]) == 0
    assert main(["fmn", "--workspace", str(ws_b), "--topology", "chain", "--maps", "identity"]) == 0
    man_a = json.loads((ws_a / "manifest.json").read_text())
    man_b = json.loads((ws_b / "manifest.json").read_text())
    assert len(man_a["fmn"]["edges"]) == 6
    for (sa, ta, rel_a), (sb, tb, rel_b) in zip(man_a["fmn"]["edges"], man_b["fmn"]["edges"]):
        assert (sa, ta) == (sb, tb)
        np.testing.assert_array_equal(read_matrix(ws_a / rel_a), read_matrix(ws_b / rel_b))


@pytest.mark.parametrize("family, flags, topology, k", [
    ("sphere-bump", ["--subdivisions", "1"], ["--topology", "clique"], 16),
    ("chain", ["--count", "4", "--subdivisions", "1"], ["--topology", "chain"], 10),
    ("two-cluster", ["--per-cluster", "2", "--subdivisions", "2"],
     ["--topology", "two-cluster", "--partition", "{data}/ground_truth.json"], 20),
])
def test_each_family_writes_the_correspondences_of_its_own_topology(tmp_path, capsys, family, flags, topology, k):
    data, ws = tmp_path / "data", ["--workspace", str(tmp_path / "ws")]
    assert main(["synth", family, "--out", str(data), *flags]) == 0
    assert main(["spectra", str(data), "--k", str(k)] + ws) == 0
    capsys.readouterr()
    topology = [arg.format(data=data) for arg in topology]
    fmn = ["fmn", *topology, "--maps", "correspondence", "--corr-dir", str(data / "correspondences")]
    assert main(fmn + ws) == 0, capsys.readouterr().err


def test_a_config_file_is_rejected_before_any_write(tmp_path, family_dir, workspace, capsys):
    fresh, ws = tmp_path / "fresh", tmp_path / "ws"
    fresh.mkdir()
    shutil.copytree(workspace, ws)
    for root in (fresh, ws):
        (root / "config.json").write_text(json.dumps({"k": 9, "m": 5}))
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"shape": "a0", "vertices": [0, 1, 2]}))
    mesh = tmp_path / "x0.off"
    save_off(with_id(load_mesh(family_dir / "a0.off"), "x0"), mesh)
    corr = tmp_path / "x0.txt"
    corr.write_text("".join(f"{i} {i}\n" for i in range(42)))
    for root, argv in (
        (fresh, ["spectra", str(family_dir)]),
        (ws, ["spectra", str(family_dir), "--k", "16"]),
        (ws, ["fmn", "--topology", "clique", "--maps", "identity"]),
        (ws, ["latent", "--m", "10"]),
        (ws, ["variability", "--mode", "global"]),
        (ws, ["ops", "descriptors"]),
        (ws, ["ops", "mix", "a0", "b0", "--region", str(region)]),
        (ws, ["extend", "--mesh", str(mesh), "--corr", str(corr), "--neighbor", "a0"]),
    ):
        before = tree_bytes(root)
        capsys.readouterr()
        assert main(argv + ["--workspace", str(root)]) == 1, argv
        assert f"{root / 'config.json'} is no longer read" in capsys.readouterr().err
        assert tree_bytes(root) == before, argv


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=12 splits b0's eigenvalue cluster at 9.52
def test_ops_analogy_ill_conditioned_exits_1(tmp_path, family_dir, capsys):
    from lskit.matio import Workspace

    ws = tmp_path / "ws"
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "12"]) == 0
    assert main(["fmn", "--workspace", str(ws), "--topology", "mst", "--maps", "identity"]) == 0
    assert main(["latent", "--workspace", str(ws), "--m", "8"]) == 0
    # overwrite one stored operator with a near-singular matrix, keep hashes valid
    wsp = Workspace(ws)
    manifest = wsp.load_manifest()
    manifest["diffs"]["files"]["area"]["a0"] = wsp.write_tracked_matrix(
        os.path.join("diffs", "a0.area.lsk"), np.diag([1.0] + [1e-14] * 7)
    )
    wsp.save_manifest(manifest)
    assert main(["ops", "analogy", "a0", "a1", "b0", "--workspace", str(ws)]) == 1
    assert "condition" in capsys.readouterr().err


def test_ops_recipe_json_replays_bit_identical(workspace):
    from lskit.opalg import replay

    assert main(["ops", "analogy", "a1", "b0", "b1", "--workspace", str(workspace)]) == 0
    stored = read_matrix(workspace / "ops" / "analogy_a1_b0_b1.area.lsk")
    doc = json.loads((workspace / "ops" / "analogy_a1_b0_b1.area.json").read_text())
    recipe = {
        "op": doc["op"],
        "operands": {k: np.array(v) for k, v in doc["operands"].items()},
    }
    again = replay(recipe)
    np.testing.assert_array_equal(again.result, stored)


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=12 splits a0's eigenvalue cluster at 9.52
def test_latent_identical_shapes_residuals(tmp_path, capsys):
    fam_dir = tmp_path / "meshes"
    assert main([
        "synth", "sphere-bump", "--out", str(fam_dir), "--subdivisions", "1",
        "--horizontal-height", "0", "--vertical-height", "0",
    ]) == 0
    ws = tmp_path / "ws"
    assert main(["spectra", str(fam_dir), "--workspace", str(ws), "--k", "12"]) == 0
    assert main(["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]) == 0
    capsys.readouterr()
    assert main(["latent", "--workspace", str(ws), "--m", "12"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("canonical residuals"))
    nums = [float(tok.rstrip(",")) for tok in line.split() if any(c.isdigit() for c in tok)]
    assert all(v <= 1e-8 for v in nums)


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # align's m=15 cuts a degenerate latent band (gap 0)
def test_ops_align_prints_accuracy(two_cluster_ws, capsys):
    ws, part = two_cluster_ws
    capsys.readouterr()
    assert main(["ops", "align", "--workspace", str(ws), "--partition", str(part)]) == 0
    out = capsys.readouterr().out
    assert "pairing accuracy vs ground truth: 2/2 (100%)" in out


@pytest.mark.parametrize("pairing", [5, [["a0"]], [["a0", 1]]], ids=["int", "one-id", "int-id"])
def test_ops_align_rejects_a_malformed_pairing(tmp_path, two_cluster_ws, capsys, pairing):
    ws, part = two_cluster_ws
    path = tmp_path / "ground_truth.json"
    path.write_text(json.dumps({**json.loads(part.read_text()), "pairing": pairing}))
    capsys.readouterr()
    assert main(["ops", "align", "--workspace", str(ws), "--partition", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"error: partition file {path}: 'pairing' must be a list of two-string lists" in captured.err
    assert captured.out == ""  # rejected before the alignment


def test_upstream_rerun_drops_stale_results(tmp_path, family_dir, capsys):
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(family_dir), "--workspace", ws, "--k", "30"]) == 0
    assert main(["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"]) == 0
    assert main(["latent", "--workspace", ws, "--m", "15"]) == 0
    # new spectra: the k=30 clique network and its latent results are stale
    assert main(["spectra", str(family_dir), "--workspace", ws, "--k", "20"]) == 0
    assert not {"fmn", "latent", "diffs"} & set(manifest_of(tmp_path / "ws"))
    assert main(["fmn", "--workspace", ws, "--topology", "mst", "--maps", "identity"]) == 0
    capsys.readouterr()
    for argv in (
        ["variability", "--workspace", ws, "--mode", "global"],
        ["ops", "analogy", "a0", "a1", "b0", "--workspace", ws],
        ["variability", "--workspace", ws, "--mode", "cross", "--emit-fields",
         "--partition", str(family_dir / "ground_truth.json")],
    ):
        assert main(argv) == 1
        assert "`latent`" in capsys.readouterr().err
    # rerunning fmn with identical maps keeps latent; a new topology drops it
    assert main(["latent", "--workspace", ws, "--m", "15"]) == 0
    assert main(["fmn", "--workspace", ws, "--topology", "mst", "--maps", "identity"]) == 0
    assert main(["variability", "--workspace", ws, "--mode", "global"]) == 0
    assert main(["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"]) == 0
    assert main(["variability", "--workspace", ws, "--mode", "global"]) == 1


@pytest.mark.parametrize("case", ["unknown-region-shape", "missing-region", "missing-partition"])
def test_bad_input_exits_1(tmp_path, workspace, case, capsys):
    missing = str(tmp_path / "missing.json")
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"shape": "nope", "vertices": [0, 1, 2]}))
    argv, named = {
        "unknown-region-shape": (["ops", "mix", "a0", "b0", "--region", str(region)], "'nope'"),
        "missing-region": (["ops", "mix", "a0", "b0", "--region", missing], missing),
        "missing-partition": (["variability", "--mode", "cross", "--partition", missing], missing),
    }[case]
    assert main(argv + ["--workspace", str(workspace)]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("what, doc, problem", [
    ("partition", [["a0", "a1"], ["b0", "b1"]], "'cluster_a' must be a list of str"),
    ("partition", {"cluster_a": "a0", "cluster_b": ["b0"]}, "'cluster_a' must be a list of str"),
    ("region", {"shape": "a0"}, "'vertices' must be a list of int"),
    ("region", [0, 1, 2], "'vertices' must be a list of int"),
    ("region", {"shape": "a0", "vertices": [1.5, 2.7]}, "'vertices' must be a list of int"),
    ("partition", b"cluster_a: [a0, a1]\n", "not JSON"),  # bytes are written as they are
    ("region", b"\xff\xfe{}", "not JSON"),
], ids=["partition-list", "partition-of-a-string", "region-without-vertices", "region-list", "fractional-vertices",
        "partition-not-json", "region-not-json"])
def test_malformed_partition_or_region_exits_1(tmp_path, workspace, capsys, what, doc, problem):
    path = tmp_path / f"{what}.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    argv = {
        "partition": ["variability", "--mode", "cross", "--partition", str(path)],
        "region": ["ops", "mix", "a0", "b0", "--region", str(path)],
    }[what]
    assert main(argv + ["--workspace", str(workspace)]) == 1
    err = capsys.readouterr().err
    assert f"error: {what} file {path}" in err and problem in err


def test_ops_align_with_an_unknown_shape_exits_1(tmp_path, workspace, capsys):
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"cluster_a": ["a0", "zz"], "cluster_b": ["b0", "b1"]}))
    before = tree_bytes(workspace)
    assert main(["ops", "align", "--partition", str(partition), "--workspace", str(workspace)]) == 1
    assert capsys.readouterr().err == "error: partition references unknown shapes ['zz']\n"
    assert tree_bytes(workspace) == before


@pytest.mark.parametrize("argv", [
    ["variability", "--mode", "cross"],
    ["fmn", "--topology", "two-cluster", "--maps", "identity"],
    ["ops", "align"],
], ids=["variability", "fmn", "align"])
def test_a_partition_that_lists_a_shape_twice_exits_1(tmp_path, workspace, capsys, argv):
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"cluster_a": ["a0", "a0", "a1"], "cluster_b": ["b0", "b1"]}))
    before = tree_bytes(workspace)
    assert main(argv + ["--partition", str(partition), "--workspace", str(workspace)]) == 1
    assert capsys.readouterr().err == "error: partition lists shapes ['a0'] more than once\n"
    assert tree_bytes(workspace) == before


@pytest.mark.parametrize("case", ["corr-token", "interp-t", "synth-count", "region-vertex"])
def test_a_library_argument_error_exits_1_with_one_line(tmp_path, family_dir, workspace, capsys, case):
    """A library's refusal of an argument is an `LskitError`: one `error:`
    line and exit 1, with nothing written. (A partition that lists a shape
    twice: `test_a_partition_that_lists_a_shape_twice_exits_1`.)"""
    corr, region, x0 = tmp_path / "corr.txt", tmp_path / "region.json", tmp_path / "x0.off"
    corr.write_text("0 0\n1 x\n")
    region.write_text(json.dumps({"shape": "a0", "vertices": [0, 10**6]}))
    save_off(with_id(load_mesh(family_dir / "a0.off"), "x0"), x0)
    argv, problem = {
        "corr-token": (["extend", "--mesh", str(x0), "--corr", str(corr)], f"{corr}: could not convert string 'x'"),
        "interp-t": (["ops", "interp", "a0", "b0", "--t", "2"], "t=2.0 outside [0, 1]"),
        "synth-count": (["synth", "chain", "--count", "2", "--out", str(tmp_path / "out")], "count must be >= 3"),
        "region-vertex": (["ops", "mix", "a0", "b0", "--region", str(region)], "region index out of range"),
    }[case]
    if argv[0] != "synth":
        argv += ["--workspace", str(workspace)]
    before = tree_bytes(workspace)
    capsys.readouterr()
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {problem}"), line
    assert tree_bytes(workspace) == before and not (tmp_path / "out").exists()


def test_a_value_error_of_a_fault_is_not_taken_for_bad_input(workspace, monkeypatch):
    """`main` reports `LskitError`s and `OSError`s; a plain ValueError from
    inside the library is a fault, and its traceback is kept."""
    def broken(D):
        raise ValueError("a fault inside the library")

    monkeypatch.setattr(opalg, "lssd_spectrum_descriptor", broken)
    with pytest.raises(ValueError, match="a fault inside the library"):
        main(["ops", "descriptors", "--workspace", str(workspace)])


def test_variability_fields_fail_before_any_write(tmp_path, workspace, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    shutil.rmtree(ws / "fields", ignore_errors=True)
    assert main(["variability", "--workspace", str(ws), "--mode", "global", "--count", "2"]) == 0
    before = tree_bytes(ws / "variability")
    y = manifest_of(ws)["latent"]["Y"]["a1"]
    with open(ws / y, "r+b") as fh:
        fh.seek(40)
        fh.write(b"\x01")
    capsys.readouterr()
    assert main(["variability", "--workspace", str(ws), "--mode", "global", "--emit-fields"]) == 1
    assert f"hash mismatch for {y!r}" in capsys.readouterr().err
    assert tree_bytes(ws / "variability") == before and not (ws / "fields").exists()


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=8 splits b0's eigenvalue cluster at 5.48
def test_fmn_landmark_maps(tmp_path, family_dir, capsys):
    ws = tmp_path / "ws"
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "8"]) == 0
    marks = tmp_path / "landmarks"
    marks.mkdir()
    ids = ["a0", "a1", "b0", "b1"]
    for a in ids:
        for b in ids:
            if a != b:
                (marks / f"{a}__{b}.txt").write_text("".join(f"{i} {i}\n" for i in range(0, 42, 3)))
    fmn = ["fmn", "--workspace", str(ws), "--topology", "chain", "--maps", "landmarks"]
    assert main(fmn + ["--corr-dir", str(marks)]) == 0
    manifest = manifest_of(ws)
    assert manifest["fmn"]["maps"] == "landmarks" and len(manifest["fmn"]["edges"]) == 6
    for _, _, rel in manifest["fmn"]["edges"]:
        C = read_matrix(ws / rel)
        assert C.shape == (8, 8) and np.all(np.isfinite(C))
    (marks / "a1__b0.txt").unlink()
    capsys.readouterr()
    assert main(fmn + ["--corr-dir", str(marks)]) == 1
    assert f"missing landmark file {marks / 'a1__b0.txt'}" in capsys.readouterr().err


def test_extend_uses_the_k_of_the_collection(tmp_path, capsys):
    # fmn and latent run without --k; the new shape must still be computed
    # at the collection's k=20
    fam = two_cluster_family(n_per_cluster=2, subdivisions=1, seed=3)
    fam_dir = tmp_path / "meshes"
    write_family(fam.meshes, fam_dir)
    extra = with_id(two_cluster_family(n_per_cluster=2, subdivisions=1, seed=4).meshes[0], "x0")
    x0, corr = tmp_path / "x0.off", tmp_path / "corr.txt"
    save_off(extra, x0)
    corr.write_text("".join(f"{i} {i}\n" for i in range(extra.num_vertices)))
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(fam_dir), "--workspace", ws, "--k", "20"]) == 0
    assert main(["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"]) == 0
    assert main(["latent", "--workspace", ws, "--m", "8"]) == 0
    assert main(["extend", "--workspace", ws, "--mesh", str(x0), "--corr", str(corr)]) == 0, capsys.readouterr().err
    manifest = manifest_of(tmp_path / "ws")
    assert manifest["shapes"]["x0"]["k"] == 20
    assert read_matrix(tmp_path / "ws" / manifest["shapes"]["x0"]["files"]["phi"]).shape == (42, 20)
    assert main(["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"]) == 0, capsys.readouterr().err
    assert "x0" in manifest_of(tmp_path / "ws")["fmn"]["nodes"]


def test_fmn_rerun_drops_unlisted_maps(tmp_path, capsys):
    fam = two_cluster_family(n_per_cluster=3, subdivisions=1)
    fam_dir = tmp_path / "meshes"
    write_family(fam.meshes, fam_dir)
    ws = tmp_path / "ws"
    assert main(["spectra", str(fam_dir), "--workspace", str(ws), "--k", "10"]) == 0
    assert main(["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]) == 0
    assert len(list((ws / "maps").iterdir())) == 30
    assert main(["fmn", "--workspace", str(ws), "--topology", "mst", "--maps", "identity"]) == 0
    manifest = manifest_of(ws)
    listed = {rel for *_, rel in manifest["fmn"]["edges"]}
    assert len(listed) == 10
    assert "hashes" not in manifest and all(sha256_file(ws / rel) == name_digest(rel) for rel in listed)
    assert {f"maps/{p.name}" for p in (ws / "maps").iterdir()} == listed
    assert main(["latent", "--workspace", str(ws), "--m", "6"]) == 0, capsys.readouterr().err


def _family_and_outsider(tmp_path):
    """Six two-cluster meshes, and an outside mesh x0 with an identity
    correspondence to them (all share the icosphere's connectivity)."""
    fam_dir = tmp_path / "meshes"
    write_family(two_cluster_family(subdivisions=1).meshes, fam_dir)
    extra = with_id(two_cluster_family(n_per_cluster=2, subdivisions=1, seed=4).meshes[0], "x0")
    x0, corr = tmp_path / "x0.off", tmp_path / "corr.txt"
    save_off(extra, x0)
    corr.write_text("".join(f"{i} {i}\n" for i in range(extra.num_vertices)))
    return fam_dir, ["extend", "--mesh", str(x0), "--corr", str(corr)]


def test_manifest_tracks_exactly_the_listed_files(tmp_path, monkeypatch, capsys):
    fam_dir, extend = _family_and_outsider(tmp_path)
    ws = tmp_path / "ws"
    replaced, atomic_write = tmp_path / "replaced.txt", matio._atomic_write

    def watched(path, data):  # the forked spectra workers inherit it, so it reports through a file
        rel = os.path.relpath(path, ws)
        if (ws / "manifest.json").is_file():
            digest = name_digest(rel) if rel in listed_files(manifest_of(ws)) else None
            if digest not in (None, hashlib.sha256(data).hexdigest()):
                with open(replaced, "a", encoding="utf-8") as fh:
                    fh.write(rel + "\n")
        return atomic_write(path, data)

    monkeypatch.setattr(matio, "_atomic_write", watched)
    fmn = ["fmn", "--topology", "clique", "--maps", "identity"]
    built, latent = {"fmn"}, {"fmn", "latent", "diffs"}
    sequence = [  # each command, and the stage records it leaves
        (["spectra", str(fam_dir), "--k", "12"], set()),
        (fmn, built),
        (["latent", "--m", "6", "--kind", "both"], latent),
        (fmn, latent),  # an identical rerun keeps latent
        (["latent", "--m", "6", "--kind", "area"], latent),  # the conformal differences go
        (["latent", "--m", "6", "--kind", "both"], latent),
        (extend, latent),
        (["latent", "--m", "6", "--kind", "both"], latent),  # x0's extension goes
        (fmn, built),  # x0 joins the network
        (["spectra", str(fam_dir), "--k", "10"], set()),  # maps, latent and diffs go
        (fmn, built),  # x0 stays at k=12
        (["latent", "--m", "6", "--kind", "conformal"], latent),
    ]
    for argv, stages in sequence:
        assert main(argv + ["--workspace", str(ws)]) == 0, (argv, capsys.readouterr().err)
        manifest = manifest_of(ws)
        assert {"fmn", "latent", "diffs"} & set(manifest) == stages, argv
        on_disk = {
            f"{sub}/{p.name}" for sub in ("meshes", "spectra", "maps", "latent", "diffs")
            if (ws / sub).is_dir() for p in (ws / sub).iterdir()
        }
        assert "hashes" not in manifest and listed_files(manifest) == on_disk, argv
        assert all(sha256_file(ws / rel) == name_digest(rel) for rel in on_disk), argv
        assert not replaced.exists(), (argv, replaced.read_text())  # no write replaced a listed file
    assert "x0" in manifest["fmn"]["nodes"]


def test_fmn_on_mixed_k_names_both_lengths(tmp_path, capsys):
    fam_dir, extend = _family_and_outsider(tmp_path)
    ws = ["--workspace", str(tmp_path / "ws")]
    for argv in (
        ["spectra", str(fam_dir), "--k", "12"],
        ["fmn", "--maps", "identity"],
        ["latent", "--m", "6"],
        extend,
        ["spectra", str(fam_dir), "--k", "10"],  # x0 is not in the mesh directory: it stays at k=12
    ):
        assert main(argv + ws) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    assert main(["fmn", "--maps", "identity"] + ws) == 1
    assert "shape-DNA lengths 10 and 12 differ" in capsys.readouterr().err


SETTINGS = {"k", "m", "kind", "kinds", "normalized", "topology", "maps", "landmark_weight", "within_weight"}


def setting_records(doc, path=()):
    """{path: value} of every entry of `doc`, at any depth, named as a setting."""
    found = {}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        if key in SETTINGS:
            found[path + (key,)] = val
        found.update(setting_records(val, path + (key,)))
    return found


def test_each_consumed_setting_is_recorded_once_in_its_stage_record(tmp_path, family_dir):
    ws = tmp_path / "ws"
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "20"]) == 0
    assert main(["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]) == 0
    assert main(["latent", "--workspace", str(ws), "--m", "8", "--kind", "both"]) == 0
    manifest = manifest_of(ws)
    assert "config" not in manifest and manifest["tolerances"] == matio.Workspace(ws).init_manifest()["tolerances"]
    consumed = {
        **{("shapes", sid, "k"): 20 for sid in ("a0", "a1", "b0", "b1")},
        ("fmn", "topology"): "clique",
        ("fmn", "maps"): "identity",
        ("latent", "m"): 8,
        ("diffs", "normalized"): False,
    }
    assert setting_records(manifest) == consumed
    assert sorted(manifest["diffs"]["files"]) == ["area", "conformal"]  # --kind: the kinds stored
    marks = tmp_path / "landmarks"
    marks.mkdir()
    for a, b in (("a0", "a1"), ("a1", "b0"), ("b0", "b1")):
        for src, tgt in ((a, b), (b, a)):
            (marks / f"{src}__{tgt}.txt").write_text("".join(f"{i} {i}\n" for i in range(42)))
    assert main([
        "fmn", "--workspace", str(ws), "--topology", "chain", "--maps", "landmarks",
        "--corr-dir", str(marks), "--landmark-weight", "0.01",
    ]) == 0
    fmn = {("fmn", "topology"): "chain", ("fmn", "maps"): "landmarks", ("fmn", "landmark_weight"): 0.01}
    consumed = {key: val for key, val in consumed.items() if key[0] == "shapes"}  # latent describes another network
    assert setting_records(manifest_of(ws)) == {**consumed, **fmn}


def test_the_parser_holds_each_default():
    parse = build_parser().parse_args
    assert parse(["spectra", "meshes", "--workspace", "ws"]).k == 50
    fmn = parse(["fmn", "--workspace", "ws"])
    assert (fmn.topology, fmn.maps, fmn.landmark_weight) == ("mst", "correspondence", 1e-3)
    lat = parse(["latent", "--workspace", "ws"])
    assert (lat.m, lat.kind, lat.normalized) == (40, "area", False)


def test_consecutive_calls_share_no_parse_state(tmp_path, workspace, capsys):
    """The parser is built once per process, and each call parses into a new
    namespace: a flag given to one call is not there in the next."""
    assert build_parser() is build_parser()
    assert main(["synth", "chain", "--out", str(tmp_path / "chain"), "--count", "5", "--subdivisions", "1"]) == 0
    assert main(["synth", "two-cluster", "--out", str(tmp_path / "two"), "--subdivisions", "1"]) == 0
    capsys.readouterr()
    assert main(["synth", "two-cluster", "--out", str(tmp_path / "three"), "--count", "3"]) == 2
    assert "usage error: synth two-cluster takes no --count" in capsys.readouterr().err
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    interp = ["ops", "interp", "a0", "a1", "--workspace", str(ws)]
    assert main([*interp, "--t", "0.3"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(interp)
    assert exc.value.code == 2


@pytest.fixture(scope="module", params=["16-hex", "undigested"])
def earlier_layout(request, tmp_path_factory):
    """A four-shape workspace through `latent`, rewritten to an earlier
    layout: the manifest records each file's digest under "hashes", and each
    name carries 16 hex digits of it or, in an older layout, none. Returns the
    mesh directory and the workspace."""
    root = tmp_path_factory.mktemp(request.param)
    fam_dir, ws = root / "meshes", root / "ws"
    write_family(two_cluster_family(n_per_cluster=2, subdivisions=1).meshes, fam_dir)
    for argv in (["spectra", str(fam_dir), "--k", "10"], ["fmn", "--topology", "clique", "--maps", "identity"],
                 ["latent", "--m", "6"]):
        assert main(argv + ["--workspace", str(ws)]) == 0
    text, hashes = (ws / "manifest.json").read_text(), {}
    for rel in listed_files(manifest_of(ws)):
        digest = name_digest(rel)
        old = rel.replace(f".{digest}", f".{digest[:16]}" if request.param == "16-hex" else "")
        os.rename(ws / rel, ws / old)
        hashes[old], text = digest, text.replace(rel, old)
    manifest = {**json.loads(text), "hashes": hashes}
    (ws / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return fam_dir, ws


@pytest.mark.parametrize("command", [
    "spectra", "fmn", "latent", "variability", "descriptors", "analogy", "interp", "mix", "align", "extend",
])
def test_a_workspace_in_an_earlier_layout_is_refused(earlier_layout, tmp_path, capsys, command):
    fam_dir, ws = earlier_layout
    partition, region = tmp_path / "partition.json", tmp_path / "region.json"
    partition.write_text(json.dumps({"cluster_a": ["a0", "a1"], "cluster_b": ["b0", "b1"]}))
    region.write_text(json.dumps({"shape": "a0", "vertices": [0, 1, 2]}))
    x0, corr = tmp_path / "x0.off", tmp_path / "corr.txt"
    save_off(with_id(two_cluster_family(n_per_cluster=2, subdivisions=1, seed=4).meshes[0], "x0"), x0)
    corr.write_text("".join(f"{i} {i}\n" for i in range(42)))
    argv = {
        "spectra": ["spectra", str(fam_dir), "--k", "10"],
        "fmn": ["fmn", "--topology", "clique", "--maps", "identity"],
        "latent": ["latent", "--m", "6"],
        "variability": ["variability", "--mode", "global", "--emit-fields"],
        "descriptors": ["ops", "descriptors"],
        "analogy": ["ops", "analogy", "a0", "a1", "b0"],
        "interp": ["ops", "interp", "a0", "b0", "--t", "0.5"],
        "mix": ["ops", "mix", "a0", "b0", "--region", str(region)],
        "align": ["ops", "align", "--partition", str(partition)],
        "extend": ["extend", "--mesh", str(x0), "--corr", str(corr)],
    }[command]
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(argv + ["--workspace", str(ws)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {ws / 'manifest.json'} holds ['hashes']: it is in an earlier layout"), line
    assert line.endswith("build a new workspace with `spectra`")
    assert tree_bytes(ws) == before


@pytest.mark.parametrize("doc, problem", [
    (b"[]", " is not an object holding a 'shapes' object"),
    (b'"lskit"', " is not an object holding a 'shapes' object"),
    (b'{"tool": "lskit"}', " is not an object holding a 'shapes' object"),
    (b'{"tool": "lskit", "shapes": []}', " is not an object holding a 'shapes' object"),
    (b'{"shapes": {}', ": Expecting ',' delimiter"),
    (b"\xff\xfe{}", ": 'utf-8' codec can't decode"),
], ids=["list", "string", "without-shapes", "shapes-a-list", "not-json", "not-utf-8"])
@pytest.mark.parametrize("command", ["spectra", "fmn", "latent", "descriptors"])
def test_a_malformed_manifest_is_refused(tmp_path, family_dir, capsys, doc, problem, command):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "manifest.json").write_bytes(doc)
    argv = {
        "spectra": ["spectra", str(family_dir), "--k", "10"],
        "fmn": ["fmn", "--topology", "clique", "--maps", "identity"],
        "latent": ["latent", "--m", "6"],
        "descriptors": ["ops", "descriptors"],
    }[command]
    assert main(argv + ["--workspace", str(ws)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: malformed manifest: {ws / 'manifest.json'}{problem}"), line
    assert tree_bytes(ws) == {"manifest.json": doc}


@pytest.mark.parametrize("family, defaults", [
    ("sphere-bump", ["--subdivisions", "3", "--per-cluster", "2", "--horizontal-height", "0.5", "--vertical-height", "0.25"]),
    ("chain", ["--subdivisions", "2", "--count", "23"]),
    ("two-cluster", ["--subdivisions", "2", "--per-cluster", "3", "--intra-spread", "0.15", "--inter-gap", "0.4"]),
])
def test_synth_defaults_are_the_family_defaults(tmp_path, family, defaults):
    plain, explicit = tmp_path / "plain", tmp_path / "explicit"
    assert main(["synth", family, "--out", str(plain)]) == 0
    assert main(["synth", family, "--out", str(explicit), "--seed", "0", *defaults]) == 0
    assert tree_bytes(plain) == tree_bytes(explicit)


@pytest.mark.parametrize("family, flags, named", [
    ("sphere-bump", ["--count", "9", "--no-cycle"], "--count, --no-cycle"),
    ("chain", ["--per-cluster", "2"], "--per-cluster"),
    ("two-cluster", ["--count", "3"], "--count"),
])
def test_synth_rejects_a_flag_its_family_does_not_take(tmp_path, capsys, family, flags, named):
    out = tmp_path / "out"
    assert main(["synth", family, "--out", str(out), "--seed", "3", *flags]) == 2
    assert f"usage error: synth {family} takes no {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", ["sphere-bump", "chain", "two-cluster"])
def test_synth_refuses_negative_subdivisions(tmp_path, capsys, family):
    out = tmp_path / "out"
    assert main(["synth", family, "--out", str(out), "--subdivisions", "-1"]) == 1
    assert capsys.readouterr().err == "error: subdivisions must be >= 0, got -1\n"
    assert not out.exists()


def test_synth_refuses_an_out_that_holds_another_familys_meshes(tmp_path, capsys):
    """`spectra` reads every mesh file of a directory, so a smaller family
    written over a larger one would be solved with the larger one's extra
    members. `synth` refuses before it writes anything; the same family
    written again is no conflict."""
    out = tmp_path / "d"
    chain = ["synth", "chain", "--out", str(out), "--subdivisions", "1"]
    assert main([*chain, "--count", "6"]) == 0
    (out / "scan.PLY").write_text("not read")
    before = tree_bytes(out)
    capsys.readouterr()
    assert main([*chain, "--count", "4"]) == 1
    assert capsys.readouterr().err == (
        f"error: {out} holds mesh files that this family does not write: frame04.off, frame05.off, scan.PLY; "
        "remove them or choose another --out\n")
    assert tree_bytes(out) == before
    (out / "scan.PLY").unlink()
    del before["scan.PLY"]
    assert main([*chain, "--count", "6"]) == 0
    assert tree_bytes(out) == before


def per_line_field(values):
    """Field text as the per-line writer that `variability` used formatted it."""
    return "".join(f"{idx} {float(val)!r}\n" for idx, val in enumerate(values))


def test_a_field_file_is_the_per_line_text(workspace, monkeypatch):
    """For the computed fields, and for values whose text is easy to get wrong."""
    argv = ["variability", "--workspace", str(workspace), "--mode", "global", "--emit-fields"]
    assert main(argv) == 0
    for sid in ("a0", "a1", "b0", "b1"):
        field = workspace / "fields" / f"global.{sid}.txt"
        assert field.read_text() == per_line_field(np.loadtxt(field, usecols=1)), sid
    odd = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, -1e-300, 1e22, *np.loadtxt(field, usecols=1)[6:]])
    monkeypatch.setattr(variability, "transfer_to_shape", lambda *args: (odd, None))
    assert main(argv) == 0
    assert field.read_text() == per_line_field(odd)
    monkeypatch.undo()
    assert main(argv) == 0  # the module's workspace keeps its computed fields


def backdate_tracked(ws):
    """Set every tracked file's times far in the past, so that any rewrite
    shows in its mtime even where the file system reuses the inode number;
    returns each one's (inode, mtime)."""
    stats = {}
    for rel in listed_files(manifest_of(ws)):
        os.utime(ws / rel, ns=(10**18, 10**18))
        st = os.stat(ws / rel)
        stats[rel] = (st.st_ino, st.st_mtime_ns)
    return stats


def rewritten(ws, stats):
    """The files of `stats` that are tracked now and were replaced since."""
    now = {rel: os.stat(ws / rel) for rel in listed_files(manifest_of(ws)) if rel in stats}
    return {rel for rel, st in now.items() if (st.st_ino, st.st_mtime_ns) != stats[rel]}


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=10 splits b0's eigenvalue cluster at 9.52
def test_unchanged_rerun_rewrites_no_tracked_file(tmp_path, family_dir):
    ws = tmp_path / "ws"
    spectra = ["spectra", str(family_dir), "--workspace", str(ws), "--k", "10"]
    fmn = ["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]
    latent = ["latent", "--workspace", str(ws), "--m", "6", "--kind", "both"]
    for argv in (spectra, fmn, latent):
        assert main(argv) == 0
    stats, manifest = backdate_tracked(ws), (ws / "manifest.json").read_bytes()
    os.utime(ws / "manifest.json", ns=(10**18, 10**18))
    saved = os.stat(ws / "manifest.json")
    for argv in (fmn, latent, fmn, spectra):
        assert main(argv) == 0
        assert not rewritten(ws, stats) and listed_files(manifest_of(ws)) == set(stats)
        assert (ws / "manifest.json").read_bytes() == manifest
        now = os.stat(ws / "manifest.json")  # not even rewritten with the same bytes
        assert (now.st_ino, now.st_mtime_ns) == (saved.st_ino, saved.st_mtime_ns), argv


def test_an_identical_rerun_leaves_every_output_in_place(tmp_path, workspace, family_dir):
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    commands = (
        ["variability", "--mode", "cross", "--partition", str(family_dir / "ground_truth.json"), "--emit-fields"],
        ["ops", "descriptors"],
    )
    for argv in commands:
        assert main(argv + ["--workspace", str(ws)]) == 0
    before = tree_bytes(ws)
    field, descriptors = os.path.join("fields", "cross.a0.txt"), os.path.join("ops", "descriptors.area.json")
    (ws / field).write_bytes(before[field].replace(b"0 ", b"9 ", 1))  # the same size, other bytes
    (ws / descriptors).write_bytes(before[descriptors][:-1])
    stats = {}
    for rel in before:  # far in the past, so that a rewrite shows even where an inode number is reused
        os.utime(ws / rel, ns=(10**18, 10**18))
        stats[rel] = (os.stat(ws / rel).st_ino, 10**18)
    for argv in commands:
        assert main(argv + ["--workspace", str(ws)]) == 0
    assert tree_bytes(ws) == before
    now = {rel: (os.stat(ws / rel).st_ino, os.stat(ws / rel).st_mtime_ns) for rel in before}
    assert {rel for rel in before if now[rel] != stats[rel]} == {field, descriptors}


def test_rerun_rewrites_exactly_the_files_whose_bytes_change(tmp_path):
    data = tmp_path / "chain"
    assert main(["synth", "chain", "--out", str(data), "--count", "4", "--subdivisions", "1"]) == 0
    corr = tmp_path / "corr"
    shutil.copytree(data / "correspondences", corr)
    perm = np.random.default_rng(0).permutation(42)  # another bijection: another map
    (corr / "frame01__frame02.txt").write_text("".join(f"{i} {j}\n" for i, j in enumerate(perm)))
    ws = tmp_path / "ws"
    for argv in (
        ["spectra", str(data), "--k", "10"],
        ["fmn", "--topology", "chain", "--maps", "identity"],
        ["latent", "--m", "6"],
    ):
        assert main(argv + ["--workspace", str(ws)]) == 0
    spectra_files = {os.path.join("spectra", f"frame0{i}.{name}.lsk") for i in range(4) for name in ("phi", "lam")}
    for argv, changed in (
        # the correspondence maps of the other pairs are bit-identical to the identity maps
        (["fmn", "--topology", "chain", "--maps", "correspondence", "--corr-dir", str(corr)],
         {os.path.join("maps", "frame01__frame02.lsk")}),
        # a new k changes every spectra file and no mesh copy
        (["spectra", str(data), "--k", "8"], spectra_files),
    ):
        before = manifest_of(ws)
        stats = backdate_tracked(ws)
        assert main(argv + ["--workspace", str(ws)]) == 0
        manifest = manifest_of(ws)
        # the changed files are written under new names, and no tracked file is replaced
        listed, listed_before = listed_files(manifest), listed_files(before)
        assert listed - listed_before == {tracked(ws, rel) for rel in changed}, argv
        assert not rewritten(ws, stats)
        assert not [rel for rel in listed_before if rel not in listed and (ws / rel).exists()]
        assert all(sha256_file(ws / rel) == name_digest(rel) for rel in listed)
        assert "latent" not in manifest


def test_failed_fmn_rerun_leaves_the_previous_network_usable(tmp_path, monkeypatch, capsys):
    data = tmp_path / "chain"
    assert main(["synth", "chain", "--out", str(data), "--count", "4", "--subdivisions", "1"]) == 0
    corr = tmp_path / "corr"
    corr.mkdir()
    rng = np.random.default_rng(0)
    for path in sorted((data / "correspondences").iterdir()):  # other bijections: other maps
        (corr / path.name).write_text("".join(f"{i} {j}\n" for i, j in enumerate(rng.permutation(42))))
    ws = ["--workspace", str(tmp_path / "ws")]
    identity = ["fmn", "--topology", "chain", "--maps", "identity"]
    for argv in (["spectra", str(data), "--k", "10"], identity, ["latent", "--m", "6"]):
        assert main(argv + ws) == 0
    before = manifest_of(tmp_path / "ws")
    atomic_write, calls = matio._atomic_write, []

    def failing(path, data):
        calls.append(path)
        if len(calls) == 2:  # the second map write
            raise OSError("disk full")
        return atomic_write(path, data)

    monkeypatch.setattr(matio, "_atomic_write", failing)
    assert main(["fmn", "--topology", "chain", "--maps", "correspondence", "--corr-dir", str(corr)] + ws) == 1
    monkeypatch.undo()
    assert "disk full" in capsys.readouterr().err and manifest_of(tmp_path / "ws") == before
    for argv in (["latent", "--m", "6"], ["variability", "--mode", "global"], identity, ["spectra", str(data), "--k", "10"]):
        assert main(argv + ws) == 0, (argv, capsys.readouterr().err)
        manifest = manifest_of(tmp_path / "ws")
        assert manifest["fmn"] == before["fmn"], argv  # the old maps are still listed
    on_disk = {f"maps/{p.name}" for p in (tmp_path / "ws" / "maps").iterdir()}
    assert on_disk == {rel for *_, rel in manifest["fmn"]["edges"]}  # the map the failed run wrote is gone


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=8 splits b0's eigenvalue cluster at 5.48
def test_interrupted_latent_rerun_leaves_the_previous_basis_usable(tmp_path, family_dir, monkeypatch):
    ws = ["--workspace", str(tmp_path / "ws")]
    for argv in (["spectra", str(family_dir), "--k", "8"], ["fmn", "--topology", "clique", "--maps", "identity"],
                 ["latent", "--m", "6"]):
        assert main(argv + ws) == 0
    before = manifest_of(tmp_path / "ws")
    atomic_write, calls = matio._atomic_write, []

    def interrupted(path, data):  # Ctrl-C after two writes
        if len(calls) == 2:
            raise KeyboardInterrupt
        calls.append(path)
        return atomic_write(path, data)

    monkeypatch.setattr(matio, "_atomic_write", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["latent", "--m", "5"] + ws)
    monkeypatch.undo()
    assert len(calls) == 2 and manifest_of(tmp_path / "ws") == before
    assert main(["variability", "--mode", "global"] + ws) == 0
    top = json.loads((tmp_path / "ws" / "variability" / "global.json").read_text())["functions"][0]
    assert len(top["alpha"]) == 6  # on the previous latent basis
    assert main(["latent", "--m", "5"] + ws) == 0
    assert manifest_of(tmp_path / "ws")["latent"]["m"] == 5


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # k=8 splits b0's eigenvalue cluster at 5.48
def test_corrupted_map_fails_the_rerun_before_any_write(tmp_path, family_dir, capsys):
    ws = tmp_path / "ws"
    fmn = ["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]
    assert main(["spectra", str(family_dir), "--workspace", str(ws), "--k", "8"]) == 0
    assert main(fmn) == 0
    victim = ws / manifest_of(ws)["fmn"]["edges"][0][2]
    with open(victim, "r+b") as fh:
        fh.seek(40)
        fh.write(b"\x01")
    stats, before = backdate_tracked(ws), tree_bytes(ws)
    capsys.readouterr()
    assert main(fmn) == 1
    assert "hash mismatch" in capsys.readouterr().err
    assert tree_bytes(ws) == before and not rewritten(ws, stats)


def test_python_m_lskit_runs_from_the_source_tree(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "lskit", "--help"], cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lskit ")
