"""A command verifies exactly the tracked files that it reads, or keeps in
place of a write: a damaged or deleted one fails the first command that reads
it, before any parse, and a file that a command does not read cannot fail it."""

import gc
import json
import shutil

import pytest

from helpers import hashed_during, parsed_during, tree_bytes, with_id
from lskit.cli import main
from lskit.meshes import Mesh, load_mesh, save_off
from lskit.spectral import MetricMeasure, SpectralBasis
from lskit.synth import sphere_bump_family, sphere_bump_ground_truth, write_family


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A sphere-bump workspace through `latent`, the region of `ops mix`, and
    outside members x0 and x1 (copies of a0) with their identity
    correspondence."""
    root = tmp_path_factory.mktemp("built")
    fam = sphere_bump_family(subdivisions=1)
    write_family(fam.meshes, root / "meshes", sphere_bump_ground_truth(fam))
    ws = str(root / "ws")
    assert main(["spectra", str(root / "meshes"), "--workspace", ws, "--k", "16"]) == 0
    assert main(["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"]) == 0
    assert main(["latent", "--workspace", ws, "--m", "10", "--kind", "both"]) == 0
    (root / "region.json").write_text(json.dumps({"shape": "a0", "vertices": fam.vertical_region.tolist()}))
    x0 = with_id(load_mesh(root / "meshes" / "a0.off"), "x0")
    save_off(x0, root / "x0.off")
    save_off(with_id(x0, "x1"), root / "x1.off")
    (root / "x0_corr.txt").write_text("".join(f"{i} {i}\n" for i in range(x0.num_vertices)))
    return root


@pytest.fixture
def ws(built, tmp_path):
    """A fresh copy of the built workspace."""
    shutil.copytree(built / "ws", tmp_path / "ws")
    return tmp_path / "ws"


def manifest_of(ws):
    return json.loads((ws / "manifest.json").read_text())


def damage(path):
    with open(path, "r+b") as fh:
        fh.seek(40)
        fh.write(b"\x01")


# each tracked kind of file, and a command that reads it before any other
# reader in its command fails
READERS = {
    "mesh copy": (lambda m: m["shapes"]["a0"]["mesh"],
                  lambda b: ["fmn", "--topology", "clique", "--maps", "identity"]),
    "phi": (lambda m: m["shapes"]["b1"]["files"]["phi"], lambda b: ["latent", "--m", "10"]),
    "Y": (lambda m: m["latent"]["Y"]["a1"], lambda b: ["variability", "--mode", "global", "--emit-fields"]),
    "lambda0": (lambda m: m["latent"]["lambda0"],
                lambda b: ["ops", "mix", "a0", "b0", "--region", str(b / "region.json")]),
    "map": (lambda m: m["fmn"]["edges"][-1][2], lambda b: ["latent", "--m", "10"]),
    "area diff": (lambda m: m["diffs"]["files"]["area"]["b0"], lambda b: ["ops", "descriptors"]),
}


@pytest.mark.parametrize("fault", ["damaged", "deleted"])
@pytest.mark.parametrize("victim", sorted(READERS))
def test_a_bad_tracked_file_fails_the_command_that_reads_it(built, ws, victim, fault, capsys):
    rel_of, argv_of = READERS[victim]
    before = manifest_of(ws)
    path = ws / rel_of(before)
    if fault == "damaged":
        damage(path)
    else:
        path.unlink()
    capsys.readouterr()
    assert main(argv_of(built) + ["--workspace", str(ws)]) == 1
    err = capsys.readouterr().err
    assert ("hash mismatch" if fault == "damaged" else "missing artifact") in err and path.name in err
    assert manifest_of(ws) == before


def test_a_cache_hit_spectra_verifies_the_files_it_keeps(built, ws, capsys):
    path = ws / manifest_of(ws)["shapes"]["b0"]["files"]["phi"]
    damage(path)
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["spectra", str(built / "meshes"), "--workspace", str(ws), "--k", "16"]) == 1
    assert f"hash mismatch for {path.relative_to(ws).as_posix()!r}" in capsys.readouterr().err
    assert tree_bytes(ws) == before


def test_descriptors_hash_the_area_differences_only(ws, monkeypatch):
    manifest = manifest_of(ws)
    damage(ws / manifest["fmn"]["edges"][0][2])  # a map: descriptors never read one
    rc, hashed = hashed_during(monkeypatch, ["ops", "descriptors", "--workspace", str(ws)])
    assert rc == 0
    assert sorted(hashed) == sorted(str(ws / rel) for rel in manifest["diffs"]["files"]["area"].values())


def test_operator_algebra_reads_only_its_operands(ws, monkeypatch, capsys):
    area = manifest_of(ws)["diffs"]["files"]["area"]
    rc, hashed = hashed_during(monkeypatch, ["ops", "analogy", "a0", "a1", "b0", "--workspace", str(ws)])
    assert rc == 0
    assert sorted(hashed) == sorted(str(ws / area[sid]) for sid in ("a0", "a1", "b0"))
    capsys.readouterr()
    rc, hashed = hashed_during(monkeypatch, ["ops", "interp", "a0", "nope", "--t", "0.5", "--workspace", str(ws)])
    assert rc == 1
    assert "interp operands must be shape ids with stored differences" in capsys.readouterr().err
    assert hashed == [str(ws / area["a0"])]


def extend(built, sid="x0", *neighbor):
    return ["extend", "--mesh", str(built / f"{sid}.off"), "--corr", str(built / "x0_corr.txt"), *neighbor]


def test_mix_hashes_its_host_the_latent_files_and_its_operands(built, ws, monkeypatch):
    manifest = manifest_of(ws)
    mix = ["ops", "mix", "a1", "b0", "--region", str(built / "region.json"), "--workspace", str(ws)]
    rc, hashed = hashed_during(monkeypatch, mix)
    assert rc == 0
    host, lat = manifest["shapes"]["a0"], manifest["latent"]
    area = manifest["diffs"]["files"]["area"]
    expected = [host["mesh"], *host["files"].values(), *lat["Y"].values(), lat["lambda0"], area["a1"], area["b0"]]
    assert sorted(hashed) == sorted(str(ws / rel) for rel in expected)


@pytest.mark.parametrize("neighbor", ["auto", "b1"])
def test_extend_hashes_its_neighbor_the_eigenvalues_and_the_latent_files(built, ws, monkeypatch, neighbor):
    manifest = manifest_of(ws)
    rc, hashed = hashed_during(monkeypatch, extend(built, "x0", "--neighbor", neighbor) + ["--workspace", str(ws)])
    assert rc == 0
    chosen = manifest_of(ws)["latent"]["extended"]["x0"]["neighbor"]
    assert chosen == ("a0" if neighbor == "auto" else neighbor)  # x0 is a copy of a0
    shapes, lat = manifest["shapes"], manifest["latent"]
    expected = [*shapes[chosen]["files"].values(), *lat["Y"].values(), lat["lambda0"]]
    if neighbor == "auto":  # every member's shape-DNA, the chosen one's read once, and no map
        expected += [shapes[sid]["files"]["lam"] for sid in lat["order"] if sid != chosen]
    assert sorted(hashed) == sorted(str(ws / rel) for rel in expected)


def align(built):
    return ["ops", "align", "--partition", str(built / "meshes" / "ground_truth.json")]


def emit_fields(built):
    return ["variability", "--mode", "global", "--emit-fields"]


def clusters(built):
    return json.loads((built / "meshes" / "ground_truth.json").read_text())["partition"].values()


def test_align_hashes_its_clusters_spectra_and_the_maps_within_them(built, ws, monkeypatch):
    manifest = manifest_of(ws)
    rc, hashed = hashed_during(monkeypatch, align(built) + ["--workspace", str(ws)])
    assert rc == 0
    expected = [manifest["shapes"][sid]["files"]["lam"] for cluster in clusters(built) for sid in cluster]
    expected += [rel for src, tgt, rel in manifest["fmn"]["edges"]
                 if any(src in cluster and tgt in cluster for cluster in clusters(built))]
    assert len(expected) == 4 + 2 * 2  # each member's lam, and both maps of each cluster's pair
    assert sorted(hashed) == sorted(str(ws / rel) for rel in expected)


def cross_map(manifest, built):
    cluster_a, cluster_b = clusters(built)
    return next(rel for src, tgt, rel in manifest["fmn"]["edges"] if src in cluster_a and tgt in cluster_b)


def mesh_copy(manifest, built):
    return manifest["shapes"]["a0"]["mesh"]


def phi(manifest, built):
    return manifest["shapes"]["a0"]["files"]["phi"]


@pytest.mark.parametrize("command, victim", [
    (align, cross_map), (align, mesh_copy), (align, phi), (emit_fields, cross_map), (emit_fields, mesh_copy),
], ids=["align-cross-cluster map", "align-mesh copy", "align-phi", "emit-fields-cross-cluster map",
        "emit-fields-mesh copy"])
def test_a_file_that_a_command_does_not_read_leaves_its_output_as_it_was(built, ws, victim, command, capsys):
    argv = command(built) + ["--workspace", str(ws)]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    damage(ws / victim(manifest_of(ws), built))
    before = tree_bytes(ws)  # the first run's outputs, and the damaged file
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    assert tree_bytes(ws) == before


@pytest.mark.parametrize("argv", [emit_fields, align, lambda built: extend(built, "x0", "--neighbor", "b1")],
                         ids=["emit-fields", "align", "extend"])
def test_commands_that_use_no_mass_parse_no_mesh_copy(built, ws, monkeypatch, argv):
    rc, parsed = parsed_during(monkeypatch, argv(built) + ["--workspace", str(ws)])
    assert rc == 0
    assert parsed == ([str(built / "x0.off")] if "extend" in argv(built) else [])


def test_mix_on_a_region_of_an_unknown_shape_exits_1(built, ws, tmp_path, capsys):
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"shape": "zz", "vertices": [0, 1, 2]}))
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["ops", "mix", "a0", "b0", "--region", str(region), "--workspace", str(ws)]) == 1
    assert capsys.readouterr().err == "error: region shape 'zz' is not in the workspace\n"
    assert tree_bytes(ws) == before


def test_extend_through_a_member_with_no_latent_basis_exits_1(built, ws, capsys):
    assert main(extend(built) + ["--workspace", str(ws)]) == 0
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(extend(built, "x1", "--neighbor", "x0") + ["--workspace", str(ws)]) == 1
    assert capsys.readouterr().err == "error: neighbor 'x0' has no latent basis\n"
    assert tree_bytes(ws) == before


def test_align_with_an_extended_member_exits_1(built, ws, tmp_path, capsys):
    assert main(extend(built) + ["--workspace", str(ws)]) == 0
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps({"cluster_a": ["a0", "a1", "x0"], "cluster_b": ["b0", "b1"]}))
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["ops", "align", "--partition", str(partition), "--workspace", str(ws)]) == 1
    assert capsys.readouterr().err == "error: shape 'x0' is not in the functional map network\n"
    assert tree_bytes(ws) == before


def live_shapes():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, (SpectralBasis, Mesh, MetricMeasure))]


def test_no_shape_outlives_the_command_that_loaded_it(built, ws):
    kept = live_shapes()  # held, so that no new shape can take one of their ids
    held = {id(obj) for obj in kept}
    for argv in (
        ["fmn", "--topology", "clique", "--maps", "identity"],
        ["latent", "--m", "10", "--kind", "both"],
        ["variability", "--mode", "global", "--emit-fields"],
        ["ops", "mix", "a0", "b0", "--region", str(built / "region.json")],
        ["ops", "align", "--partition", str(built / "meshes" / "ground_truth.json")],
        extend(built),
    ):
        assert main(argv + ["--workspace", str(ws)]) == 0, argv
        assert not [obj.shape_id for obj in live_shapes() if id(obj) not in held], argv


def test_an_extended_member_is_read_only_by_a_command_that_uses_it(built, ws, capsys):
    assert main(extend(built) + ["--workspace", str(ws)]) == 0
    mesh = manifest_of(ws)["shapes"]["x0"]["mesh"]
    damage(ws / mesh)
    for argv in (  # the network and the latent basis leave x0 out
        ["variability", "--mode", "global", "--emit-fields"],
        ["latent", "--m", "10", "--kind", "both"],
    ):
        assert main(argv + ["--workspace", str(ws)]) == 0, argv
    capsys.readouterr()
    assert main(["fmn", "--topology", "clique", "--maps", "identity", "--workspace", str(ws)]) == 1
    assert f"hash mismatch for {mesh!r}" in capsys.readouterr().err
