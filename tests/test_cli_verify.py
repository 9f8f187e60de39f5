"""A command verifies exactly the tracked files that it reads, or keeps in
place of a write: a damaged or deleted one fails the first command that reads
it, before any parse, and a file that a command does not read cannot fail it."""

import json
import shutil

import pytest

from helpers import tree_bytes
from lskit import matio
from lskit.cli import main
from lskit.meshes import load_mesh, save_off
from lskit.synth import sphere_bump_family, sphere_bump_ground_truth, write_family


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A sphere-bump workspace through `latent`, the region of `ops mix`, and
    an outside member x0 (a copy of a0) with its identity correspondence."""
    root = tmp_path_factory.mktemp("built")
    fam = sphere_bump_family(subdivisions=1)
    write_family(fam.meshes, root / "meshes", sphere_bump_ground_truth(fam))
    ws = str(root / "ws")
    assert main(["spectra", str(root / "meshes"), "--workspace", ws, "--k", "16"]) == 0
    assert main(["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"]) == 0
    assert main(["latent", "--workspace", ws, "--m", "10", "--kind", "both"]) == 0
    (root / "region.json").write_text(json.dumps({"shape": "a0", "vertices": fam.vertical_region.tolist()}))
    x0 = load_mesh(root / "meshes" / "a0.off").with_id("x0")
    save_off(x0, root / "x0.off")
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


def hashed_during(monkeypatch, argv):
    """Run a command and return the paths that `matio.sha256_file` hashed."""
    hashed = []
    sha256_file = matio.sha256_file
    monkeypatch.setattr(matio, "sha256_file", lambda path: hashed.append(path) or sha256_file(path))
    rc = main(argv)
    monkeypatch.undo()
    return rc, hashed


# each tracked kind of file, and a command that reads it before any other
# reader in its command fails
READERS = {
    "mesh copy": (lambda m: m["shapes"]["a0"]["mesh"],
                  lambda b: ["fmn", "--topology", "clique", "--maps", "identity"]),
    "phi": (lambda m: m["shapes"]["b1"]["files"]["phi"], lambda b: ["latent", "--m", "10"]),
    "Y": (lambda m: m["latent"]["Y"]["a1"], lambda b: ["variability", "--mode", "global", "--emit-fields"]),
    "lambda0": (lambda m: m["latent"]["lambda0"],
                lambda b: ["ops", "mix", "a0", "b0", "--region", str(b / "region.json")]),
    "map": (lambda m: m["fmn"]["edges"][-1][2],
            lambda b: ["extend", "--mesh", str(b / "x0.off"), "--corr", str(b / "x0_corr.txt")]),
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
