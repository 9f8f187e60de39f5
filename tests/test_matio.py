import json
import os

import numpy as np
import pytest

from lskit import fmaps, latent, matio, opalg, spectral, variability
from lskit.errors import ManifestError, ParseError
from lskit.matio import Workspace, read_matrix, read_vector, sha256_file, write_json, write_matrix, write_text


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    cases = [
        rng.standard_normal((7, 5)),
        np.array([[0.0, -0.0], [np.pi, 1e-308]]),
        rng.standard_normal(9),  # vector stored as a column
        np.zeros((1, 1)),
    ]
    for i, arr in enumerate(cases):
        path = tmp_path / f"m{i}.lsk"
        write_matrix(path, arr)
        back = read_matrix(path)
        expect = np.asarray(arr, dtype=np.float64)
        if expect.ndim == 1:
            expect = expect[:, None]
        assert back.shape == expect.shape
        assert np.array_equal(back.view(np.uint64), expect.view(np.uint64))  # bit identity
        # writing the same payload twice produces identical bytes
        path2 = tmp_path / f"m{i}b.lsk"
        write_matrix(path2, arr)
        assert path.read_bytes() == path2.read_bytes()


def test_container_header(tmp_path):
    path = tmp_path / "m.lsk"
    write_matrix(path, np.eye(3))
    blob = path.read_bytes()
    assert blob[:8] == b"LSKMAT01"
    assert len(blob) == 32 + 9 * 8


def test_container_errors(tmp_path):
    bad = tmp_path / "bad.lsk"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(ParseError):
        read_matrix(bad)
    trunc = tmp_path / "trunc.lsk"
    write_matrix(trunc, np.eye(2))
    trunc.write_bytes(trunc.read_bytes()[:-8])
    with pytest.raises(ParseError):
        read_matrix(trunc)
    vecpath = tmp_path / "mat.lsk"
    write_matrix(vecpath, np.eye(2))
    with pytest.raises(ParseError):
        read_vector(vecpath)


def test_manifest_verify_aborts_on_tamper(tmp_path):
    ws = Workspace(tmp_path)
    manifest = ws.init_manifest()
    rel = ws.write_tracked_matrix("spectra/a.phi.lsk", np.eye(2))
    manifest["shapes"]["a"] = {
        "mesh": ws.write_tracked("meshes/a.off", b"OFF\n0 0 0\n"),
        "k": 2,
        "files": {"phi": rel, "lam": ws.write_tracked_matrix("spectra/a.lam.lsk", np.ones(2))},
    }
    ws.save_manifest(manifest)
    ws.load_manifest()  # clean: fine
    with open(ws.path(rel), "r+b") as fh:
        fh.seek(40)
        fh.write(b"\xff")
    with pytest.raises(ManifestError, match="hash mismatch"):
        ws.verify(ws.load_manifest())
    os.unlink(ws.path(rel))
    with pytest.raises(ManifestError, match="missing artifact"):
        ws.verify(ws.load_manifest())


def test_verified_hashes_only_the_file_it_is_asked_for(tmp_path, monkeypatch):
    ws = Workspace(tmp_path)
    kept, other = (ws.write_tracked_matrix(name, np.eye(n)) for name, n in (("a.lsk", 2), ("b.lsk", 3)))
    with open(ws.path(other), "r+b") as fh:  # damaged, but not asked for
        fh.seek(40)
        fh.write(b"\xff")
    hashed = []
    monkeypatch.setattr(matio, "sha256_file", lambda path, data: hashed.append(path) or sha256_file(path, data))
    assert ws.verified(kept) == (ws.path(kept), (tmp_path / kept).read_bytes()) and hashed == [ws.path(kept)]
    with pytest.raises(ManifestError, match=f"hash mismatch for {other!r}"):
        ws.verified(other)
    os.unlink(ws.path(kept))
    with pytest.raises(ManifestError, match="missing artifact"):
        ws.verified(kept)
    with pytest.raises(ManifestError, match="missing artifact"):
        ws.verified("c.lsk")  # its name holds no digest


def test_a_kept_tracked_file_is_verified_and_not_rewritten(tmp_path):
    ws = Workspace(tmp_path)
    rel = ws.write_tracked_matrix("a.lsk", np.eye(2))
    with open(ws.path(rel), "r+b") as fh:
        fh.seek(40)
        fh.write(b"\xff")
    damaged = (tmp_path / rel).read_bytes()
    with pytest.raises(ManifestError, match="hash mismatch"):
        ws.write_tracked_matrix("a.lsk", np.eye(2))
    assert (tmp_path / rel).read_bytes() == damaged


def test_config_roundtrip(tmp_path):
    """A new manifest records the library's tolerances and no `config`; a
    manifest with the `config` entry of an earlier layout is refused."""
    ws = Workspace(tmp_path)
    manifest = ws.init_manifest()
    assert "config" not in manifest
    assert manifest["tolerances"] == {
        "pinv_rel_tol": fmaps.PINV_REL_TOL,
        "tikhonov_floor": fmaps.TIKHONOV_FLOOR,
        "landmark_radius_factor": fmaps.LANDMARK_RADIUS_FACTOR,
        "dense_solver_max_size": spectral.DENSE_SOLVER_MAX_SIZE,
        "cluster_gap_tol": spectral.CLUSTER_GAP_TOL,
        "spectral_gap_warn_tol": latent.GAP_WARN_TOL,
        "orthonormal_tol": variability.ORTHONORMAL_TOL,
        "condition_limit": opalg.CONDITION_LIMIT,
    }
    config = {"k": 33, "m": 12, "kind": "both", "mesh_format": "", "tolerances": manifest.pop("tolerances")}
    ws.save_manifest({**manifest, "config": config})
    with pytest.raises(ManifestError, match=r"holds \['config'\]: it is in an earlier layout"):
        ws.load_manifest()


def test_sha256_file(tmp_path):
    p = tmp_path / "x"
    p.write_bytes(b"abc")
    assert sha256_file(p) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_text_and_json_writers_create_their_directory(tmp_path):
    doc = {"b": [1, 2], "a": 0.1}
    write_json(tmp_path / "a" / "doc.json", doc)
    write_text(tmp_path / "c" / "rows.txt", "0 1.5\n")
    assert (tmp_path / "a" / "doc.json").read_text() == json.dumps(doc, sort_keys=True) + "\n"  # one line, sorted
    assert (tmp_path / "c" / "rows.txt").read_text() == "0 1.5\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "c", "doc.json", "rows.txt"]  # no temporaries
    ws = Workspace(tmp_path / "ws")  # the manifest goes through the same writer
    manifest = {**ws.init_manifest(), "shapes": {"a": {"k": 1.5e-300}}}
    ws.save_manifest(manifest)
    write_json(tmp_path / "manifest.json", manifest)
    assert (tmp_path / "ws" / "manifest.json").read_bytes() == (tmp_path / "manifest.json").read_bytes()


def test_tracked_matrix_is_written_only_when_its_bytes_change(tmp_path):
    ws = Workspace(tmp_path)
    rel = ws.write_tracked_matrix(os.path.join("m", "a.lsk"), np.eye(3))
    assert rel == os.path.join("m", f"a.{sha256_file(ws.path(rel))}.lsk")
    os.utime(ws.path(rel), ns=(10**18, 10**18))
    stat = os.stat(ws.path(rel))
    # the same bytes: nothing written
    assert ws.write_tracked_matrix(os.path.join("m", "a.lsk"), np.eye(3)) == rel
    assert (os.stat(ws.path(rel)).st_ino, os.stat(ws.path(rel)).st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    # other bytes: another file, and the tracked one is left as it is
    other = ws.write_tracked_matrix(os.path.join("m", "a.lsk"), 2 * np.eye(3))
    assert other == os.path.join("m", f"a.{sha256_file(ws.path(other))}.lsk") != rel
    assert np.array_equal(read_matrix(ws.path(other)), 2 * np.eye(3))
    assert (os.stat(ws.path(rel)).st_ino, os.stat(ws.path(rel)).st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    assert np.array_equal(read_matrix(ws.path(rel)), np.eye(3))
    # bytes of any kind, such as a mesh copy, are named the same way
    mesh = ws.write_tracked(os.path.join("meshes", "x.off"), b"OFF\n0 0 0\n")
    assert mesh == os.path.join("meshes", f"x.{sha256_file(ws.path(mesh))}.off")
    write_matrix(tmp_path / "b.lsk", np.arange(5.0))  # the bytes that a tracked matrix is named by
    assert sha256_file(tmp_path / "b.lsk") == matio.digest(ws.write_tracked_matrix("b.lsk", np.arange(5.0)))
