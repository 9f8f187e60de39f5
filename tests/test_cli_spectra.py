"""`spectra` solves its stale shapes in a fork pool: the worker count, the
BLAS pin, warnings and failures across the process boundary, and failures
that must leave the workspace usable."""

import concurrent.futures
import ctypes
import json
import multiprocessing
import os

import pytest

from helpers import bumpy_sphere, listed_files, tracked, tree_bytes, with_id
from lskit import cli, matio, spectral
from lskit.cli import main
from lskit.errors import SpectralGapWarning
from lskit.meshes import Mesh, load_mesh, save_off
from lskit.synth import chain_family, sphere_bump_family, two_cluster_family, write_family


def manifest_of(ws):
    return json.loads((ws / "manifest.json").read_text())


@pytest.fixture
def chain_dir(tmp_path):
    fam_dir = tmp_path / "meshes"
    write_family(chain_family(count=4, subdivisions=1).meshes, fam_dir)
    return fam_dir


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records how it was built and runs
    each task inline, so no process starts."""

    built = []

    def __init__(self, max_workers, mp_context):
        self.built.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_pool_size_is_clamped_to_the_stale_shapes(tmp_path, chain_dir, monkeypatch):
    (chain_dir / "frame03.off").unlink()  # three shapes
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "built", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert main(["spectra", str(chain_dir), "--workspace", str(tmp_path / "ws"), "--k", "8"]) == 0
    assert FakeExecutor.built == [(3, "fork")]
    # with no BLAS whose threads can be pinned, one worker
    monkeypatch.setattr(cli, "_blas_setters", lambda verb="set": [])
    assert main(["spectra", str(chain_dir), "--workspace", str(tmp_path / "ws"), "--k", "9"]) == 0
    assert FakeExecutor.built[1][0] == 1
    assert sorted(manifest_of(tmp_path / "ws")["shapes"]) == ["frame00", "frame01", "frame02"]
    assert not multiprocessing.active_children()


def test_cache_hit_starts_no_pool(tmp_path, chain_dir, monkeypatch, capsys):
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(chain_dir), "--workspace", ws, "--k", "8"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a cache-hit spectra started a pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    capsys.readouterr()
    assert main(["spectra", str(chain_dir), "--workspace", ws, "--k", "8"]) == 0
    assert capsys.readouterr().out.strip() == "up to date (4 shapes)"


def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    fam_dir = tmp_path / "meshes"
    write_family(two_cluster_family(n_per_cluster=2, subdivisions=2).meshes, fam_dir)
    big = bumpy_sphere(seed=5, subdivisions=4, shape_id="big")
    save_off(big, fam_dir / "big.off")
    k = 20
    # one shape takes the shift-invert path, the others the dense path
    assert big.num_vertices > spectral.DENSE_SOLVER_MAX_SIZE and 8 * (k + 1) < big.num_vertices
    assert 162 <= spectral.DENSE_SOLVER_MAX_SIZE

    sizes = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Counted)
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        ws = tmp_path / f"ws{cpus}"
        assert main(["spectra", str(fam_dir), "--workspace", str(ws), "--k", str(k)]) == 0
        trees.append(tree_bytes(ws))
    assert sizes == [1, 2]
    assert len(trees[0]) == 1 + 5 * 3  # manifest, and per shape a mesh and two spectra
    assert trees[0] == trees[1]
    assert not multiprocessing.active_children()


def _blas_thread_counts():
    """Thread count of every loaded OpenBLAS, through its getter."""
    getters = [name.replace("_set_", "_get_") for name in cli.BLAS_THREAD_SETTERS]
    counts = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh})
    for path in paths:
        name = os.path.basename(path)
        if name.startswith("lib") and "blas" in name:
            lib = ctypes.CDLL(path)
            counts += [getattr(lib, sym)() for sym in getters if hasattr(lib, sym)]
    return counts


@pytest.fixture
def two_blas_threads():
    """The caller runs every loaded OpenBLAS on two threads; each gets its
    previous thread count back afterwards."""
    previous = _blas_thread_counts()
    if not previous:
        pytest.skip("no loaded BLAS exposes an OpenBLAS thread setter")
    try:
        for setter in cli._blas_setters():
            setter(2)
        if set(_blas_thread_counts()) != {2}:
            pytest.skip("the loaded BLAS cannot run on two threads")
        yield
    finally:
        for setter, count in zip(cli._blas_setters(), previous):
            setter(count)


def _counts_in_worker(root, sid, src, k):
    """Stands in for `cli._solve_shape`: the worker's BLAS thread counts."""
    return _blas_thread_counts()


def _interrupted_worker(root, sid, src, k):
    """Stands in for `cli._solve_shape`: a solve stopped by Ctrl-C."""
    raise KeyboardInterrupt


def test_a_second_pin_lists_the_loaded_libraries_no_more(monkeypatch, two_blas_threads):
    with cli._one_blas_thread():  # the first pin of the process may list them
        pass
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)  # cli's own reads only
    with cli._one_blas_thread() as pinned:
        counts = _blas_thread_counts()
    assert pinned and set(counts) == {1}
    assert "/proc/self/maps" not in opened
    assert set(_blas_thread_counts()) == {2}


def test_pool_workers_run_blas_on_one_thread(tmp_path, monkeypatch, two_blas_threads):
    monkeypatch.setattr(cli, "_solve_shape", _counts_in_worker)  # the forked workers inherit it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    results = cli._solve_in_pool(matio.Workspace(str(tmp_path)), [("a0", "a0.off"), ("a1", "a1.off")], 8)
    assert len(results) == 2 and all(counts and set(counts) == {1} for counts in results)
    assert set(_blas_thread_counts()) == {2}  # the caller's threads are back


def test_gap_warning_in_a_worker_surfaces_from_main(tmp_path):
    b0 = next(m for m in sphere_bump_family(subdivisions=3).meshes if m.shape_id == "b0")
    assert b0.num_vertices == 642
    fam_dir = tmp_path / "meshes"
    write_family([b0], fam_dir)
    # k=80 cuts the plain sphere's exactly degenerate band (relative gap 1.3e-15)
    with pytest.warns(SpectralGapWarning, match="shape 'b0': truncation at k=80"):
        assert main(["spectra", str(fam_dir), "--workspace", str(tmp_path / "ws"), "--k", "80"]) == 0


def test_failing_mesh_leaves_the_workspace_usable(tmp_path, chain_dir, capsys):
    ws = tmp_path / "ws"
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "8"]) == 0
    before = manifest_of(ws)["shapes"]["frame01"]
    copy = (ws / tracked(ws, "meshes/frame01.off")).read_bytes()
    good = (chain_dir / "frame01.off").read_bytes()
    zero_area = "OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n"
    (chain_dir / "frame01.off").write_text(zero_area)  # a changed mesh that fails
    (chain_dir / "new.off").write_text(zero_area)  # a new mesh that fails
    capsys.readouterr()
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "8"]) == 1
    out, err = capsys.readouterr()
    manifest = manifest_of(ws)
    assert manifest["shapes"]["frame01"] == before
    assert sorted(manifest["shapes"]) == ["frame00", "frame01", "frame02", "frame03"]
    assert (ws / tracked(ws, "meshes/frame01.off")).read_bytes() == copy
    assert not list((ws / "meshes").glob("new.*"))
    assert main(["fmn", "--workspace", str(ws), "--topology", "chain", "--maps", "identity"]) == 0
    assert "error: frame01.off:" in err and "error: new.off:" in err
    assert "up to date" not in out
    (chain_dir / "frame01.off").write_bytes(good)
    (chain_dir / "new.off").unlink()
    capsys.readouterr()
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "8"]) == 0
    assert capsys.readouterr().out.strip() == "up to date (4 shapes)"
    assert not multiprocessing.active_children()


def test_k_beyond_a_shape_fails_only_that_shape(tmp_path, capsys):
    fam_dir = tmp_path / "meshes"
    fam_dir.mkdir()
    for sid, subdivisions in (("a0", 2), ("a1", 1), ("b0", 1)):
        save_off(bumpy_sphere(seed=len(sid) + subdivisions, subdivisions=subdivisions, shape_id=sid), fam_dir / f"{sid}.off")
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(fam_dir), "--workspace", ws, "--k", "8"]) == 0
    capsys.readouterr()
    assert main(["spectra", str(fam_dir), "--workspace", ws, "--k", "100"]) == 1
    err = capsys.readouterr().err
    shapes = manifest_of(tmp_path / "ws")["shapes"]
    assert {sid: entry["k"] for sid, entry in shapes.items()} == {"a0": 100, "a1": 8, "b0": 8}
    assert main(["spectra", str(fam_dir), "--workspace", ws, "--k", "8"]) == 0, capsys.readouterr().err
    assert {entry["k"] for entry in manifest_of(tmp_path / "ws")["shapes"].values()} == {8}
    assert "error: a1.off: shape 'a1': k=100 must be in 1..42" in err and "error: b0.off:" in err


def listed_and_on_disk(ws):
    """The files that the manifest tracks, and the files in its stage directories."""
    on_disk = {f"{sub}/{p.name}" for sub in ("meshes", "spectra", "maps", "latent", "diffs")
               if (ws / sub).is_dir() for p in (ws / sub).iterdir()}
    return listed_files(manifest_of(ws)), on_disk


def test_write_failure_keeps_the_shapes_old_record(tmp_path, chain_dir, monkeypatch, capsys):
    ws = tmp_path / "ws"
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "8"]) == 0
    before = manifest_of(ws)["shapes"]["frame02"]
    atomic_write = matio._atomic_write

    def failing(path, data):  # after the worker wrote frame02's eigenvectors
        if os.path.basename(path).startswith("frame02.lam"):
            raise OSError("disk full")
        return atomic_write(path, data)

    monkeypatch.setattr(matio, "_atomic_write", failing)  # the forked workers inherit it
    capsys.readouterr()
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "9"]) == 1
    assert "error: frame02.off: OSError: disk full" in capsys.readouterr().err
    manifest = manifest_of(ws)
    assert {sid: entry["k"] for sid, entry in manifest["shapes"].items()} == {
        "frame00": 9, "frame01": 9, "frame02": 8, "frame03": 9,
    }
    assert manifest["shapes"]["frame02"] == before
    listed, on_disk = listed_and_on_disk(ws)
    assert listed == on_disk  # the eigenvectors written at k=9 are gone
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "9"]) == 0
    assert capsys.readouterr().out.strip() == "computed spectra for 1 shapes (k=9), 3 up to date"
    assert manifest_of(ws)["shapes"]["frame02"]["k"] == 9


def test_a_new_shape_that_is_not_recorded_leaves_no_file(tmp_path, chain_dir, monkeypatch):
    ws = tmp_path / "ws"
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "8"]) == 0
    (chain_dir / "zz.off").write_bytes((chain_dir / "frame00.off").read_bytes())
    record_shape = cli._View.record_shape

    def interrupted(view, sid, *args):  # after the workers wrote every shape's files
        if sid == "zz":
            raise KeyboardInterrupt
        return record_shape(view, sid, *args)

    monkeypatch.setattr(cli._View, "record_shape", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "10"])
    monkeypatch.undo()
    assert {sid: entry["k"] for sid, entry in manifest_of(ws)["shapes"].items()} == {
        "frame00": 10, "frame01": 10, "frame02": 10, "frame03": 10,
    }
    listed, on_disk = listed_and_on_disk(ws)
    assert listed == on_disk and not [rel for rel in on_disk if "zz" in rel]


@pytest.mark.parametrize("fault", ["all-failed", "interrupted"])
def test_config_k_stays_until_a_shape_is_recorded_at_the_new_k(tmp_path, chain_dir, monkeypatch, fault):
    """The shape records are the only record of the k a workspace is at: a
    `spectra` at a new k that records no shape leaves the manifest as it was."""
    ws = tmp_path / "ws"
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "8"]) == 0
    before = manifest_of(ws)
    if fault == "all-failed":  # each chain member has 42 vertices
        assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "100"]) == 1
    else:
        def interrupted(view, sid, *args):  # before the first shape is recorded
            raise KeyboardInterrupt

        monkeypatch.setattr(cli._View, "record_shape", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "10"])
        monkeypatch.undo()
    manifest = manifest_of(ws)
    assert manifest == before and "config" not in manifest
    assert {entry["k"] for entry in manifest["shapes"].values()} == {8}


def test_two_meshes_of_one_shape_fail_before_any_solve(tmp_path, chain_dir, monkeypatch, capsys):
    ws = tmp_path / "ws"
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "8"]) == 0
    before = tree_bytes(ws)
    mesh = load_mesh(chain_dir / "frame01.off")
    header = ["ply", "format ascii 1.0", f"element vertex {mesh.num_vertices}", "property float x",
              "property float y", "property float z", f"element face {mesh.num_triangles}",
              "property list uchar int vertex_indices", "end_header"]
    body = [" ".join(repr(float(x)) for x in v) for v in mesh.vertices] + [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    (chain_dir / "frame01.ply").write_text("\n".join(header + body) + "\n")

    def no_pool(*args, **kwargs):
        raise AssertionError("spectra started a pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    capsys.readouterr()
    assert main(["spectra", str(chain_dir), "--workspace", str(ws), "--k", "9"]) == 1
    assert "frame01.off and frame01.ply" in capsys.readouterr().err
    assert tree_bytes(ws) == before


def inject(fault, monkeypatch, sid):
    """Make the next `spectra` fail at shape `sid`, after the workers wrote
    every shape's files: interrupted as it records `sid`, once the shapes
    before it are recorded ("interrupt"), or its mesh copy's write fails
    ("copy-fails"). Returns what the command then raises, or its exit code."""
    if fault == "interrupt":
        record_shape = cli._View.record_shape

        def interrupted(view, shape_id, *args):
            if shape_id == sid:
                raise KeyboardInterrupt
            return record_shape(view, shape_id, *args)

        monkeypatch.setattr(cli._View, "record_shape", interrupted)
        return KeyboardInterrupt
    atomic_write = matio._atomic_write

    def failing(path, data):
        if os.path.basename(path).startswith(f"{sid}.") and path.endswith(".off"):
            raise OSError("disk full")
        return atomic_write(path, data)

    monkeypatch.setattr(matio, "_atomic_write", failing)
    return 1


@pytest.mark.parametrize("fault", ["interrupt", "copy-fails"])
def test_interrupted_spectra_leaves_a_usable_workspace(tmp_path, chain_dir, monkeypatch, capsys, fault):
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(chain_dir), "--workspace", ws, "--k", "8"]) == 0
    assert main(["fmn", "--workspace", ws, "--topology", "chain", "--maps", "identity"]) == 0
    before = manifest_of(tmp_path / "ws")["shapes"]
    mesh = load_mesh(chain_dir / "frame01.off")
    save_off(Mesh(1.1 * mesh.vertices, mesh.triangles, "frame01"), chain_dir / "frame01.off")  # its copy changes
    outcome = inject(fault, monkeypatch, "frame01")
    if outcome is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["spectra", str(chain_dir), "--workspace", ws, "--k", "10"])
    else:
        assert main(["spectra", str(chain_dir), "--workspace", ws, "--k", "10"]) == outcome
        assert "disk full" in capsys.readouterr().err
    monkeypatch.undo()
    manifest = manifest_of(tmp_path / "ws")
    # the shapes not recorded keep their old records
    assert {sid: entry["k"] for sid, entry in manifest["shapes"].items()} == {
        "frame00": 10, "frame01": 8, "frame02": 8, "frame03": 8,
    }
    assert all(manifest["shapes"][sid] == before[sid] for sid in ("frame01", "frame02", "frame03"))
    assert not {"fmn", "latent", "diffs"} & set(manifest)
    listed, on_disk = listed_and_on_disk(tmp_path / "ws")
    assert listed == on_disk  # the maps, and the files written for the shapes not recorded, are gone
    capsys.readouterr()
    assert main(["spectra", str(chain_dir), "--workspace", ws, "--k", "10"]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.strip() == "computed spectra for 3 shapes (k=10), 1 up to date"
    copy = tmp_path / "ws" / tracked(tmp_path / "ws", "meshes/frame01.off")
    assert copy.read_bytes() == (chain_dir / "frame01.off").read_bytes()
    assert main(["fmn", "--workspace", ws, "--topology", "chain", "--maps", "identity"]) == 0


@pytest.mark.parametrize("fault", [None, "interrupt", "copy-fails", "worker-interrupt"])
def test_spectra_gives_the_caller_its_blas_threads_back(tmp_path, chain_dir, monkeypatch, two_blas_threads, fault):
    ws = str(tmp_path / "ws")
    assert main(["spectra", str(chain_dir), "--workspace", ws, "--k", "8"]) == 0
    assert set(_blas_thread_counts()) == {2}
    mesh = load_mesh(chain_dir / "frame01.off")
    save_off(Mesh(1.1 * mesh.vertices, mesh.triangles, "frame01"), chain_dir / "frame01.off")  # its copy changes
    if fault == "worker-interrupt":  # Ctrl-C inside the pool, while the workers solve
        monkeypatch.setattr(cli, "_solve_shape", _interrupted_worker)
        outcome = KeyboardInterrupt
    else:
        outcome = inject(fault, monkeypatch, "frame01") if fault else 0
    if outcome is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["spectra", str(chain_dir), "--workspace", ws, "--k", "10"])
    else:  # every shape is recomputed at the new k
        assert main(["spectra", str(chain_dir), "--workspace", ws, "--k", "10"]) == outcome
    assert set(_blas_thread_counts()) == {2}
    assert not multiprocessing.active_children()


def test_extend_solves_as_spectra_does_and_restores_the_blas_threads(tmp_path, two_blas_threads):
    fam_dir, solo = tmp_path / "meshes", tmp_path / "solo"
    write_family(two_cluster_family(n_per_cluster=2, subdivisions=2).meshes, fam_dir)
    x0 = with_id(two_cluster_family(n_per_cluster=2, subdivisions=2, seed=4).meshes[0], "x0")
    solo.mkdir()
    save_off(x0, solo / "x0.off")
    corr = tmp_path / "corr.txt"
    corr.write_text("".join(f"{i} {i}\n" for i in range(x0.num_vertices)))
    ws, ws_solo = tmp_path / "ws", tmp_path / "ws_solo"
    for argv in (
        ["spectra", str(fam_dir), "--k", "20"],
        ["fmn", "--topology", "clique", "--maps", "identity"],
        ["latent", "--m", "6"],
        ["extend", "--mesh", str(solo / "x0.off"), "--corr", str(corr)],
    ):
        assert main(argv + ["--workspace", str(ws)]) == 0
    assert set(_blas_thread_counts()) == {2}
    assert main(["spectra", str(solo), "--workspace", str(ws_solo), "--k", "20"]) == 0
    for name in ("phi", "lam"):
        rel = tracked(ws, f"spectra/x0.{name}.lsk")
        assert rel == tracked(ws_solo, f"spectra/x0.{name}.lsk")
        assert (ws / rel).read_bytes() == (ws_solo / rel).read_bytes(), name
