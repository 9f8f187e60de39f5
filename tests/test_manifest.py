"""The manifest's stage records: each command reads only records that hold
their declared keys and value types, and the files a manifest lists are
exactly the files in the stage directories."""

import json

import pytest

from helpers import listed_files, tree_bytes, with_id
from lskit import matio
from lskit.cli import main
from lskit.meshes import load_mesh, save_off
from lskit.synth import two_cluster_family, two_cluster_ground_truth, write_family
from pipeline_bytes import extend_inputs, landmarks, two_cluster

STAGE_DIRECTORIES = ("meshes", "spectra", "maps", "latent", "diffs")
KEYS = {  # the keys of the stage records, and of the records inside them, that README describes
    "mesh", "source", "k", "files", "phi", "lam",  # a shape
    "topology", "maps", "nodes", "edges", "landmark_weight",  # fmn
    "m", "consistency_residual", "Y", "lambda0", "extended", "neighbor", "diffs",  # latent, an extension
    "normalized",  # diffs, and its files
}
OPTIONAL = {"fmn.landmark_weight"}  # under --maps landmarks only
# a command that reads each record, on the workspace of `built`
READER = {
    "shapes": ["fmn", "--topology", "clique", "--maps", "identity"],
    "fmn": ["latent", "--m", "6"],
    "latent": ["variability", "--mode", "global", "--emit-fields"],
    "diffs": ["ops", "descriptors"],
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A four-shape workspace with landmark maps, both kinds of differences
    and an extension x0, which covers every key of every record; and its mesh
    directory."""
    root = tmp_path_factory.mktemp("records")
    fam = two_cluster_family(n_per_cluster=2, subdivisions=1)
    write_family(fam.meshes, root / "meshes", two_cluster_ground_truth(fam))
    x0 = with_id(load_mesh(root / "meshes" / "a0.off"), "x0")
    save_off(x0, root / "x0.off")
    (root / "corr.txt").write_text("".join(f"{i} {i}\n" for i in range(x0.num_vertices)))
    ws = root / "ws"
    corr_dir = root / "corr"
    corr_dir.mkdir()
    for src in ("a0", "a1", "b0", "b1"):
        for tgt in ("a0", "a1", "b0", "b1"):
            if src != tgt:
                (corr_dir / f"{src}__{tgt}.txt").write_text("".join(f"{i} {i}\n" for i in range(0, 42, 3)))
    for argv in (["spectra", str(root / "meshes"), "--k", "10"],
                 ["fmn", "--topology", "clique", "--maps", "landmarks", "--corr-dir", str(corr_dir)],
                 ["latent", "--m", "6", "--kind", "both"],
                 ["extend", "--mesh", str(root / "x0.off"), "--corr", str(root / "corr.txt")]):
        assert main(argv + ["--workspace", str(ws)]) == 0
    manifest = json.loads((ws / "manifest.json").read_text())
    assert "landmark_weight" in manifest["fmn"] and "x0" in manifest["latent"]["extended"]
    assert set(manifest) == {"tool", "version", "tolerances", *READER}
    return root / "meshes", ws


def put_manifest(ws, doc):
    """Replace the manifest with `doc`: as a new file, since truncating one in
    place is slow on some file systems."""
    (ws / "manifest.json").unlink()
    (ws / "manifest.json").write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())


def values(node, where):
    """(path, container, key) of every value inside `node`, the path in the
    notation of the manifest's error messages."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, item in items:
        inner = f"{where}.{key}" if isinstance(node, dict) else f"{where}[{key}]"
        yield inner, node, key
        yield from values(item, inner)


def mutations(manifest, stage, change):
    """Mutate `manifest` in place, once for each key of the `stage` record and
    of the records inside it ("delete"), or for each value and the record
    itself ("retype": another JSON type), and yield the start of the error
    message that each mutation must give; each is undone before the next."""
    found = list(values(manifest[stage], stage))
    if change == "retype" and stage != "shapes":  # a `shapes` that is no object fails every command
        found.append((stage, manifest, stage))
    for where, container, key in found:
        if change == "delete" and (key not in KEYS or where in OPTIONAL):
            continue
        old = container[key]
        if change == "delete":
            del container[key]
            yield f"{where.rpartition('.')[0]}: missing {key!r}"
        else:
            container[key] = 5 if isinstance(old, str) else "x"
            yield f"{where}: expected "
        container[key] = old


def required_keys(decl, value):
    """How many keys `value` and the records inside it hold that declaration
    `decl` (a `matio.STAGES` entry) requires: those that are not a Maybe."""
    if type(decl) is dict:
        if str in decl:
            return sum(required_keys(decl[str], item) for item in value.values())
        return sum(1 + required_keys(sub, value[key]) if type(sub) is not matio.Maybe
                   else required_keys(sub.value, value[key]) for key, sub in decl.items() if key in value)
    if type(decl) is list:
        return sum(required_keys(decl[0], item) for item in value)
    if type(decl) is tuple:
        return sum(map(required_keys, decl, value))
    return 0


@pytest.mark.parametrize("change", ["delete", "retype"])
@pytest.mark.parametrize("stage", list(READER))
def test_a_malformed_record_fails_its_reader_before_any_write(built, capsys, stage, change):
    mesh_dir, ws = built
    original = (ws / "manifest.json").read_bytes()
    manifest = json.loads(original)
    cache_hit = ["spectra", str(mesh_dir), "--k", "10"]
    expected = (required_keys(matio.STAGES[stage], manifest[stage]) if change == "delete"
                else len(list(values(manifest[stage], stage))) + (stage != "shapes"))
    checked = 0
    try:
        for message in mutations(manifest, stage, change):
            put_manifest(ws, manifest)
            before = tree_bytes(ws)
            for argv in (READER[stage], cache_hit):
                capsys.readouterr()
                assert main(argv + ["--workspace", str(ws)]) == 1, (argv, message)
                (line,) = capsys.readouterr().err.splitlines()
                assert line.startswith(f"error: manifest.json: {message}"), (argv, line)
                assert tree_bytes(ws) == before, (argv, message)
            checked += 1
    finally:
        put_manifest(ws, original)
    assert checked == expected


@pytest.mark.parametrize("record, key", [("shapes.a0", "clusters"), ("latent", "canonical"), ("fmn", "cross_edges"),
                                         ("latent", "order"), ("diffs", "kinds")])
def test_a_record_key_of_an_earlier_layout_is_refused(built, capsys, record, key):
    mesh_dir, ws = built
    original = (ws / "manifest.json").read_bytes()
    manifest = json.loads(original)
    node = manifest
    for part in record.split("."):
        node = node[part]
    node[key] = []
    try:
        put_manifest(ws, manifest)
        before = tree_bytes(ws)
        capsys.readouterr()
        assert main(["spectra", str(mesh_dir), "--k", "10", "--workspace", str(ws)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"error: manifest.json: {record} holds [{key!r}]: it is in an earlier layout; "
                        "build a new workspace with `spectra`")
        assert tree_bytes(ws) == before
    finally:
        put_manifest(ws, original)


@pytest.mark.parametrize("case", ["fmn node"])
def test_a_dangling_reference_fails_its_reader_with_one_line(built, capsys, case):
    """A record that names what another record does not hold: an `fmn` node
    with no shape record."""
    _, ws = built
    original = (ws / "manifest.json").read_bytes()
    manifest = json.loads(original)
    manifest["fmn"]["nodes"].append("zz")
    argv, message = ["latent", "--m", "6"], "no shape record 'zz', which another record names"
    try:
        put_manifest(ws, manifest)
        before = tree_bytes(ws)
        capsys.readouterr()
        assert main(argv + ["--workspace", str(ws)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {ws / 'manifest.json'}: {message}"
        assert tree_bytes(ws) == before
    finally:
        put_manifest(ws, original)


@pytest.mark.filterwarnings("ignore::lskit.errors.SpectralGapWarning")  # `ops align`'s m=10 cuts a 7e-12 gap
def test_the_listing_is_the_files_in_the_stage_directories(tmp_path, monkeypatch):
    """After every command of the two-cluster and landmark pipelines, `listed`
    names what the independent oracle names, and the stage directories hold
    exactly those files: `save` deletes every other file there."""
    monkeypatch.chdir(tmp_path)
    steps = two_cluster()
    assert main(steps[0]) == 0
    assert main(["synth", "two-cluster", "--subdivisions", "2", "--per-cluster", "3", "--seed", "6",
                 "--out", "data/extra"]) == 0
    extend_inputs(str(tmp_path))
    for argv in steps[1:] + landmarks():
        main(argv)
        ws = tmp_path / argv[argv.index("--workspace") + 1]
        manifest = json.loads((ws / "manifest.json").read_text())
        assert matio.listed(manifest) == listed_files(manifest), argv
        on_disk = {f"{sub}/{p.name}" for sub in STAGE_DIRECTORIES if (ws / sub).is_dir() for p in (ws / sub).iterdir()}
        assert on_disk == listed_files(manifest), argv
