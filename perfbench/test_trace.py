"""Tracer coverage and span accounting, on a tiny two-cluster workspace."""

import inspect
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from lskit import cli, network  # noqa: E402

FROM_IMPORTED = [(cli, name) for name in
                 ("load_mesh", "metric_measure", "read_matrix", "read_vector", "write_matrix", "sha256_file")]
FROM_IMPORTED.append((network, "fmap_from_correspondence"))
TRACED_MODULES = {f"lskit.{layer}" for layer in spans.LAYERS if layer != "cli"}


def layer_bindings():
    """(module, name, function) for every name in any lskit module bound to a
    public function that a traced layer module defines."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "lskit":
            continue
        for attr, obj in vars(mod).items():
            fn = getattr(obj, "perfbench_original", obj)
            if inspect.isfunction(fn) and fn.__module__ in TRACED_MODULES and not fn.__name__.startswith("_"):
                found.append((mod, attr, obj))
    return found


def test_install_wraps_from_import_bindings_and_uninstall_restores():
    tracer = spans.Tracer()
    tracer.install()
    try:
        bindings = layer_bindings()
        unwrapped = [f"{mod.__name__}.{attr}" for mod, attr, obj in bindings if not hasattr(obj, "perfbench_original")]
        assert not unwrapped
        checked = {(mod.__name__, attr) for mod, attr, _ in bindings}
        assert {(module.__name__, name) for module, name in FROM_IMPORTED} <= checked
    finally:
        tracer.uninstall()
    assert not [attr for _, attr, obj in layer_bindings() if hasattr(obj, "perfbench_original")]


def test_cli_self_time_plus_child_spans_equals_command_wall(tmp_path):
    data, ws = str(tmp_path / "data"), str(tmp_path / "ws")
    tracer = spans.Tracer()
    session = workloads.Session(tracer)
    session.run(["synth", "two-cluster", "--subdivisions", "1", "--per-cluster", "3", "--out", data], trace=False)
    commands = [
        ["spectra", data, "--workspace", ws, "--k", "10"],
        ["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"],
        ["latent", "--workspace", ws, "--m", "6", "--kind", "both"],
        ["variability", "--workspace", ws, "--mode", "global"],
        ["ops", "descriptors", "--workspace", ws],
    ]
    tracer.install()
    try:
        for argv in commands:
            command = session.run(argv)
            assert command.rc == 0, command.stderr
            recorded, _ = tracer.take()
            (root,) = [s for s in recorded if s.parent is None]
            assert root.name == f"cli.{argv[0]}"
            assert root.duration == pytest.approx(command.seconds, rel=0.02, abs=2e-3)
            # children of a span run one after another inside it, so cli self
            # time and the child spans partition the command's wall time
            for parent in recorded:
                kids = sorted((s for s in recorded if s.parent is parent), key=lambda s: s.t0)
                assert all(parent.t0 <= s.t0 <= s.t1 <= parent.t1 for s in kids)
                assert all(a.t1 <= b.t0 for a, b in zip(kids, kids[1:]))
            assert all(s.parent is None or s.parent.name != s.name for s in recorded), "a binding wrapped twice"
            names = {s.name for s in recorded}
            if argv[0] in ("fmn", "latent"):  # workspace reload goes through cli's own bindings
                assert {"meshes.load_mesh", "spectral.metric_measure", "matio.read_vector"} <= names
    finally:
        tracer.uninstall()
