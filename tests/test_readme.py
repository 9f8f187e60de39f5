"""The README's library example runs as written, under the suite's warning
filters, on the family that its comment says how to generate."""

import pathlib
import re

from lskit.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs_on_the_family_it_names(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)
    assert main(re.search(r"# lskit (synth .*)", block).group(1).split()) == 0
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert len(scope["shapes"]) == 6
    assert scope["field"].shape == (scope["shapes"][0].num_vertices,)
