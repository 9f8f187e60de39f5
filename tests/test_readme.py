"""The README's examples run as written, under the suite's warning filters:
the CLI walkthrough command by command, and the library example on the
family that its comment says how to generate."""

import pathlib
import re
import shlex
import shutil

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


def test_the_cli_walkthrough_runs_command_by_command(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## CLI walkthrough\n.*?```bash\n(.*?)```", text, re.S)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip() and not line.startswith("#")]
    commands = [shlex.split(line) for line in lines]
    assert [argv[0] for argv in commands if argv[0] != "lskit"] == ["cp", "cp"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "cp":
            shutil.copyfile(*argv[1:])
        else:
            assert main(argv[1:]) == 0, argv
    assert "extended collection with 'new'" in capsys.readouterr().out
