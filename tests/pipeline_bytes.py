"""Run three fixed CLI pipelines with one lskit source tree, for a byte-identity
check of two trees:

    python tests/pipeline_bytes.py --src <before>/src --out /tmp/before
    python tests/pipeline_bytes.py --src src --out /tmp/after
    diff -r /tmp/before /tmp/after

The pipelines:
  two-cluster  synth two-cluster (subdivision 2, 3 per cluster, seed 5), then
               19 commands: spectra, fmn, latent, variability, every ops
               action, extend with `auto` and a forced neighbour, an
               up-to-date spectra and a refused fmn;
  landmarks    a second workspace on the same meshes, with landmark maps,
               through latent, cross variability and ops align;
  many-shapes  the 120-member chain at k=40, knn:4, m=30: the sparse latent
               path.

Each command runs in its own `python -m lskit` process from `--out`, so the
data and workspaces hold relative paths. `--out` ends up with the inputs, the
workspaces and `transcript.txt`: each command's exit code, stdout and stderr,
with `--out` and `--src` written as <out> and <src>, and no source line
numbers (a moved line is not a changed output). Exits 0 once every command
has run, whatever the commands' own exit codes.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys


def two_cluster(ws="ws"):
    pairs, corr, part = "data/pairs", "data/pairs/correspondences", "data/pairs/ground_truth.json"
    return [
        ["synth", "two-cluster", "--subdivisions", "2", "--per-cluster", "3", "--seed", "5", "--out", pairs],
        ["spectra", pairs, "--workspace", ws, "--k", "20"],
        ["fmn", "--workspace", ws, "--topology", "clique", "--maps", "identity"],
        ["latent", "--workspace", ws, "--m", "10", "--kind", "both"],
        ["variability", "--workspace", ws, "--mode", "global", "--emit-fields"],
        ["fmn", "--workspace", ws, "--topology", "two-cluster", "--partition", part, "--maps", "correspondence",
         "--corr-dir", corr],
        ["latent", "--workspace", ws, "--m", "10", "--kind", "both"],
        ["variability", "--workspace", ws, "--mode", "global", "--emit-fields"],
        ["variability", "--workspace", ws, "--mode", "cross", "--partition", part, "--emit-fields"],
        ["ops", "descriptors", "--workspace", ws],
        ["ops", "analogy", "a0", "a1", "b0", "--workspace", ws],
        ["ops", "interp", "a0", "b0", "--t", "0.5", "--workspace", ws],
        ["ops", "mix", "a0", "b0", "--region", "data/region.json", "--workspace", ws],
        ["ops", "align", "--workspace", ws, "--partition", part],
        ["extend", "--workspace", ws, "--mesh", "data/x0.off", "--corr", "data/x_corr.txt"],
        ["extend", "--workspace", ws, "--mesh", "data/x1.off", "--corr", "data/x_corr.txt", "--neighbor", "b1"],
        ["ops", "descriptors", "--workspace", ws, "--diff-kind", "conformal"],
        ["spectra", pairs, "--workspace", ws, "--k", "20"],
        ["fmn", "--workspace", ws, "--topology", "clique", "--maps", "correspondence", "--corr-dir", "data/none"],
    ]


def landmarks(ws="ws_landmarks"):
    pairs, part = "data/pairs", "data/pairs/ground_truth.json"
    return [
        ["spectra", pairs, "--workspace", ws, "--k", "20"],
        ["fmn", "--workspace", ws, "--topology", "clique", "--maps", "landmarks", "--corr-dir", f"{pairs}/correspondences"],
        ["latent", "--workspace", ws, "--m", "10"],
        ["variability", "--workspace", ws, "--mode", "cross", "--partition", part, "--emit-fields"],
        ["ops", "align", "--workspace", ws, "--partition", part],
    ]


def many_shapes(ws="ws_chain"):
    chain = "data/chain"
    return [
        ["synth", "chain", "--count", "120", "--seed", "7331", "--out", chain],
        ["spectra", chain, "--workspace", ws, "--k", "40"],
        ["fmn", "--workspace", ws, "--topology", "knn:4", "--maps", "identity"],
        ["latent", "--workspace", ws, "--m", "30", "--kind", "both"],
        ["variability", "--workspace", ws, "--mode", "global"],
        ["ops", "descriptors", "--workspace", ws],
        ["ops", "analogy", "frame00", "frame01", "frame02", "--workspace", ws],
        ["ops", "interp", "frame00", "frame60", "--t", "0.5", "--workspace", ws],
    ]


def extend_inputs(out):
    """`extend`'s inputs: x0 and x1, members a0 and a1 of the seed-6 family,
    with their identity correspondence; and `ops mix`'s region on a0."""
    data = os.path.join(out, "data")
    for sid in ("a0", "a1"):
        shutil.copyfile(os.path.join(data, "extra", f"{sid}.off"), os.path.join(data, f"x{sid[1]}.off"))
    shutil.copyfile(os.path.join(data, "pairs", "correspondences", "a0__a1.txt"), os.path.join(data, "x_corr.txt"))
    with open(os.path.join(data, "region.json"), "w", encoding="utf-8") as fh:
        json.dump({"shape": "a0", "vertices": list(range(0, 162, 2))}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the source directory holding the lskit package")
    parser.add_argument("--out", required=True, help="a new directory for the inputs, workspaces and transcript")
    args = parser.parse_args(argv)
    src, out = os.path.abspath(args.src), os.path.abspath(args.out)
    os.makedirs(out)
    env = {**os.environ, "PYTHONPATH": src}

    def run(cmd):
        proc = subprocess.run([sys.executable, "-m", "lskit", *cmd], cwd=out, env=env, capture_output=True, text=True)
        text = f"$ lskit {' '.join(cmd)}\nexit {proc.returncode}\n{proc.stdout}{proc.stderr}\n"
        text = re.sub(r"(\S+\.py):\d+:", r"\1:", text.replace(out, "<out>").replace(src, "<src>"))
        print(text, end="", flush=True)
        return text

    steps = two_cluster()
    extra = ["synth", "two-cluster", "--subdivisions", "2", "--per-cluster", "3", "--seed", "6", "--out", "data/extra"]
    transcript = [run(cmd) for cmd in (steps[0], extra)]
    extend_inputs(out)
    transcript += [run(cmd) for cmd in steps[1:] + landmarks() + many_shapes()]
    with open(os.path.join(out, "transcript.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(transcript))
    return 0


if __name__ == "__main__":
    sys.exit(main())
