"""Shared builders and independent oracles for the test suite.

Oracles here are deliberately dumb and independent of the library paths they
check: dense generalized eigensolves, brute-force spanning-tree enumeration,
explicit segment-intersection geometry.
"""

import itertools
import json
import os
import pathlib
import re
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as sla

from lskit import cli, matio, spectral
from lskit.fmaps import Correspondence, fmap_from_landmarks
from lskit.meshes import validate_mesh
from lskit.network import attach_maps, build_topology, identity_map_provider
from lskit.spectral import compute_shape
from lskit.synth import BumpSpec, apply_bumps, icosphere


# ---------------------------------------------------------------------------
# mesh builders


def unit_area_triangle():
    """Single equilateral triangle of area exactly 1."""
    a = np.sqrt(4.0 / np.sqrt(3.0))
    verts = np.array([[0.0, 0.0, 0.0], [a, 0.0, 0.0], [a / 2.0, a * np.sqrt(3.0) / 2.0, 0.0]])
    return validate_mesh(verts, np.array([[0, 1, 2]]), "tri")


def bumpy_sphere(seed=0, subdivisions=2, n_bumps=3, height=0.25, shape_id=None):
    """Deformed icosphere with seeded random bumps (generic, asymmetric)."""
    rng = np.random.default_rng(seed)
    v, t = icosphere(subdivisions)
    bumps = []
    for _ in range(n_bumps):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        bumps.append(BumpSpec(tuple(d), 0.5 + 0.3 * rng.random(), height * (0.5 + rng.random())))
    return validate_mesh(apply_bumps(v, bumps), t, shape_id or f"bumpy{seed}")


@lru_cache(maxsize=None)
def cached_bumpy_shape(seed, subdivisions, k):
    return compute_shape(bumpy_sphere(seed, subdivisions), k)


def full_info_family(subdivisions=1, count=3):
    """Shared-connectivity deformed spheres with full bases and exact
    identity-correspondence maps: every 'full information' hypothesis holds."""
    v, t = icosphere(subdivisions)
    directions = [(1, 0, 0), (0, 0, 1), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    shapes = []
    for i in range(count):
        bumps = [BumpSpec(directions[i % len(directions)], 0.7, 0.15 + 0.05 * i)]
        mesh = validate_mesh(apply_bumps(v, bumps), t, f"s{i}")
        shapes.append(compute_shape(mesh, mesh.num_vertices))
    net = attach_maps(
        shapes,
        build_topology([s.dna() for s in shapes], "clique"),
        identity_map_provider,
        "clique",
    )
    return shapes, net


def identity_net(shapes, kind="clique", **kw):
    return attach_maps(
        shapes, build_topology([s.dna() for s in shapes], kind, **kw), identity_map_provider, kind
    )


def landmark_net(shapes, stride=4, weight=1e-2, kind="clique"):
    """Network with maps fitted from shared landmark vertices (computed maps
    with genuine inconsistency, unlike exact identity maps)."""
    n = shapes[0].mesh.num_vertices
    marks = np.arange(0, n, stride)
    corr = Correspondence(np.stack([marks, marks], axis=1), "sparse_landmarks")

    def provider(src, tgt):
        return fmap_from_landmarks(src, tgt, corr, regularizer_weight=weight)

    return attach_maps(
        shapes, build_topology([s.dna() for s in shapes], kind), provider, kind
    )


@contextmanager
def solver_path(path):
    """Force lskit's eigensolver dispatch onto `path` ("dense" or "sparse")
    inside the block, and check on exit that only that path's solver
    (`scipy.linalg.eigh` or `eigsh`) ran."""
    calls = {"dense": 0, "sparse": 0}

    def counting(kind, fn):
        def counted(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "DENSE_SOLVER_MAX_SIZE", 10**9 if path == "dense" else 0)
        mp.setattr(scipy.linalg, "eigh", counting("dense", scipy.linalg.eigh))
        mp.setattr(sla, "eigsh", counting("sparse", sla.eigsh))
        yield
    other = "sparse" if path == "dense" else "dense"
    assert calls[path] > 0 and calls[other] == 0, f"forced {path} path, solver calls {calls}"


def subspace_sine(A, B, gram=None):
    """Sine of the largest principal angle between the column spans of two
    bases, orthonormal in the inner product with diagonal `gram` (default I)."""
    w = np.ones(A.shape[0]) if gram is None else gram
    residual = B - A @ (A.T @ (w[:, None] * B))
    return float(np.linalg.norm(np.sqrt(w)[:, None] * residual, 2))


# ---------------------------------------------------------------------------
# oracles


def dense_generalized_eigh(L, mass_diag):
    """Reference solve of L phi = lambda M phi with diagonal M."""
    L = np.asarray(L.toarray() if hasattr(L, "toarray") else L, dtype=np.float64)
    inv = 1.0 / np.sqrt(mass_diag)
    A = L * inv[:, None] * inv[None, :]
    A = 0.5 * (A + A.T)
    lam, u = np.linalg.eigh(A)
    return np.maximum(lam, 0.0), u * inv[:, None]


def mean_shape_oracle(shapes):
    """Theorem-style ground truth: eigenpairs of the averaged metric/measure."""
    n = len(shapes)
    Lbar = sum(s.mm.stiffness.toarray() for s in shapes) / n
    Mbar = sum(s.mm.mass_diag for s in shapes) / n
    lam, phi = dense_generalized_eigh(Lbar, Mbar)
    return lam, phi, Mbar


def all_spanning_trees(n, edges):
    """Brute-force enumeration of spanning trees of an undirected graph."""
    trees = []
    for combo in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j in combo:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            trees.append(combo)
    return trees


def segments_intersect(p1, p2, p3, p4):
    """Proper intersection of open segments (shared endpoints do not count)."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def polygon_is_simple(points):
    """True when the closed polygon through the points has no proper
    self-intersections between non-adjacent edges."""
    pts = list(points) + [points[0]]
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if segments_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1]):
                return False
    return True


def random_orthonormal(rng, m, p=None):
    q, r = np.linalg.qr(rng.standard_normal((m, p or m)))
    return q * np.sign(np.diag(r))[None, : q.shape[1]]


def random_spd(rng, m, scale=1.0):
    A = rng.standard_normal((m, m))
    return scale * (A @ A.T) / m + 0.1 * np.eye(m)


def args_during(monkeypatch, owner, name, argv):
    """Run the CLI on `argv` with `owner.name` recording the first argument
    of each call. Returns the exit code and the arguments, in call order."""
    seen = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda first, *args, **kwargs: seen.append(first) or fn(first, *args, **kwargs))
    rc = cli.main(argv)
    monkeypatch.undo()
    return rc, seen


def hashed_during(monkeypatch, argv):
    """Run a command and return the paths that `matio.sha256_file` hashed."""
    return args_during(monkeypatch, matio, "sha256_file", argv)


def parsed_during(monkeypatch, argv):
    """Run a command and return the paths that it parsed a mesh from
    (`cli.load_mesh`)."""
    return args_during(monkeypatch, cli, "load_mesh", argv)


def tree_bytes(root):
    """Every file under `root`, by relative path."""
    return {
        os.path.relpath(os.path.join(d, f), root): pathlib.Path(d, f).read_bytes()
        for d, _, files in os.walk(root) for f in files
    }


def listed_files(manifest):
    """Every file that a stage record of the manifest names."""
    listed = set()
    for entry in manifest["shapes"].values():
        listed.add(entry["mesh"])
        listed.update(entry["files"].values())
    for _, _, rel in manifest.get("fmn", {}).get("edges", []):
        listed.add(rel)
    if "latent" in manifest:
        listed.update(manifest["latent"]["Y"].values())
        listed.add(manifest["latent"]["lambda0"])
        for ext in manifest["latent"]["extended"].values():
            listed.add(ext["Y"])
            listed.update(ext["diffs"].values())
    for files in manifest.get("diffs", {}).get("files", {}).values():
        listed.update(files.values())
    return listed


def name_digest(rel):
    """The 64 hex digits of a sha256 that a tracked file's name carries
    between its stem and its extension; None when it carries none."""
    named = re.fullmatch(r".+\.([0-9a-f]{64})(\.[^.]*)?", os.path.basename(rel))
    return named[1] if named else None


def tracked(ws, rel):
    """The name under which the manifest of workspace `ws` lists `rel`'s
    content: `rel`'s stem, the 64 hex digits of the file's sha256 and `rel`'s
    extension; None when it lists no such file."""
    stem, ext = os.path.splitext(rel)
    pattern = re.compile(re.escape(stem) + r"\.[0-9a-f]{64}" + re.escape(ext))
    names = [name for name in listed_files(json.loads(pathlib.Path(ws, "manifest.json").read_text()))
             if pattern.fullmatch(name)]
    assert len(names) <= 1, names
    return names[0] if names else None
