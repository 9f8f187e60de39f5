"""Deterministic desk-scale test families: deformed icospheres with smooth
bumps, cyclic chain-of-frames sequences, and paired two-cluster collections.

Every family shares exact connectivity (identity vertex correspondence across
members) and ships its ground truth (regions, labels, pairing) alongside the
meshes; ground truth is consumed only by tests and evaluation, never by the
algorithms themselves.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .fmaps import correspondence_text, identity_correspondence
from .meshes import Mesh, save_off

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def icosphere(subdivisions=3):
    """Unit icosphere: icosahedron with each face 4-split `subdivisions` times.

    Vertex counts follow V_{s+1} = V_s + E_s: 12, 42, 162, 642, ...

    Numbering: a level's new vertices follow the old ones, one per edge, in
    the order in which the edges are first met when the faces are visited in
    order, each face (a, b, c) by its sides (a, b), (b, c), (c, a). Face
    (a, b, c), with midpoints ab, bc, ca, becomes (a, ab, ca), (b, bc, ab),
    (c, ca, bc), (ab, bc, ca).

    A midpoint is the sum of its edge's ends divided by its norm, and that
    norm is sqrt of the row's dot product with itself, as `np.linalg.norm`
    gives for one row. The whole level's norms go through a stacked
    (1, 3) @ (3, 1) `np.matmul`, which takes the same dot product for each
    row; `(m * m).sum(axis=1)`, `np.linalg.norm(m, axis=1)` and `einsum` sum
    in another order and change the last bit of about one row in five.
    """
    if subdivisions < 0:
        raise InvalidArgument(f"subdivisions must be >= 0, got {subdivisions}")
    t = GOLDEN
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        n = len(verts)
        sides = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)  # (a, b), (b, c), (c, a) of each face in turn
        lo, hi = sides.min(axis=1), sides.max(axis=1)
        _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the unique edges in order of first visit
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ends = first[order]
        mids = verts[lo[ends]] + verts[hi[ends]]
        mids /= np.sqrt(np.matmul(mids[:, None, :], mids[:, :, None]))[:, 0]
        verts = np.concatenate((verts, mids))
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.array([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]).transpose(2, 0, 1).reshape(-1, 3)
    return verts, faces


@dataclass(frozen=True)
class BumpSpec:
    """Radial C2 bump on the unit sphere: support is the spherical cap of
    angular radius `radius` around `direction`; peak displacement `height`."""

    direction: tuple
    radius: float
    height: float


def _smoothstep(t):
    # quintic: zero first and second derivatives at both ends
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def apply_bumps(unit_verts, bumps):
    """Displace unit-sphere vertices radially by the summed bump profiles."""
    verts = unit_verts
    scale = np.ones(verts.shape[0])
    for bump in bumps:
        if bump.height == 0.0:
            continue
        d = np.asarray(bump.direction, dtype=np.float64)
        d = d / np.linalg.norm(d)
        ang = np.arccos(np.clip(verts @ d, -1.0, 1.0))
        scale = scale + bump.height * _smoothstep(1.0 - ang / bump.radius)
    return verts * scale[:, None]


def bump_region(unit_verts, direction, radius):
    """Vertex indices inside the spherical cap supporting a bump."""
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    ang = np.arccos(np.clip(unit_verts @ d, -1.0, 1.0))
    return np.nonzero(ang <= radius)[0]


@dataclass(frozen=True)
class FamilySpec:
    """Reproducible recipe for one generated family. Same spec (including
    seed) regenerates bit-identical meshes."""

    base: str  # "icosphere:<subdiv>", the one base `realize` builds
    bumps_per_shape: tuple  # tuple of tuples of BumpSpec
    seed: int = 0
    shape_ids: tuple = ()
    axes: tuple = (1.0, 1.0, 1.0)  # anisotropic stretch applied after bumps

    @property
    def count(self):
        return len(self.bumps_per_shape)


def realize(spec: FamilySpec):
    """Generate the meshes described by a FamilySpec."""
    kind, _, arg = spec.base.partition(":")
    if kind != "icosphere":
        raise InvalidArgument(f"unsupported family base {spec.base!r}")
    unit, tris = icosphere(int(arg))
    axes = np.asarray(spec.axes, dtype=np.float64)
    meshes = []
    for idx, bumps in enumerate(spec.bumps_per_shape):
        sid = spec.shape_ids[idx] if spec.shape_ids else f"shape{idx:03d}"
        meshes.append(Mesh(apply_bumps(unit, bumps) * axes, tris, sid))
    return meshes


HORIZONTAL_DIR = (1.0, 0.0, 0.0)
VERTICAL_DIR = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SphereBumpFamily:
    meshes: list
    horizontal_region: np.ndarray  # support of the globally-varying bump
    vertical_region: np.ndarray  # support of the cluster-distinguishing bump
    cluster_a: tuple
    cluster_b: tuple
    spec: FamilySpec = field(repr=False, default=None)


def sphere_bump_family(
    horizontal_height=0.5,
    vertical_heights=(0.25, 0.0),
    n_per_cluster=2,
    subdivisions=3,
    bump_radius=0.7,
    seed=0,
):
    """Two clusters of bumped icospheres with shared connectivity.

    The horizontal bump (+x) height sweeps 0..horizontal_height identically
    inside each cluster, so it varies across the whole collection but carries
    no cluster signal. The vertical bump (+z) height is constant per cluster,
    one value per entry of `vertical_heights`, so it is what separates the
    clusters. Identity correspondences are exact by construction.
    """
    if len(vertical_heights) != 2:
        raise InvalidArgument("vertical_heights must hold one height per cluster")
    if horizontal_height < 0 or any(h < 0 for h in vertical_heights):
        raise InvalidArgument("bump heights must be nonnegative")
    sweep = np.linspace(0.0, horizontal_height, n_per_cluster)
    bumps, ids, clusters = [], [], ([], [])
    for c, vh in enumerate(vertical_heights):
        for s in range(n_per_cluster):
            sid = f"{'ab'[c]}{s}"
            ids.append(sid)
            clusters[c].append(sid)
            shape_bumps = [BumpSpec(HORIZONTAL_DIR, bump_radius, float(sweep[s]))]
            if vh:
                shape_bumps.append(BumpSpec(VERTICAL_DIR, bump_radius, float(vh)))
            bumps.append(tuple(shape_bumps))
    spec = FamilySpec(f"icosphere:{subdivisions}", tuple(bumps), seed, tuple(ids))
    meshes = realize(spec)
    unit, _ = icosphere(subdivisions)
    return SphereBumpFamily(
        meshes,
        bump_region(unit, HORIZONTAL_DIR, bump_radius),
        bump_region(unit, VERTICAL_DIR, bump_radius),
        tuple(clusters[0]),
        tuple(clusters[1]),
        spec,
    )


@dataclass(frozen=True)
class ChainFamily:
    meshes: list
    cycle: bool
    parameters: np.ndarray  # per-frame (h_x, h_z) bump heights
    spec: FamilySpec = field(repr=False, default=None)


def chain_family(count=23, cycle=True, subdivisions=2, base_height=0.3, bump_radius=0.7, seed=0):
    """Frame sequence whose deformation parameter traverses a closed loop.

    A single scalar parameter swept sinusoidally retraces the same curve twice
    and cannot produce a simple closed loop, so the cyclic variant drives two
    bumps in quadrature: h_x = b(1 + 0.5 sin theta), h_z = b(1 + 0.5 cos theta)
    with theta = 2 pi f / count. The non-cyclic variant ramps one bump
    monotonically. Consecutive-frame correspondences are the identity.
    """
    if count < 3:
        raise InvalidArgument("count must be >= 3")
    f = np.arange(count)
    if cycle:
        theta = 2.0 * np.pi * f / count
        hx = base_height * (1.0 + 0.5 * np.sin(theta))
        hz = base_height * (1.0 + 0.5 * np.cos(theta))
    else:
        hx = base_height * (1.0 + f / (count - 1))
        hz = np.zeros(count)
    bumps = tuple(
        (
            BumpSpec(HORIZONTAL_DIR, bump_radius, float(hx[i])),
            BumpSpec(VERTICAL_DIR, bump_radius, float(hz[i])),
        )
        for i in range(count)
    )
    ids = tuple(f"frame{i:02d}" for i in range(count))
    spec = FamilySpec(f"icosphere:{subdivisions}", bumps, seed, ids)
    return ChainFamily(realize(spec), cycle, np.stack([hx, hz], axis=1), spec)


@dataclass(frozen=True)
class PerturbationFamily:
    meshes: list
    heights: np.ndarray  # graded bump height per shape
    spec: FamilySpec = field(repr=False, default=None)


def perturbation_family(seed=0, count=5, spread=0.2, subdivisions=2, axes=(1.0, 0.8, 0.62)):
    """Graded perturbations of one asymmetric base shape.

    All members share a single bump direction (seeded) whose height sweeps
    spread * [0.5, 1.5]; the anisotropic stretch removes the sphere's
    eigenvalue degeneracies so spectral quantities vary smoothly along the
    family. Intended for basis-stability experiments where one member is
    treated as an extra shape.
    """
    if count < 2:
        raise InvalidArgument("count must be >= 2")
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    radius = 0.55 + 0.25 * rng.random()
    heights = spread * np.linspace(0.5, 1.5, count)
    bumps = tuple((BumpSpec(tuple(d), float(radius), float(h)),) for h in heights)
    ids = tuple(f"s{i}" for i in range(count))
    spec = FamilySpec(f"icosphere:{subdivisions}", bumps, seed, ids, tuple(axes))
    return PerturbationFamily(realize(spec), heights, spec)


INTRA_DIR = (0.0, 1.0, 0.0)
CLUSTER_DIR = (-1.0, 0.0, 0.0)


@dataclass(frozen=True)
class TwoClusterFamily:
    meshes: list
    labels: tuple  # 0 for cluster a, 1 for cluster b, aligned with meshes
    pairing: tuple  # (id in a, id in b) ground-truth pairs
    spec: FamilySpec = field(repr=False, default=None)

    def cluster_ids(self, label):
        return tuple(m.shape_id for m, lb in zip(self.meshes, self.labels) if lb == label)


def two_cluster_family(n_per_cluster=3, intra_spread=0.15, inter_gap=0.4, seed=0, subdivisions=2, bump_radius=0.7):
    """Two shape clusters paired one-to-one by a shared within-cluster pose.

    Member i of either cluster carries the same "pose" bump (+y, height drawn
    once per pair from the seeded rng, spread intra_spread); cluster b
    additionally carries a fixed cluster bump (-x, height inter_gap). With
    inter_gap = 0 the paired meshes are identical.
    """
    if n_per_cluster < 2:
        raise InvalidArgument("n_per_cluster must be >= 2")
    rng = np.random.default_rng(seed)
    # pose levels stay well separated after jitter (jitter < 20% of spacing each way)
    levels = np.linspace(0.35, 1.0, n_per_cluster)
    jitter = rng.uniform(-0.5, 0.5, n_per_cluster) * (levels[1] - levels[0]) * 0.4
    pose_heights = intra_spread * (levels + jitter) if intra_spread > 0 else np.zeros(n_per_cluster)

    bumps, ids, labels = [], [], []
    for c in range(2):
        for s in range(n_per_cluster):
            sid = f"{'ab'[c]}{s}"
            ids.append(sid)
            labels.append(c)
            shape_bumps = []
            if pose_heights[s]:
                shape_bumps.append(BumpSpec(INTRA_DIR, bump_radius, float(pose_heights[s])))
            if c == 1 and inter_gap:
                shape_bumps.append(BumpSpec(CLUSTER_DIR, bump_radius, float(inter_gap)))
            bumps.append(tuple(shape_bumps))
    spec = FamilySpec(f"icosphere:{subdivisions}", tuple(bumps), seed, tuple(ids))
    pairing = tuple((f"a{s}", f"b{s}") for s in range(n_per_cluster))
    return TwoClusterFamily(realize(spec), tuple(labels), pairing, spec)


# ---------------------------------------------------------------------------
# directory export consumed by the CLI


def write_family(meshes, outdir, ground_truth=None):
    """Write OFF meshes plus a JSON ground-truth sidecar into a directory."""
    os.makedirs(outdir, exist_ok=True)
    for mesh in meshes:
        save_off(mesh, os.path.join(outdir, f"{mesh.shape_id}.off"))
    if ground_truth is not None:
        path = os.path.join(outdir, "ground_truth.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ground_truth, fh, indent=2, sort_keys=True)


def write_identity_correspondences(meshes, pairs, directory):
    """Write `src tgt` identity correspondence files for the given shape-id
    pairs (both directions), as consumed by `fmn --maps correspondence`.

    Valid because every generated family shares exact connectivity.
    """
    os.makedirs(directory, exist_ok=True)
    by_id = {m.shape_id: m for m in meshes}
    size = None
    for a, b in pairs:
        if by_id[a].num_vertices != by_id[b].num_vertices:
            raise InvalidArgument(f"shapes {a!r} and {b!r} do not share connectivity")
        n = by_id[a].num_vertices
        if n != size:
            text, size = correspondence_text(identity_correspondence(n)), n
        for src, tgt in ((a, b), (b, a)):
            with open(os.path.join(directory, f"{src}__{tgt}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)


def family_pairs(ground_truth):
    """Shape-id pairs a family's natural topology needs maps for."""
    kind = ground_truth["family"]
    if kind == "chain":
        order = ground_truth["order"]
        return list(zip(order[:-1], order[1:]))
    if kind == "sphere_bump":
        ids = sorted(
            ground_truth["partition"]["cluster_a"] + ground_truth["partition"]["cluster_b"]
        )
        return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    if kind == "two_cluster":  # any cross pair can be a nearest-neighbor link
        clusters = [sorted(ground_truth["partition"][name]) for name in ("cluster_a", "cluster_b")]
        pairs = [(a, b) for ids in clusters for i, a in enumerate(ids) for b in ids[i + 1 :]]
        return pairs + [(a, b) for a in clusters[0] for b in clusters[1]]
    raise InvalidArgument(f"unknown family kind {kind!r}")


def sphere_bump_ground_truth(family: SphereBumpFamily):
    return {
        "family": "sphere_bump",
        "shared_connectivity": True,
        "horizontal_region": family.horizontal_region.tolist(),
        "vertical_region": family.vertical_region.tolist(),
        "partition": {"cluster_a": list(family.cluster_a), "cluster_b": list(family.cluster_b)},
    }


def chain_ground_truth(family: ChainFamily):
    return {
        "family": "chain",
        "shared_connectivity": True,
        "cycle": family.cycle,
        "order": [m.shape_id for m in family.meshes],
        "parameters": family.parameters.tolist(),
    }


def two_cluster_ground_truth(family: TwoClusterFamily):
    return {
        "family": "two_cluster",
        "shared_connectivity": True,
        "labels": {m.shape_id: int(lb) for m, lb in zip(family.meshes, family.labels)},
        "pairing": [list(p) for p in family.pairing],
        "partition": {
            "cluster_a": list(family.cluster_ids(0)),
            "cluster_b": list(family.cluster_ids(1)),
        },
    }
