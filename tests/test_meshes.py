import re
import warnings

import numpy as np
import pytest

from lskit import meshes
from lskit.errors import DegenerateGeometry, IndexOutOfRange, MeshWarning, NonManifoldMesh, ParseError
from helpers import apply_rigid, grid_patch, permute_vertices, random_rotation
from lskit.meshes import (
    Mesh,
    load_mesh,
    save_off,
    validate_mesh,
)
from lskit.synth import chain_family, icosphere, perturbation_family, sphere_bump_family, two_cluster_family

TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def test_tetrahedron_off(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    mesh = load_mesh(path)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 4
    assert mesh.shape_id == "tetra"


def test_icosphere_subdivision_counts(tmp_path):
    # V_{s+1} = V_s + E_s from the midpoint construction: 12 -> 42 -> 162 -> 642
    v, t = icosphere(3)
    mesh = validate_mesh(v, t, "ico3")
    assert mesh.num_vertices == 642
    assert mesh.num_triangles == 1280
    path = tmp_path / "ico3.off"
    save_off(mesh, path)
    again = load_mesh(path)
    assert again.num_vertices == 642
    assert again.num_triangles == 1280
    np.testing.assert_array_equal(again.vertices, mesh.vertices)
    np.testing.assert_array_equal(again.triangles, mesh.triangles)


def test_save_off_writes_full_precision_text(tmp_path):
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0 / 3.0, 0.0], [-2.5e-05, 0.2, 0.1 + 0.2]])
    t = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    path = tmp_path / "tetra.off"
    save_off(Mesh(v, t, "tetra"), path)
    assert path.read_bytes() == (
        b"OFF\n4 4 0\n"
        b"0.0 0.0 0.0\n1.0 0.0 0.0\n0.0 0.3333333333333333 0.0\n-2.5e-05 0.2 0.30000000000000004\n"
        b"3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    )
    np.testing.assert_array_equal(load_mesh(path).vertices, v)


def test_face_index_out_of_range(tmp_path):
    lines = ["OFF", "100 1 0"] + ["0 0 %d" % i for i in range(100)] + ["3 0 1 9999"]
    path = tmp_path / "bad.off"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexOutOfRange):
        load_mesh(path)


def test_zero_area_triangle_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(DegenerateGeometry):
        validate_mesh(verts, np.array([[0, 1, 2]]))


def test_repeated_vertex_rejected():
    verts = np.eye(3)
    with pytest.raises(DegenerateGeometry):
        validate_mesh(verts, np.array([[0, 1, 1]]))


def test_non_manifold_edge_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])  # edge (0,1) in three faces
    with pytest.raises(NonManifoldMesh):
        validate_mesh(verts, tris)


def test_disconnected_mesh_warns():
    v1, t1 = icosphere(0)
    verts = np.vstack([v1, v1 + 5.0])
    tris = np.vstack([t1, t1 + len(v1)])
    with pytest.warns(MeshWarning, match="2 connected components"):
        validate_mesh(verts, tris)


def test_obj_roundtrip(tmp_path):
    obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"
    path = tmp_path / "tetra.obj"
    path.write_text(obj)
    mesh = load_mesh(path)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 4


def test_obj_slash_and_negative_indices(tmp_path):
    obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1/1 2/2 3/3\nf -3//1 -1//2 -2//3\n"
    path = tmp_path / "t.obj"
    path.write_text(obj)
    mesh = load_mesh(path)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [1, 3, 2]])


def test_ply_ascii(tmp_path):
    ply = (
        "ply\nformat ascii 1.0\nelement vertex 4\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 4\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    )
    path = tmp_path / "tetra.ply"
    path.write_text(ply)
    mesh = load_mesh(path)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 4


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n")
    with pytest.raises(ParseError):
        load_mesh(bad)
    unknown = tmp_path / "mesh.xyz"
    unknown.write_text("")
    with pytest.raises(ParseError):
        load_mesh(unknown)


POLYGONS = {
    "quad": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "pentagon": [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)],
}


def _polygon_file(fmt, corners):
    verts = "".join(f"{x} {y} 0\n" for x, y in corners)
    n = len(corners)
    if fmt == "off":
        return f"OFF\n{n} 1 0\n{verts}{n} {' '.join(map(str, range(n)))}\n"
    if fmt == "obj":
        face = " ".join(str(i + 1) for i in range(n))
        return "".join(f"v {x} {y} 0\n" for x, y in corners) + f"f {face}\n"
    header = (
        f"ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\nproperty float y\n"
        "property float z\nelement face 1\nproperty list uchar int vertex_indices\nend_header\n"
    )
    return f"{header}{verts}{n} {' '.join(map(str, range(n)))}\n"


@pytest.mark.parametrize("polygon", sorted(POLYGONS))
@pytest.mark.parametrize("fmt", ["off", "obj", "ply"])
def test_quad_faces_are_fanned(tmp_path, fmt, polygon):
    corners = POLYGONS[polygon]
    path = tmp_path / f"{polygon}.{fmt}"
    path.write_text(_polygon_file(fmt, corners))
    mesh = load_mesh(path)
    expected = [[0, a, a + 1] for a in range(1, len(corners) - 1)]
    assert mesh.triangles.tolist() == expected


def test_rigid_and_permutation_helpers():
    v, t = icosphere(1)
    mesh = validate_mesh(v, t, "ico")
    rng = np.random.default_rng(3)
    R = random_rotation(rng)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) > 0
    moved = apply_rigid(mesh, R, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(np.linalg.norm(np.diff(moved.vertices[t[0]], axis=0), axis=1),
                       np.linalg.norm(np.diff(mesh.vertices[t[0]], axis=0), axis=1))
    perm = rng.permutation(mesh.num_vertices)
    relabeled, pairs = permute_vertices(mesh, perm, "twin")
    # pairs map original vertex -> new vertex; positions must agree
    np.testing.assert_allclose(relabeled.vertices[pairs[:, 1]], mesh.vertices[pairs[:, 0]])
    # triangles describe the same surface once new labels are mapped back
    def edge_set(tris):
        return {tuple(sorted(e)) for tri in tris for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}
    back = perm[relabeled.triangles]  # new label -> original vertex
    assert edge_set(back) == edge_set(mesh.triangles)


# ---------------------------------------------------------------------------
# parser conformance: OFF and ASCII-PLY variants, exact error messages and
# bit-exact round trips

TETRA_VERTS = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
TETRA_TRIS = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]

# the unit quad 0-1-2-3 next to the triangle 1-4-2
MIXED_VERTS = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0]]
MIXED_TRIS = [[0, 1, 2], [0, 2, 3], [1, 4, 2]]


def _ply(vertex_props, vertex_lines, face_lines, header_extra=(), face_props=(), leading_face_props=()):
    nv, nf = (sum(1 for line in lines if line.strip()) for lines in (vertex_lines, face_lines))
    header = ["ply", "format ascii 1.0", *header_extra, f"element vertex {nv}"]
    header += [f"property float {name}" for name in vertex_props]
    header += [f"element face {nf}", *(f"property uchar {name}" for name in leading_face_props)]
    header += ["property list uchar int vertex_indices", *(f"property uchar {name}" for name in face_props)]
    return "\n".join(header + ["end_header", *vertex_lines, *face_lines]) + "\n"


def _load_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return load_mesh(path)


def _assert_mesh(mesh, verts, tris):
    np.testing.assert_array_equal(mesh.vertices, np.asarray(verts, dtype=np.float64))
    assert mesh.triangles.tolist() == tris


OFF_VARIANTS = {
    "comments-and-blank-lines": (
        "# tetrahedron\nOFF # magic\n\n4 4 6\n# vertices\n0 0 0\n\n1 0 0 # inline\n0 1 0\n"
        "0 0 1\n   \n# faces\n3 0 2 1\n3 0 1 3\n\n3 0 3 2\n3 1 2 3 # last\n# trailing\n"
    ),
    "one-line-header": "OFF 4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n",
    "headerless-counts-first": "4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n",
    "vertex-colours": (
        "OFF\n4 4 0\n0 0 0 255 0 0 255\n1 0 0 0 255 0 255\n0 1 0 0 0 255 255\n0 0 1 9 9 9 9\n"
        "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    ),
    "ragged-vertex-colours": (
        "OFF\n4 4 0\n0 0 0 255 0 0\n1 0 0\n0 1 0 0.5\n0 0 1\n3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    ),
    "face-colours": (
        "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "3 0 2 1 255 0 0\n3 0 1 3 0 255 0\n3 0 3 2 0 0 255\n3 1 2 3 7 7 7\n"
    ),
    "ragged-face-colours": "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1 255\n3 0 1 3\n3 0 3 2 1 2\n3 1 2 3\n",
}


@pytest.mark.parametrize("variant", sorted(OFF_VARIANTS))
def test_off_variants(tmp_path, variant):
    mesh = _load_text(tmp_path, "tetra.off", OFF_VARIANTS[variant])
    _assert_mesh(mesh, TETRA_VERTS, TETRA_TRIS)


PLY_VERTS = [" ".join(map(str, v)) for v in TETRA_VERTS]
PLY_FACES = ["3 " + " ".join(map(str, t)) for t in TETRA_TRIS]
PLY_VARIANTS = {
    "comments-and-blank-lines": _ply("xyz", ["", *PLY_VERTS[:2], "  ", *PLY_VERTS[2:], ""], [*PLY_FACES, ""],
                                     header_extra=("comment made by hand", "", "comment second")),
    "vertex-colours": _ply(["x", "y", "z", "red", "green", "blue"], [v + " 255 128 0" for v in PLY_VERTS], PLY_FACES),
    "xyz-not-first": _ply(["confidence", "x", "y", "z", "intensity"], ["0.5 " + v + " 3" for v in PLY_VERTS], PLY_FACES),
    "xyz-out-of-order": _ply(["z", "x", "y"], [f"{z} {x} {y}" for x, y, z in TETRA_VERTS], PLY_FACES),
    "face-colours": _ply("xyz", PLY_VERTS, [f + " 255 0 0" for f in PLY_FACES], face_props=("red", "green", "blue")),
}


@pytest.mark.parametrize("variant", sorted(PLY_VARIANTS))
def test_ply_variants(tmp_path, variant):
    mesh = _load_text(tmp_path, "tetra.ply", PLY_VARIANTS[variant])
    _assert_mesh(mesh, TETRA_VERTS, TETRA_TRIS)


MIXED_FACES = {
    "ragged": ["4 0 1 2 3", "3 1 4 2"],
    "rectangular-with-colour": ["4 0 1 2 3", "3 1 4 2 200"],
    "triangle-first": ["3 1 4 2", "4 0 1 2 3"],
}


@pytest.mark.parametrize("faces", sorted(MIXED_FACES))
@pytest.mark.parametrize("fmt", ["off", "ply"])
def test_mixed_triangle_and_polygon_faces(tmp_path, fmt, faces):
    records = MIXED_FACES[faces]
    verts = [" ".join(map(str, v)) for v in MIXED_VERTS]
    if fmt == "off":
        text = "\n".join(["OFF", f"{len(verts)} {len(records)} 0", *verts, *records]) + "\n"
    else:
        text = _ply("xyz", verts, records)
    mesh = _load_text(tmp_path, f"mixed.{fmt}", text)
    expected = MIXED_TRIS if records[0].startswith("4") else [MIXED_TRIS[2], *MIXED_TRIS[:2]]
    _assert_mesh(mesh, MIXED_VERTS, expected)


@pytest.mark.parametrize("flags", [7, 3])  # 3 also reads as a corner count
@pytest.mark.parametrize("where", ["before", "after"])
@pytest.mark.parametrize("faces", ["triangles", "mixed"])  # one block read, per-line fan
def test_ply_face_scalar_beside_the_index_list(tmp_path, faces, where, flags):
    verts, records, tris = {
        "triangles": (TETRA_VERTS, PLY_FACES, TETRA_TRIS),
        "mixed": (MIXED_VERTS, MIXED_FACES["ragged"], MIXED_TRIS),
    }[faces]
    records = [f"{flags} {r}" if where == "before" else f"{r} {flags}" for r in records]
    props = {"leading_face_props" if where == "before" else "face_props": ("flags",)}
    text = _ply("xyz", [" ".join(map(str, v)) for v in verts], records, **props)
    _assert_mesh(_load_text(tmp_path, "flags.ply", text), verts, tris)



def test_ply_face_element_without_index_list(tmp_path):
    text = _ply("xyz", PLY_VERTS, PLY_FACES).replace("property list uchar int vertex_indices\n", "")
    with pytest.raises(ParseError, match="lacks vertex x/y/z properties or a face index list"):
        _load_text(tmp_path, "bad.ply", text)


TETRA_BODY = ["0 0 0", "1 0 0", "0 1 0", "0 0 1", "3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]
OFF_ERRORS = {
    "truncated at vertex": (TETRA_BODY[:2], "OFF file truncated at vertex 2"),
    "truncated at face": (TETRA_BODY[:6], "OFF file truncated at face 2"),
    "short vertex line": (TETRA_BODY[:1] + ["1 0"] + TETRA_BODY[2:], "vertex line 1 has 2 fields"),
    "short vertex line before truncation": (TETRA_BODY[:1] + ["1"], "vertex line 1 has 1 fields"),
    "face count below three": (TETRA_BODY[:5] + ["2 0 1"] + TETRA_BODY[6:], "face line malformed: '2 0 1'"),
    "face with missing corners": (TETRA_BODY[:7] + ["4 1 2 3"], "face line malformed: '4 1 2 3'"),
}


@pytest.mark.parametrize("case", sorted(OFF_ERRORS))
def test_off_parse_error_messages(tmp_path, case):
    body, message = OFF_ERRORS[case]
    path = tmp_path / "bad.off"
    path.write_text("\n".join(["OFF", "4 4 0", *body]) + "\n")
    with pytest.raises(ParseError, match=re.escape(message)):
        load_mesh(path)


PLY_ERRORS = {
    "truncated face element": (PLY_VERTS, PLY_FACES[:3], 4, "PLY body truncated in element 'face'"),
    "truncated vertex element": (PLY_VERTS[:2], [], 4, "PLY body truncated in element 'vertex'"),
    "face count below three": (PLY_VERTS, PLY_FACES[:3] + ["2 1 2"], 4, "face line malformed: '2 1 2'"),
    "face with missing corners": (PLY_VERTS, ["5 0 1 2 3"] + PLY_FACES[1:], 4, "face line malformed: '5 0 1 2 3'"),
}


@pytest.mark.parametrize("case", sorted(PLY_ERRORS))
def test_ply_parse_error_messages(tmp_path, case):
    verts, faces, nf, message = PLY_ERRORS[case]
    text = _ply("xyz", verts, faces).replace(f"element vertex {len(verts)}", "element vertex 4")
    text = text.replace(f"element face {len(faces)}", f"element face {nf}")
    path = tmp_path / "bad.ply"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(message)):
        load_mesh(path)


@pytest.mark.parametrize("token", ["1.5", "x"])
def test_non_numeric_face_index_is_parse_error(tmp_path, token):
    path = tmp_path / "bad.off"
    path.write_text("\n".join(["OFF", "4 4 0", *TETRA_BODY[:5], f"3 0 1 {token}", *TETRA_BODY[6:]]) + "\n")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        load_mesh(path)


@pytest.mark.parametrize("name, text", [
    ("negative.off", "OFF\n4 -1 0\n" + "\n".join(TETRA_BODY) + "\n"),
    ("negative.ply", _ply("xyz", PLY_VERTS, PLY_FACES).replace("element face 4", "element face -1")),
    ("overflow.off", "OFF\n4 4 0\n" + "\n".join(TETRA_BODY[:7] + ["3 1 2 99999999999999999999"]) + "\n"),
], ids=["negative-off-face-count", "negative-ply-face-count", "index-overflows-int64"])
def test_bad_counts_and_indices_are_parse_errors(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError):
        load_mesh(path)


def test_subdivision5_round_trip_is_bit_exact(tmp_path):
    member = two_cluster_family(n_per_cluster=2, subdivisions=5, seed=7331, intra_spread=1.2).meshes[0]
    assert member.num_vertices == 10242
    path = tmp_path / f"{member.shape_id}.off"
    save_off(member, path)
    again = load_mesh(path)
    assert again.vertices.dtype == np.float64 and again.triangles.dtype == np.int64
    np.testing.assert_array_equal(again.vertices.view(np.int64), member.vertices.view(np.int64))
    np.testing.assert_array_equal(again.triangles, member.triangles)


@pytest.mark.parametrize("fmt", ["off", "ply"])
def test_block_read_matches_the_per_line_parse(tmp_path, monkeypatch, fmt):
    # the per-line parse, which ragged files take, is the reference
    v, t = icosphere(3)
    t = np.vstack([t[:600], t[600:][:, [1, 2, 0]]])
    path = tmp_path / f"ico.{fmt}"
    if fmt == "off":
        save_off(Mesh(v, t), path)
    else:
        path.write_text(_ply("xyz", [f"{x!r} {y!r} {z!r}" for x, y, z in v.tolist()],
                             [f"3 {a} {b} {c}" for a, b, c in t.tolist()]))
    block = load_mesh(path)
    monkeypatch.setattr(meshes, "_block", lambda *args: None)
    per_line = load_mesh(path)
    np.testing.assert_array_equal(block.vertices.view(np.int64), per_line.vertices.view(np.int64))
    np.testing.assert_array_equal(block.triangles, per_line.triangles)
    np.testing.assert_array_equal(block.triangles, t)


def test_float_face_index_is_a_parse_error_when_numpy_only_warns(tmp_path, monkeypatch):
    # numpy before 2.0 reads "2.7" into an int dtype as 2, with a DeprecationWarning
    real_loadtxt = np.loadtxt

    def lenient_loadtxt(lines, dtype=float, **kwargs):
        if np.dtype(dtype).kind == "i" and any("." in line for line in lines):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            lines = [" ".join(str(int(float(x))) for x in line.split()) for line in lines]
        return real_loadtxt(lines, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    path = tmp_path / "tetra.off"
    path.write_text("\n".join(["OFF", "4 4 0", *TETRA_BODY[:7], "3 1 2 3.7"]) + "\n")
    with pytest.raises(ParseError, match="3.7"):
        load_mesh(path)


FAMILIES = {
    "sphere-bump": lambda: sphere_bump_family(subdivisions=2).meshes,
    "chain": lambda: chain_family(count=3, subdivisions=1).meshes,
    "perturbation": lambda: perturbation_family(count=2, subdivisions=2).meshes,
    "two-cluster": lambda: two_cluster_family(n_per_cluster=2, subdivisions=3).meshes,
    "grid": lambda: [grid_patch(5)],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_round_trips_are_bit_exact(tmp_path, family):
    for member in FAMILIES[family]():
        path = tmp_path / "member.off"
        save_off(member, path)
        again = load_mesh(path)
        np.testing.assert_array_equal(again.vertices.view(np.int64), member.vertices.view(np.int64))
        np.testing.assert_array_equal(again.triangles, member.triangles)


# ---------------------------------------------------------------------------
# edge multiplicity check


def _book(hinge, flips):
    """Three triangles sharing the edge `hinge` (vertices 0..4); triangle i
    lists the edge reversed when flips[i]."""
    p, q = hinge
    pages = [i for i in range(5) if i not in hinge]
    verts = np.empty((5, 3))
    verts[p], verts[q] = (0, 0, 0), (0, 0, 1)
    verts[pages] = [[1, 0, 0], [0, 1, 0], [-1, -1, 0]]
    return verts, np.array([[q, p, r] if flip else [p, q, r] for r, flip in zip(pages, flips)])


@pytest.mark.parametrize("hinge, flips", [
    ((1, 4), (False, True, False)),  # touches the largest index
    ((4, 2), (True, False, True)),
    ((0, 4), (False, True, True)),  # smallest and largest index
    ((1, 2), (True, True, False)),
])
def test_non_manifold_edge_found_in_any_orientation(hinge, flips):
    with pytest.raises(NonManifoldMesh):
        validate_mesh(*_book(hinge, flips))


@pytest.mark.parametrize("seed", range(4))
def test_closed_manifold_passes_under_any_labelling(seed):
    v, t = icosphere(2)
    mesh, _ = permute_vertices(validate_mesh(v, t), np.random.default_rng(seed).permutation(len(v)))
    validate_mesh(mesh.vertices, mesh.triangles)
