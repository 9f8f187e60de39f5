import numpy as np
import pytest

from lskit.errors import DegenerateGeometry, IndexOutOfRange, MeshWarning, NonManifoldMesh, ParseError
from lskit.meshes import (
    Mesh,
    apply_rigid,
    load_mesh,
    permute_vertices,
    random_rotation,
    save_off,
    validate_mesh,
)
from lskit.synth import icosphere

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
