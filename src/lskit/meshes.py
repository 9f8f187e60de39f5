"""Triangle mesh container, file loaders (OFF / OBJ / ASCII-PLY) and validation.

All loaders return a validated :class:`Mesh`: indices in range, no zero-area
triangles, manifold edges. Connectivity is checked and reported as a
:class:`~lskit.errors.MeshWarning` rather than an error. A workspace keeps
each member's mesh as a binary copy (`copy_bytes`, extension `COPY_EXT`):
the validated arrays that its spectra were solved from, which `load_mesh`
reads back without a text parse. A copy is not a source format, so
`_PARSERS` leaves it out.
"""

import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateGeometry, IndexOutOfRange, MeshWarning, NonManifoldMesh, ParseError

AREA_EPS = 1e-14
COPY_EXT = ".lskmesh"
_COPY_HEADER = struct.Struct("<8sQQ")  # magic, vertex count, triangle count; then <f8 vertices, <i8 triangles
_COPY_MAGIC = b"LSKMSH01"


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh.

    vertices : (n, 3) float64 positions
    triangles : (m, 3) int64 vertex indices
    shape_id : stable string identifier used throughout the pipeline
    """

    vertices: np.ndarray
    triangles: np.ndarray
    shape_id: str = field(default="")

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]


def triangle_areas(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - p0
    e2 = vertices[triangles[:, 2]] - p0
    return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)


def _edge_keys(triangles, n):
    """The sorted keys lo * n + hi of the triangles' undirected edges, one per
    triangle side (unique per edge while every index is < n)."""
    a = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 2]])
    b = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 0]])
    return np.sort(np.minimum(a, b) * n + np.maximum(a, b))


def validate_mesh(vertices, triangles, shape_id=""):
    """Build a Mesh after checking indices, degeneracy and manifoldness.

    Raises IndexOutOfRange / DegenerateGeometry / NonManifoldMesh; emits a
    MeshWarning when the mesh is not a single connected component.
    """
    v = np.ascontiguousarray(vertices, dtype=np.float64)
    t = np.ascontiguousarray(triangles, dtype=np.int64)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ParseError(f"vertex array must be (n, 3), got {v.shape}")
    if t.ndim != 2 or t.shape[1] != 3:
        raise ParseError(f"triangle array must be (m, 3), got {t.shape}")
    if not np.all(np.isfinite(v)):
        raise ParseError("non-finite vertex coordinate")
    if t.size:
        if t.min() < 0 or t.max() >= v.shape[0]:
            bad = int(t.max() if t.max() >= v.shape[0] else t.min())
            raise IndexOutOfRange(f"face index {bad} out of range for {v.shape[0]} vertices")
        if np.any(t[:, 0] == t[:, 1]) or np.any(t[:, 1] == t[:, 2]) or np.any(t[:, 2] == t[:, 0]):
            raise DegenerateGeometry("triangle with a repeated vertex")
        areas = triangle_areas(v, t)
        scale = float(np.max(areas)) if areas.size else 1.0
        small = np.nonzero(areas <= AREA_EPS * max(scale, 1.0))[0]
        if small.size:
            raise DegenerateGeometry(f"zero-area triangle(s): {small[:8].tolist()}")
    n = v.shape[0]
    keys = _edge_keys(t, n)
    if np.any(keys[2:] == keys[:-2]):  # sorted: an edge of three triangles has equal keys two apart
        raise NonManifoldMesh("edge shared by more than two triangles")
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    lo, hi = np.divmod(keys[first], n)
    ncomp, _ = connected_components(coo_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n)), directed=False)
    if ncomp != 1:
        warnings.warn(
            f"mesh '{shape_id}' has {ncomp} connected components", MeshWarning, stacklevel=2
        )
    return Mesh(v, t, shape_id)


# ---------------------------------------------------------------------------
# parsers


def _data_lines(text):
    """The lines of text without `#` comments, surrounding blanks or blank lines."""
    if "#" not in text:  # no comment to split off any line
        return list(filter(None, map(str.strip, text.splitlines())))
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def _fan(tris, corners, line, count=None):
    """Append the fan triangulation (c0, ca, ca+1) of one polygon face to tris.

    OFF and PLY face records give the corner `count` just before the corners;
    values after the corners (per-face colors) are ignored.
    """
    count = len(corners) if count is None else count
    if count < 3 or len(corners) < count:
        raise ParseError(f"face line malformed: {line!r}")
    tris.extend((corners[0], corners[a], corners[a + 1]) for a in range(1, count - 1))


def _block(lines, dtype, usecols=None):
    """Whitespace-separated numbers of all lines as one 2-D array, or None
    when the lines are ragged or hold a token numpy does not take.

    numpy takes a subset of what float() and int() take and gives the same
    values, so on None the caller's per-line parse gives the same result,
    or names the line at fault. numpy before 2.0 reads a float token such
    as "2.7" into an int dtype with only a DeprecationWarning; that warning
    is made an error here so such a line still reaches the per-line parse.
    """
    if not lines:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=dtype, usecols=usecols, comments=None, ndmin=2)
    except (ValueError, OverflowError, DeprecationWarning):
        return None


def _read_vertices(lines, cols=(0, 1, 2)):
    """(n, 3) positions from columns `cols` of the vertex records."""
    verts = _block(lines, np.float64, cols)
    if verts is None:
        verts = np.empty((len(lines), 3))
        for i, line in enumerate(lines):
            vals = line.split()
            if len(vals) <= max(cols):
                raise ParseError(f"vertex line {i} has {len(vals)} fields")
            verts[i] = [float(vals[c]) for c in cols]
    return verts


def _read_faces(lines, col=0):
    """(m, 3) triangles from face records holding `count i j k ...` from
    column `col` on (OFF: 0; PLY: the index list's place among the face
    properties); one block read when every face is a triangle, polygons
    fanned by _fan."""
    block = _block(lines, np.int64)
    if block is not None and block.shape[1] >= col + 4 and np.all(block[:, col] == 3):
        return np.ascontiguousarray(block[:, col + 1 : col + 4])
    tris = []
    for line in lines:
        vals = line.split()[col:]
        count = int(vals[0]) if vals else 0
        _fan(tris, [int(x) for x in vals[1 : count + 1]], line, count)
    return np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def _parse_off(text):
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty OFF file")
    body = 1
    if lines[0].startswith("OFF"):
        header = lines[0][3:].split()
        if not header:  # counts on the line after the magic
            header = lines[1].split() if len(lines) > 1 else []
            body = 2
    else:
        header = lines[0].split()  # headerless variant: counts on the first line
    if len(header) < 2:
        raise ParseError("OFF header must contain vertex and face counts")
    try:
        nv, nf = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad OFF counts: {header}") from exc
    if nv < 0 or nf < 0:
        raise ParseError(f"bad OFF counts: {header}")
    verts = _read_vertices(lines[body : body + nv])
    if len(verts) < nv:
        raise ParseError(f"OFF file truncated at vertex {len(verts)}")
    face_lines = lines[body + nv : body + nv + nf]
    tris = _read_faces(face_lines)
    if len(face_lines) < nf:
        raise ParseError(f"OFF file truncated at face {len(face_lines)}")
    return verts, tris


def _obj_index(token, nv):
    idx = int(token.split("/", 1)[0])
    if idx < 0:
        idx = nv + idx
    else:
        idx -= 1
    return idx


def _parse_obj(text):
    verts, tris = [], []
    for line in _data_lines(text):
        fields = line.split()
        if fields[0] == "v":
            if len(fields) < 4:
                raise ParseError(f"OBJ vertex line too short: {line!r}")
            verts.append([float(fields[1]), float(fields[2]), float(fields[3])])
        elif fields[0] == "f":
            _fan(tris, [_obj_index(tok, len(verts)) for tok in fields[1:]], line)
    if not verts:
        raise ParseError("OBJ file contains no vertices")
    return np.asarray(verts, dtype=np.float64), np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def _parse_ply(text):
    lines = iter(text.splitlines())
    if next(lines, "").strip() != "ply":
        raise ParseError("missing 'ply' magic line")
    fmt = next(lines, "").strip()
    if not fmt.startswith("format ascii"):
        raise ParseError("only ASCII PLY is supported")
    counts = {}
    order = []
    props = {}  # element -> property names, "list" for a list property
    current = None
    for line in lines:
        line = line.strip()
        if line.startswith("comment") or not line:
            continue
        if line == "end_header":
            break
        fields = line.split()
        if fields[0] == "element":
            current = fields[1]
            counts[current] = int(fields[2])
            order.append(current)
            props[current] = []
        elif fields[0] == "property" and current is not None:
            props[current].append("list" if fields[1] == "list" else fields[-1])
    else:
        raise ParseError("PLY header not terminated by end_header")
    if "vertex" not in counts or "face" not in counts:
        raise ParseError("PLY header must declare vertex and face elements")
    if min(counts.values()) < 0:
        raise ParseError(f"negative PLY element count: {counts}")
    try:
        cols = [props["vertex"].index(c) for c in ("x", "y", "z")]
        face_col = props["face"].index("list")
    except ValueError as exc:
        raise ParseError("PLY header lacks vertex x/y/z properties or a face index list") from exc

    body = [line for line in map(str.strip, lines) if line]
    pos = 0
    for elem in order:
        n = counts[elem]
        if pos + n > len(body):
            raise ParseError(f"PLY body truncated in element '{elem}'")
        chunk = body[pos : pos + n]
        pos += n
        if elem == "vertex":
            verts = _read_vertices(chunk, cols)
        elif elem == "face":
            tris = _read_faces(chunk, face_col)
    return verts, tris


def _read_copy(data):
    """The vertices and triangles of a mesh copy's bytes, each a writable array of its own, as the parsers give."""
    if len(data) < _COPY_HEADER.size or data[:8] != _COPY_MAGIC:
        raise ValueError(f"not a mesh copy: bad magic {data[:8]!r}")
    _, nv, nt = _COPY_HEADER.unpack_from(data)
    if len(data) != _COPY_HEADER.size + 24 * (nv + nt):
        raise ValueError(f"payload is {len(data) - _COPY_HEADER.size} bytes, expected {24 * (nv + nt)}")
    verts = np.frombuffer(data, "<f8", 3 * nv, _COPY_HEADER.size)
    tris = np.frombuffer(data, "<i8", 3 * nt, _COPY_HEADER.size + 24 * nv)
    return verts.reshape(nv, 3).copy(), tris.reshape(nt, 3).copy()


_PARSERS = {".off": _parse_off, ".obj": _parse_obj, ".ply": _parse_ply}


def load_mesh(path, data=None, shape_id=None):
    """Load and validate a mesh from OFF, OBJ or ASCII-PLY, or from a binary
    mesh copy (`COPY_EXT`); the file's extension names the format.

    Parameters
    ----------
    path : str or Path
    data : bytes, optional
        The file's bytes, when the caller has read them already; parsed in
        place of a read of `path`.
    shape_id : str, optional
        Defaults to the file name without extension.
    """
    path = os.fspath(path)
    ext = os.path.splitext(path)[1].lower()
    if ext not in _PARSERS and ext != COPY_EXT:
        raise ParseError(f"cannot infer mesh format from extension {ext!r}")
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:  # text that is not UTF-8 is bad input too
        verts, tris = _read_copy(data) if ext == COPY_EXT else _PARSERS[ext](data.decode("utf-8"))
    except (ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if shape_id is None:
        shape_id = os.path.splitext(os.path.basename(path))[0]
    return validate_mesh(verts, tris, shape_id)


def save_off(mesh, path):
    """Write a mesh as OFF with full float precision (round-trips exactly):
    each coordinate is its float's `repr`, the shortest text that parses
    back to the same float. Each block is formatted by one `%` call."""
    verts = np.asarray(mesh.vertices, dtype=np.float64)
    text = "".join((
        f"OFF\n{mesh.num_vertices} {mesh.num_triangles} 0\n",
        "%r %r %r\n" * len(verts) % tuple(verts.ravel().tolist()),
        "3 %d %d %d\n" * len(mesh.triangles) % tuple(mesh.triangles.ravel().tolist()),
    ))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def copy_bytes(mesh):
    """The bytes of a mesh's binary copy (`COPY_EXT`): a header, then the
    vertices as <f8 and the triangles as <i8, row-major; `load_mesh` reads
    them back bit for bit."""
    return b"".join((
        _COPY_HEADER.pack(_COPY_MAGIC, mesh.num_vertices, mesh.num_triangles),
        np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes(),
        np.ascontiguousarray(mesh.triangles, dtype="<i8").tobytes(),
    ))
