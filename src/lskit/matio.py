"""Persistence: portable matrix container and workspace manifest.

The matrix container is a fixed little-endian binary layout (magic
"LSKMAT01", dtype code, dimensions, row-major float64 payload) so artifacts
round-trip bit-exactly across platforms. A collection workspace is a single
directory whose manifest.json is the source of truth: its stage records
(`STAGES`) list the tracked files, each named `<stem>.<sha256><ext>`: the
name is the one record of its digest. `Workspace.load_manifest` refuses an
earlier layout. A command verifies a tracked file when it reads it, or
keeps it in place of a write (`Workspace.verified`), and no other file;
`Workspace.verify` checks them all.
"""

import collections
import hashlib
import json
import os
import re
import struct
import tempfile

import numpy as np

from . import __version__
from .errors import InvalidArgument, ManifestError, ParseError

MAGIC = b"LSKMAT01"
_DTYPE_F64 = 1
_HEADER = struct.Struct("<8sQQQ")  # magic, dtype code, rows, cols
_NAMED = re.compile(r"\.([0-9a-f]{64})(\.[^./]*)?$")  # the digest in a tracked file's name


def _atomic_write(path, data: bytes):
    """Write `data` to `path` through a temporary file and a rename, unless the
    file already holds exactly these bytes: then it is left as it is."""
    try:
        if os.path.getsize(path) == len(data):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    return
    except FileNotFoundError:
        pass
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _container(array):
    """The container bytes of a 1D or 2D float64 array (vectors are stored as
    one column)."""
    arr = np.asarray(array, dtype="<f8")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidArgument(f"container stores 2D matrices, got ndim={arr.ndim}")
    header = _HEADER.pack(MAGIC, _DTYPE_F64, arr.shape[0], arr.shape[1])
    return header + np.ascontiguousarray(arr).tobytes()


def write_matrix(path, array):
    """Write an array's container."""
    _atomic_write(path, _container(array))


def write_text(path, text):
    _atomic_write(path, text.encode("utf-8"))


def write_json(path, doc):
    write_text(path, json.dumps(doc, indent=2, sort_keys=True))


def read_matrix(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ParseError(f"{path}: truncated container header")
    magic, code, rows, cols = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if code != _DTYPE_F64:
        raise ParseError(f"{path}: unsupported dtype code {code}")
    expected = _HEADER.size + rows * cols * 8
    if len(blob) != expected:
        raise ParseError(f"{path}: payload is {len(blob) - _HEADER.size} bytes, expected {rows * cols * 8}")
    arr = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)
    return np.array(arr, dtype=np.float64)


def read_vector(path):
    arr = read_matrix(path)
    if arr.shape[1] != 1:
        raise ParseError(f"{path}: expected a column vector, got {arr.shape}")
    return arr[:, 0]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# The stage records of manifest.json, in pipeline order: rebuilding a stage
# drops every record after it (`drop_after`). In a declaration a dict is a
# record of exactly its keys (one holding a Maybe may be absent), {str: d} an
# object whose keys are names, each holding d, [d] a list of d, a tuple a list
# of exactly its items, a type a JSON value of that type, and a string the
# name of a tracked file in that directory.
Maybe = collections.namedtuple("Maybe", "value")
STAGES = {
    "shapes": {str: {"mesh": "meshes", "k": int, "files": {"phi": "spectra", "lam": "spectra"}}},
    "fmn": {"topology": str, "maps": str, "nodes": [str], "edges": [(str, str, "maps")],
            "landmark_weight": Maybe(float)},  # under --maps landmarks
    "latent": {"m": int, "order": [str], "consistency_residual": float, "Y": {str: "latent"}, "lambda0": "latent",
               "extended": {str: {"neighbor": str, "Y": "latent", "diffs": {str: "diffs"}}}},
    "diffs": {"kinds": [str], "normalized": bool, "files": {str: {str: "diffs"}}},
}


def _directories(decl):
    """The directories of the tracked files that declaration `decl` holds."""
    if type(decl) is str:
        return {decl}
    inner = decl.values() if type(decl) is dict else decl if isinstance(decl, tuple | list) else ()
    return set().union(*map(_directories, inner))


DIRECTORIES = sorted(_directories(STAGES))


_EARLIER_LAYOUT = "{} holds {}: it is in an earlier layout; build a new workspace with `spectra`"


def _check(decl, value, files, where):
    """Check `value` against declaration `decl`, adding the tracked file names
    it holds to `files`; ManifestError naming its path otherwise. `where` is
    that path: a stage, or (the enclosing path, a key or list index)."""
    kind = type(decl)
    if kind is dict and type(value) is dict:
        if str in decl:
            for key, item in value.items():
                _check(decl[str], item, files, (where, key))
            return
        if value.keys() - decl.keys():
            raise ManifestError(_EARLIER_LAYOUT.format(_path(where), sorted(value.keys() - decl.keys())))
        for key, sub in decl.items():
            if key in value:
                _check(sub.value if type(sub) is Maybe else sub, value[key], files, (where, key))
            elif type(sub) is not Maybe:
                raise ManifestError(f"{_path(where)}: missing {key!r}")
    elif kind is list and type(value) is list:
        for i, item in enumerate(value):
            _check(decl[0], item, files, (where, i))
    elif kind is tuple and type(value) is list and len(value) == len(decl):
        for i, (sub, item) in enumerate(zip(decl, value)):
            _check(sub, item, files, (where, i))
    elif kind is str and type(value) is str and value.rpartition(os.sep)[0] == decl:
        files.add(value)
    elif kind is not type or type(value) is not decl and not (decl is float and type(value) is int):
        expected = ("an object" if kind is dict else "a list" if kind is list else f"a list of {len(decl)}"
                    if kind is tuple else f"a file name in {decl}{os.sep}" if kind is str else decl.__name__)
        raise ManifestError(f"{_path(where)}: expected {expected}, got {json.dumps(value)[:40]}")


def _path(where):
    """A `_check` path as text, such as manifest.json: fmn.edges[0][2]."""
    keys = []
    while type(where) is tuple:
        where, key = where
        keys.append(f"[{key}]" if type(key) is int else f".{key}")
    return f"{Workspace.MANIFEST}: {where}{''.join(reversed(keys))}"


def listed(manifest, stages=STAGES):
    """The tracked files that the manifest's `stages` records list, each
    record checked against its declaration (ManifestError otherwise)."""
    files = set()
    for stage in stages:
        if stage in manifest:
            _check(STAGES[stage], manifest[stage], files, stage)
    return files


def drop_after(manifest, stage):
    """Remove the stage records after `stage`: each was built on it."""
    for later in list(STAGES)[list(STAGES).index(stage) + 1:]:
        manifest.pop(later, None)


def digest(rel):
    """The sha256 that tracked file `rel`'s name carries, or None when it carries none."""
    named = _NAMED.search(rel)
    return named and named[1]


class Workspace:
    """Single-writer collection directory with manifest integrity checks."""

    MANIFEST = "manifest.json"

    def __init__(self, root):
        self.root = os.path.abspath(os.fspath(root))

    def path(self, *parts):
        return os.path.join(self.root, *parts)

    @property
    def manifest_path(self):
        return self.path(self.MANIFEST)

    def exists(self):
        return os.path.isfile(self.manifest_path)

    def init_manifest(self):
        """A manifest with no shapes; nothing is written until it is saved.
        It records the tolerances compiled into the library, which no stage
        record holds; each stage records the settings it consumed."""
        from . import fmaps, latent, opalg, spectral, variability

        tolerances = {
            "pinv_rel_tol": fmaps.PINV_REL_TOL,
            "tikhonov_floor": fmaps.TIKHONOV_FLOOR,
            "landmark_radius_factor": fmaps.LANDMARK_RADIUS_FACTOR,
            "dense_solver_max_size": spectral.DENSE_SOLVER_MAX_SIZE,
            "cluster_gap_tol": spectral.CLUSTER_GAP_TOL,
            "spectral_gap_warn_tol": latent.GAP_WARN_TOL,
            "orthonormal_tol": variability.ORTHONORMAL_TOL,
            "condition_limit": opalg.CONDITION_LIMIT,
        }
        return {"tool": "lskit", "version": __version__, "tolerances": tolerances, "shapes": {}}

    def load_manifest(self):
        """The saved manifest, parsed, with its top level checked; `listed`
        checks its stage records, and no tracked file is read (`verified`).
        An earlier layout held another top-level entry, such as the digests
        of its files."""
        if not self.exists():
            raise ManifestError(f"no manifest at {self.manifest_path}")
        with open(self.manifest_path, "r", encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ManifestError(f"malformed manifest: {self.manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict) or not isinstance(manifest.get("shapes"), dict):
            raise ManifestError(f"malformed manifest: {self.manifest_path} is not an object holding a 'shapes' object")
        earlier = manifest.keys() - STAGES.keys() - {"tool", "version", "tolerances"}  # these: read by no command
        if earlier:
            raise ManifestError(_EARLIER_LAYOUT.format(self.manifest_path, sorted(earlier)))
        return manifest

    def save_manifest(self, manifest):
        """Write manifest.json, left as it is when it holds the same bytes."""
        data = json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n"  # no indent: json's C encoder
        _atomic_write(self.manifest_path, data)

    def verified(self, rel):
        """The path of tracked file `rel`; ManifestError when it is missing or
        its sha256 is not the `digest` its name carries."""
        full, expected = self.path(rel), digest(rel)
        if expected is None or not os.path.isfile(full):
            raise ManifestError(f"missing artifact {rel!r}")
        actual = sha256_file(full)
        if actual != expected:
            raise ManifestError(f"hash mismatch for {rel!r}: expected {expected[:12]}..., file {actual[:12]}...")
        return full

    def verify(self, manifest):
        """Abort (ManifestError) when any listed file is missing or altered."""
        for rel in sorted(listed(manifest)):
            self.verified(rel)

    def write_tracked(self, relpath, data):
        """Track bytes under `relpath`'s stem, their sha256 and `relpath`'s
        extension, and return that name. A file of that name is verified and
        kept, so no command replaces a file that a saved manifest lists;
        otherwise the bytes are written."""
        stem, ext = os.path.splitext(relpath)
        name = f"{stem}.{hashlib.sha256(data).hexdigest()}{ext}"
        if os.path.isfile(self.path(name)):
            self.verified(name)
        else:
            _atomic_write(self.path(name), data)
        return name

    def write_tracked_matrix(self, relpath, array):
        """`write_tracked` for a matrix's container bytes."""
        return self.write_tracked(relpath, _container(array))
