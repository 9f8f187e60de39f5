"""Persistence: portable matrix container, workspace manifest, config.

The matrix container is a fixed little-endian binary layout (magic
"LSKMAT01", dtype code, dimensions, row-major float64 payload) so artifacts
round-trip bit-exactly across platforms. A collection workspace is a single
directory whose manifest.json is the source of truth: its stage records list
the tracked files, each named `<stem>.<sha256><ext>`. A command verifies a
tracked file when it reads it, or keeps it in place of a write
(`Workspace.verified`), and no other file; `Workspace.verify` checks them all.
"""

import hashlib
import json
import os
import re
import struct
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import ManifestError, ParseError

MAGIC = b"LSKMAT01"
_DTYPE_F64 = 1
_HEADER = struct.Struct("<8sQQQ")  # magic, dtype code, rows, cols
_NAMED = re.compile(r"\.([0-9a-f]{64})(\.[^./]*)?$")  # the digest in a tracked file's name


def _atomic_write(path, data: bytes):
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
        raise ValueError(f"container stores 2D matrices, got ndim={arr.ndim}")
    header = _HEADER.pack(MAGIC, _DTYPE_F64, arr.shape[0], arr.shape[1])
    return header + np.ascontiguousarray(arr).tobytes()


def write_matrix(path, array):
    """Write an array's container. Returns the sha256 of the bytes written."""
    data = _container(array)
    _atomic_write(path, data)
    return hashlib.sha256(data).hexdigest()


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


def listed(manifest):
    """The workspace files that the manifest's stage records list."""
    files = {rel for entry in manifest["shapes"].values() for rel in (entry["mesh"], *entry["files"].values())}
    if manifest.get("fmn"):
        files.update(rel for *_, rel in manifest["fmn"]["edges"])
    if manifest.get("latent"):
        lat = manifest["latent"]
        files.update((*lat["Y"].values(), lat["lambda0"]))
        files.update(rel for ext in lat["extended"].values() for rel in (ext["Y"], *ext["diffs"].values()))
    if manifest.get("diffs"):
        files.update(rel for kind in manifest["diffs"]["files"].values() for rel in kind.values())
    return files


def digest(manifest, rel):
    """The sha256 of tracked file `rel`: its name's, or an earlier layout's `hashes` entry (or None)."""
    named = _NAMED.search(rel)
    return named[1] if named else manifest.get("hashes", {}).get(rel)


@dataclass
class Config:
    """Pipeline knobs. A new manifest records them all, tolerances included
    (`effective`); each stage then records the fields it consumed, so a
    workspace documents exactly what produced it."""

    k: int = 50
    m: int = 40
    kind: str = "area"  # "area" | "conformal" | "both"
    normalized: bool = False
    topology: str = "mst"
    maps: str = "correspondence"  # "correspondence" | "landmarks" | "identity"
    landmark_weight: float = 1e-3
    within_weight: float = 1.0

    def effective(self):
        from . import fmaps, latent, opalg, spectral, variability

        doc = asdict(self)
        doc["tolerances"] = {
            "pinv_rel_tol": fmaps.PINV_REL_TOL,
            "tikhonov_floor": fmaps.TIKHONOV_FLOOR,
            "landmark_radius_factor": fmaps.LANDMARK_RADIUS_FACTOR,
            "dense_solver_max_size": spectral.DENSE_SOLVER_MAX_SIZE,
            "cluster_gap_tol": spectral.CLUSTER_GAP_TOL,
            "spectral_gap_warn_tol": latent.GAP_WARN_TOL,
            "orthonormal_tol": variability.ORTHONORMAL_TOL,
            "condition_limit": opalg.CONDITION_LIMIT,
        }
        return doc

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("tolerances", None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ManifestError(f"unknown config keys {sorted(unknown)}")
        return cls(**doc)


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

    def init_manifest(self, config: Config):
        """A manifest with no shapes; nothing is written until it is saved."""
        return {
            "tool": "lskit",
            "version": __version__,
            "config": config.effective(),
            "shapes": {},
        }

    def load_manifest(self):
        """The saved manifest, parsed; no tracked file is read (`verified`)."""
        if not self.exists():
            raise ManifestError(f"no manifest at {self.manifest_path}")
        with open(self.manifest_path, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"malformed manifest: {exc}") from exc

    def save_manifest(self, manifest):
        """Write manifest.json, unless it already holds this manifest; an earlier
        layout's `hashes` keeps only the listed files whose names lack a digest."""
        hashes = manifest.pop("hashes", {})
        legacy = {rel: hashes[rel] for rel in listed(manifest) & hashes.keys() if digest({}, rel) is None}
        if legacy:
            manifest["hashes"] = legacy
        if self.exists():
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                if json.load(fh) == manifest:
                    return
        data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n"
        _atomic_write(self.manifest_path, data)

    def verified(self, manifest, rel):
        """The path of tracked file `rel`; ManifestError when it is missing or
        its sha256 is not its `digest`."""
        full, expected = self.path(rel), digest(manifest, rel)
        if expected is None or not os.path.isfile(full):
            raise ManifestError(f"missing artifact {rel!r}")
        actual = sha256_file(full)
        if actual != expected:
            raise ManifestError(f"hash mismatch for {rel!r}: expected {expected[:12]}..., file {actual[:12]}...")
        return full

    def verify(self, manifest):
        """Abort (ManifestError) when any listed file is missing or altered."""
        for rel in sorted(listed(manifest)):
            self.verified(manifest, rel)

    def write_tracked(self, relpath, data):
        """Track bytes under `relpath`'s stem, their sha256 and `relpath`'s
        extension, and return that name. A file of that name is verified and
        kept, so no command replaces a file that a saved manifest lists;
        otherwise the bytes are written."""
        stem, ext = os.path.splitext(relpath)
        name = f"{stem}.{hashlib.sha256(data).hexdigest()}{ext}"
        if os.path.isfile(self.path(name)):
            self.verified({}, name)
        else:
            _atomic_write(self.path(name), data)
        return name

    def write_tracked_matrix(self, relpath, array):
        """`write_tracked` for a matrix's container bytes."""
        return self.write_tracked(relpath, _container(array))
