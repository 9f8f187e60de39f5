"""Command-line pipeline over a collection workspace.

Subcommands: synth, spectra, fmn, latent, variability, ops, extend.
Exit codes: 0 ok, 1 computation error, 2 usage error.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import json
import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import fmaps, latent as latent_mod, network, opalg, spectral, synth, variability
from .errors import LskitError, ManifestError, UnknownShape
from .matio import DIRECTORIES, STAGES, Workspace, digest, drop_after, listed, read_matrix, read_vector, sha256_file
from .matio import write_json, write_matrix, write_text
from .meshes import _PARSERS, load_mesh
from .spectral import SpectralBasis, _eigen_clusters, metric_measure


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _usage_fail(msg):
    print(f"usage error: {msg}", file=sys.stderr)
    return 2


class _View:
    """One command's view of its workspace: the manifest, and the stage
    artifacts that it lists, built from the tracked files only when the
    command asks for them, each file verified before it is parsed. Settings
    come from the command's flags alone, and each stage records those it
    consumed in its own manifest record.

    `mode` "read": each stage record is checked against its declaration
    (`matio.STAGES`) when the command first reads it. "save": every record is
    checked as the manifest loads, before the first write, since `save` lists
    them all. "create": "save", and a missing manifest is a new one."""

    def __init__(self, args, mode="read"):
        self.ws = Workspace(args.workspace)
        self.mode = mode
        self.checked = set()  # the stage records checked so far
        self.loaded = {}  # (what, shape id) -> a member's eigenvalues or basis, for this view only
        stale = self.ws.path("config.json")  # an earlier settings file: refuse it rather than ignore it
        if os.path.exists(stale):
            raise ManifestError(f"{stale} is no longer read; pass its settings as flags and remove it")

    @functools.cached_property
    def manifest(self):
        new = self.mode == "create" and not self.ws.exists()
        manifest = self.ws.init_manifest() if new else self.ws.load_manifest()
        if self.mode != "read":
            listed(manifest)
            self.checked.update(STAGES)
        return manifest

    def record(self, stage):
        """The manifest's `stage` record, checked when the view first reads it."""
        if stage not in self.manifest:
            command = "latent" if stage == "diffs" else stage
            raise ManifestError(f"no {stage} record in this workspace; run `{command}` first")
        if stage not in self.checked:
            listed(self.manifest, [stage])
            self.checked.add(stage)
        return self.manifest[stage]

    def _member(self, what, sid, build):
        """`build(sid's record)`, built when the view first asks for it."""
        if (what, sid) not in self.loaded:
            self.loaded[what, sid] = build(self.record("shapes")[sid])
        return self.loaded[what, sid]

    def eigenvalues(self, sid):
        """One member's tracked eigenvalues: its shape-DNA."""
        return self._member("lam", sid, lambda entry: read_vector(self.ws.verified(entry["files"]["lam"])))

    def spectra(self, sid):
        """One member's spectral basis, from its tracked eigenvalues and
        eigenvectors. A command that uses no mass reads no more of it."""
        def build(entry):
            lam = self.eigenvalues(sid)
            return SpectralBasis(lam, read_matrix(self.ws.verified(entry["files"]["phi"])), sid, _eigen_clusters(lam))

        return self._member("spectra", sid, build)

    def shape(self, sid):
        """`spectra(sid)` with the member's mass, from its mesh copy, for the
        commands that use the mass. Neither the mesh nor its stiffness is kept."""
        def build(entry):
            mass = metric_measure(load_mesh(self.ws.verified(entry["mesh"]), shape_id=sid)).mass_diag
            return dataclasses.replace(self.spectra(sid), mass=mass)

        return self._member("shape", sid, build)

    def maps(self, members):
        """The network's maps between `members`, in manifest order."""
        members = set(members)
        return {
            (src, tgt): fmaps.FunctionalMap(read_matrix(self.ws.verified(rel)), src, tgt)
            for src, tgt, rel in self.record("fmn")["edges"]
            if src in members and tgt in members
        }

    @functools.cached_property
    def network(self):
        # only the nodes the network was built over (extensions live outside it)
        fmn = self.record("fmn")
        return network.FMNetwork([self.shape(sid) for sid in fmn["nodes"]], self.maps(fmn["nodes"]), fmn["topology"])

    @functools.cached_property
    def latent(self):
        """The canonical latent basis and the latent shape."""
        lat = self.record("latent")
        Y = {sid: read_matrix(self.ws.verified(rel)) for sid, rel in lat["Y"].items()}
        clb = latent_mod.ConsistentLatentBasis(Y, lat["m"], tuple(lat["order"]), True, lat["consistency_residual"])
        spectrum = read_vector(self.ws.verified(lat["lambda0"]))
        return clb, latent_mod.LatentShape(spectrum, clb)

    def diffs(self, kind, ids=None):
        """The stored differences of one kind: every shape's, or those of the
        shapes in `ids` that have them."""
        diffs = self.record("diffs")
        if kind not in diffs["kinds"]:
            raise ManifestError(f"no {kind!r} differences stored; rerun `latent` with --kind")
        files = diffs["files"][kind]
        return {
            sid: latent_mod.LatentDifference(read_matrix(self.ws.verified(files[sid])), kind, sid, diffs["normalized"])
            for sid in (files if ids is None else files.keys() & ids)
        }

    def record_shape(self, sid, src, record):
        """Copy a mesh into meshes/ and record it with the spectra that
        `_write_spectra` wrote."""
        with open(src, "rb") as fh:
            rel_mesh = self.ws.write_tracked(os.path.join("meshes", os.path.basename(src)), fh.read())
        self.record("shapes")[sid] = {"mesh": rel_mesh, **record}

    def save(self):
        """Save the manifest, then delete the files in the stage directories
        that it does not list: ones it no longer lists, and any a failed or
        interrupted command left."""
        self.ws.save_manifest(self.manifest)
        files = listed(self.manifest)
        for sub in DIRECTORIES:
            if os.path.isdir(self.ws.path(sub)):
                for entry in os.scandir(self.ws.path(sub)):
                    if os.path.join(sub, entry.name) not in files and not entry.is_dir():
                        os.remove(entry.path)


def _read_input(path, what, **lists):
    """The JSON object of a --partition or --region file, each key of `lists`
    holding a list of the type given (in a partition file, in the object under
    "partition" when there is one, as in ground_truth.json); ManifestError
    naming the file otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ManifestError(f"{what} file {path}: not JSON ({exc})") from exc
    held = doc.get("partition", doc) if what == "partition" and isinstance(doc, dict) else doc
    for key, kind in lists.items():
        if not isinstance(held, dict) or not isinstance(held.get(key), list) or {type(x) for x in held[key]} - {kind}:
            raise ManifestError(f"{what} file {path}: {key!r} must be a list of {kind.__name__}")
    return doc


def _read_partition(path):
    """A --partition file's partition, and its "pairing" of shape ids (None
    when it has none; a family's ground_truth.json has one)."""
    doc = _read_input(path, "partition", cluster_a=str, cluster_b=str)
    part, pairing = doc.get("partition", doc), doc.get("pairing")
    if pairing is not None and not (isinstance(pairing, list) and all(
            isinstance(pair, list) and len(pair) == 2 and {type(x) for x in pair} == {str} for pair in pairing)):
        raise ManifestError(f"partition file {path}: 'pairing' must be a list of two-string lists")
    return variability.Partition(part["cluster_a"], part["cluster_b"]), pairing


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    make, ground_truth, names = {
        "sphere-bump": (synth.sphere_bump_family, synth.sphere_bump_ground_truth,
                        ("horizontal_height", "vertical_height", "n_per_cluster", "subdivisions", "seed")),
        "chain": (synth.chain_family, synth.chain_ground_truth, ("count", "cycle", "subdivisions", "seed")),
        "two-cluster": (synth.two_cluster_family, synth.two_cluster_ground_truth,
                        ("n_per_cluster", "intra_spread", "inter_gap", "subdivisions", "seed")),
    }[args.family]
    # only the flags given: the family signatures hold the defaults
    given = {name: val for name, val in vars(args).items() if name not in ("command", "family", "out", "func")}
    flags = {"n_per_cluster": "--per-cluster", "cycle": "--no-cycle"}
    extra = [flags.get(name, "--" + name.replace("_", "-")) for name in sorted(set(given) - set(names))]
    if extra:
        return _usage_fail(f"synth {args.family} takes no {', '.join(extra)}")
    if "vertical_height" in given:
        given["vertical_heights"] = (given.pop("vertical_height"), 0.0)
    fam = make(**given)
    truth = ground_truth(fam)
    out = args.out
    synth.write_family(fam.meshes, out, truth)
    pairs = synth.family_pairs(truth)
    synth.write_identity_correspondences(fam.meshes, pairs, os.path.join(out, "correspondences"))
    print(
        f"wrote {len(fam.meshes)} meshes, ground_truth.json and "
        f"{2 * len(pairs)} correspondence files to {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# spectra


def _write_spectra(ws: Workspace, basis: SpectralBasis):
    """Write the spectra files of a shape's basis. Returns the fields of its
    manifest record that they determine."""
    files = {
        name: ws.write_tracked_matrix(os.path.join("spectra", f"{basis.shape_id}.{name}.lsk"), arr)
        for name, arr in (("phi", basis.eigenvectors), ("lam", basis.eigenvalues))
    }
    return {"k": basis.k, "files": files}


# OpenBLAS thread-count setters: the plain build's, and the prefixed ones of
# numpy's (64-bit integer) and scipy's wheels
BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


@functools.cache
def _blas_setters(verb="set"):
    """Thread-count setters of the BLAS libraries loaded in this process, or
    with verb "get" their getters, in the same order; none where the loaded
    libraries cannot be listed. Resolved once per process: this module's
    imports (numpy, and scipy's linalg) load every BLAS that it pins."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return ()
    argtypes, restype = ((ctypes.c_int,), None) if verb == "set" else ((), ctypes.c_int)
    funcs = []
    for path in sorted(paths):
        name = os.path.basename(path)
        if name.startswith("lib") and "blas" in name:
            lib = ctypes.CDLL(path)  # already loaded: a new handle, not a second copy
            for sym in BLAS_THREAD_SETTERS:
                sym = sym.replace("_set_", f"_{verb}_")
                if hasattr(lib, sym):
                    func = getattr(lib, sym)
                    func.argtypes, func.restype = argtypes, restype
                    funcs.append(func)
    return tuple(funcs)


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded BLAS runs on one thread inside the block, and so does a
    process forked in it, so each solve has the same bits whether it runs
    in-process or in `spectra`'s pool; each gets its previous thread count
    back on exit. Yields whether any BLAS was pinned."""
    setters, counts = _blas_setters(), [get() for get in _blas_setters("get")]
    for setter in setters:
        setter(1)
    try:
        yield bool(setters)
    finally:
        for setter, count in zip(setters, counts):
            setter(count)


def _solve_shape(root, sid, src, k):
    """Pool worker: parse a mesh from its source path, solve its spectra and
    write them. Returns (record, None, warnings) or, when the mesh fails
    before anything is written, (None, message, warnings); each warning
    caught is (category, message, filename, lineno). The record names the
    files written, and each name carries its file's digest."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the parent's filters decide when it re-emits them
        try:
            mesh = load_mesh(src, shape_id=sid)
            basis = spectral.compute_shape(mesh, k)
        except (LskitError, OSError) as exc:
            record, error = None, str(exc)
        else:
            record, error = _write_spectra(Workspace(root), basis), None
    return record, error, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _solve_in_pool(ws: Workspace, stale, k):
    """Solve the stale (sid, src) shapes in a fork pool whose workers inherit
    a one-thread BLAS pin, so each solve's bits do not depend on the worker
    count or on the caller's BLAS threads: one worker per usable CPU, at most
    one per shape, and one if no loaded BLAS can be pinned. Returns each
    shape's `_solve_shape` result, or the exception it raised, in order."""
    with contextlib.ExitStack() as stack:
        # pinned only while `submit` forks the workers, which inherit the pin: a
        # fork stops the caller's OpenBLAS threads and the restore restarts them
        # to spin for about 0.1 s, which then overlaps the solves, not the caller
        with _one_blas_thread() as pinned:
            workers = min(len(os.sched_getaffinity(0)), len(stale)) if pinned else 1
            pool = stack.enter_context(ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")))
            futures = [pool.submit(_solve_shape, ws.root, sid, src, k) for sid, src in stale]
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:  # raised while writing, or the worker died
                results.append(exc)
    return results


def cmd_spectra(args):
    if args.k < 1:
        return _usage_fail(f"--k must be at least 1, got {args.k}")
    view = _View(args, "create")
    manifest = view.manifest

    files = sorted(f for f in os.listdir(args.mesh_dir) if os.path.splitext(f)[1].lower() in _PARSERS)
    if not files:
        return _fail(f"no mesh files in {args.mesh_dir}")
    named = {}
    for fname in files:  # two workers must not write one shape's files
        sid = os.path.splitext(fname)[0]
        if sid in named:
            raise LskitError(f"{named[sid]} and {fname} in {args.mesh_dir} are both shape {sid!r}")
        named[sid] = fname
    stale = []
    for sid, fname in named.items():
        src = os.path.join(args.mesh_dir, fname)
        entry = manifest["shapes"].get(sid)
        if entry and digest(entry["mesh"]) == sha256_file(src) and entry["k"] == args.k:
            for rel in (entry["mesh"], *entry["files"].values()):  # up to date: it keeps these files
                view.ws.verified(rel)
            continue
        stale.append((sid, src))
    skipped = len(files) - len(stale)
    failures = changed = 0
    caught = []
    try:
        # a stale shape that is not recorded (its mesh failed, its worker
        # raised or died, or the command was interrupted) keeps its old
        # record and files: the workers wrote new files under new names
        results = _solve_in_pool(view.ws, stale, args.k) if stale else []
        for (sid, src), result in zip(stale, results):
            if isinstance(result, Exception):
                error = f"{type(result).__name__}: {result}"
            else:
                record, error, shape_warnings = result
                caught += shape_warnings
                if error is None:  # copy the mesh only once its spectra are written
                    view.record_shape(sid, src, record)
                    changed += 1
            if error is not None:
                failures += 1
                print(f"error: {os.path.basename(src)}: {error}", file=sys.stderr)
    finally:
        if changed:  # the network and everything built on it used the old spectra
            drop_after(manifest, "shapes")
        view.save()
    # after the save, so that a warning filtered into an error leaves a saved workspace
    for category, message, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)
    done = len(stale) - failures
    if failures:
        print(f"spectra (k={args.k}): {done} computed, {failures} failed, {skipped} unchanged")
    elif done:
        print(f"computed spectra for {done} shapes (k={args.k}), {skipped} up to date")
    else:
        print(f"up to date ({skipped} shapes)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# fmn


def _file_provider(args):
    """Maps from the <src>__<tgt>.txt vertex-pair files in --corr-dir: full
    correspondences, or sparse landmarks (--maps landmarks)."""
    if not args.corr_dir:
        raise ManifestError(f"--maps {args.maps} requires --corr-dir")
    landmarks = args.maps == "landmarks"

    def provider(src: SpectralBasis, tgt: SpectralBasis):
        path = fmaps.correspondence_path(args.corr_dir, src.shape_id, tgt.shape_id)
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing {'landmark' if landmarks else 'correspondence'} file {path}")
        if landmarks:
            marks = fmaps.load_correspondence(path, kind="sparse_landmarks")
            return fmaps.fmap_from_landmarks(src, tgt, marks, args.landmark_weight)
        return fmaps.fmap_from_correspondence(src, tgt, fmaps.load_correspondence(path))

    return provider


TOPOLOGY_FORMS = "mst | knn | knn:K (K >= 1) | clique | chain | two-cluster"


def _topology(value):
    """`fmn --topology` as given, once it is one of TOPOLOGY_FORMS."""
    kind, _, k = value.partition(":")
    if value in ("mst", "knn", "clique", "chain", "two-cluster") or kind == "knn" and k.isdecimal() and int(k) >= 1:
        return value
    raise argparse.ArgumentTypeError(f"invalid topology {value!r}; expected {TOPOLOGY_FORMS}")


def cmd_fmn(args):
    view = _View(args, "save")
    manifest = view.manifest
    ids = sorted(manifest["shapes"])
    shapes = {sid: view.shape(sid) for sid in ids}
    dnas = [spectral.shape_dna(shapes[sid]) for sid in ids]

    topology = args.topology
    if topology == "two-cluster":
        if not args.partition:
            return _usage_fail("--topology two-cluster requires --partition")
        part, _ = _read_partition(args.partition)
        if set(part.cluster_a) | set(part.cluster_b) != set(ids):
            return _fail("partition must cover exactly the workspace shapes")
        labels = [0 if sid in part.cluster_a else 1 for sid in ids]
        edges, _ = network.two_cluster_topology(dnas, labels)
    else:  # k_nn is read by knn alone
        kind, _, k_nn = topology.partition(":")
        edges = network.build_topology(dnas, kind, k_nn=int(k_nn or 10))

    provider = network.identity_map_provider if args.maps == "identity" else _file_provider(args)

    ordered = [shapes[sid] for sid in ids]
    net = network.attach_maps(ordered, edges, provider, topology)

    consumed = manifest.get("fmn")  # what latent was built on: the map names carry their contents
    edge_entries = [
        [src, tgt, view.ws.write_tracked_matrix(os.path.join("maps", f"{src}__{tgt}.lsk"), fm.matrix)]
        for (src, tgt), fm in sorted(net.edges.items())
    ]
    manifest["fmn"] = {"topology": topology, "maps": args.maps, "nodes": ids, "edges": edge_entries}
    if args.maps == "landmarks":
        manifest["fmn"]["landmark_weight"] = args.landmark_weight
    if manifest["fmn"] != consumed:  # latent results describe another network
        drop_after(manifest, "fmn")
    view.save()

    report = network.consistency_report(net)
    print(
        f"fmn: {len(ids)} shapes, {len(net.edges)} directed edges ({topology}); "
        f"cycle residuals min={report.min:.3e} mean={report.mean:.3e} max={report.max:.3e}"
    )
    return 0


# ---------------------------------------------------------------------------
# latent


def cmd_latent(args):
    if args.m < 1:
        return _usage_fail(f"--m must be at least 1, got {args.m}")
    view = _View(args, "save")
    ws, manifest, net = view.ws, view.manifest, view.network
    k_min = min(s.k for s in net.shapes)
    if args.m > k_min:
        return _usage_fail(f"--m {args.m} exceeds the smallest basis truncation {k_min}")

    clb = latent_mod.consistent_latent_basis(net, args.m)
    spectra = net.spectra()
    canonical, latent_shape = latent_mod.canonicalize(clb, spectra)
    ortho, offdiag = latent_mod.canonical_residuals(canonical, spectra)

    y_files = {
        sid: ws.write_tracked_matrix(os.path.join("latent", f"Y.{sid}.lsk"), canonical.Y[sid])
        for sid in canonical.order
    }
    lam0_rel = ws.write_tracked_matrix(os.path.join("latent", "lambda0.lsk"), latent_shape.spectrum)
    manifest["latent"] = {
        "m": args.m,
        "order": list(canonical.order),
        "consistency_residual": canonical.consistency_residual,
        "Y": y_files,
        "lambda0": lam0_rel,
        "extended": {},
    }

    kinds = ["area", "conformal"] if args.kind == "both" else [args.kind]
    diff_files = {}
    for kind in kinds:
        diffs = latent_mod.latent_differences(canonical, spectra, latent_shape, kind, args.normalized)
        diff_files[kind] = {
            sid: ws.write_tracked_matrix(os.path.join("diffs", f"{sid}.{kind}.lsk"), D.matrix)
            for sid, D in diffs.items()
        }
    manifest["diffs"] = {"kinds": kinds, "normalized": args.normalized, "files": diff_files}
    view.save()

    head = ", ".join(f"{v:.6g}" for v in latent_shape.spectrum[: min(6, args.m)])
    print(f"latent: m={args.m}, consistency residual {canonical.consistency_residual:.6e}")
    print(f"latent spectrum head: [{head}]")
    print(f"canonical residuals: orthonormality {ortho:.3e}, off-diagonal mass {offdiag:.3e}")
    return 0


# ---------------------------------------------------------------------------
# variability


def cmd_variability(args):
    if args.count < 1:
        return _usage_fail(f"--count must be at least 1, got {args.count}")
    view = _View(args)
    ws, diffs = view.ws, view.diffs(args.diff_kind)

    if args.mode == "cross":
        if not args.partition:
            return _usage_fail("--mode cross requires --partition")
        part, _ = _read_partition(args.partition)
        funcs = variability.cross_collection_variability(diffs, part, count=args.count)
    else:
        funcs = variability.global_variability(diffs, count=args.count)
    if args.emit_fields:  # read and verify them before the first write
        clb, _ = view.latent
        shapes = {sid: view.spectra(sid) for sid in clb.order}

    doc = {
        "mode": args.mode,
        "kind": args.diff_kind,
        "count": len(funcs),
        "functions": [
            {
                "alpha": f.alpha.tolist(),
                "eigenvalue": f.eigenvalue,
                "degenerate": f.degenerate,
            }
            for f in funcs
        ],
    }
    out_json = ws.path("variability", f"{args.mode}.json")
    write_json(out_json, doc)

    ids, _, coords = variability.separation_embedding(diffs, funcs[0])
    csv_path = ws.path("variability", f"{args.mode}_embedding.csv")
    rows = "".join(f"{sid},{float(x)!r},{float(y)!r}\n" for sid, (x, y) in zip(ids, coords))
    write_text(csv_path, "shape_id,pc1,pc2\n" + rows)

    if args.emit_fields:
        bundle = {"mode": args.mode, "shapes": {}}
        for sid in clb.order:
            raw, _ = variability.transfer_to_shape(funcs[0], shapes[sid], clb.Y[sid])
            txt = ws.path("fields", f"{args.mode}.{sid}.txt")
            write_text(txt, "".join(f"{idx} {float(val)!r}\n" for idx, val in enumerate(raw)))
            bundle["shapes"][sid] = {
                "field": os.path.relpath(txt, ws.root),
                "max_abs": float(np.max(np.abs(raw))),
            }
        write_json(ws.path("fields", f"{args.mode}.json"), bundle)

    top = funcs[0]
    print(
        f"variability ({args.mode}): top eigenvalue {top.eigenvalue:.6e}"
        + (" [degenerate]" if top.degenerate else "")
    )
    print(f"wrote {out_json} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# ops


def _write_expression(ws, name, expr):
    mat_rel = os.path.join("ops", f"{name}.lsk")
    write_matrix(ws.path(mat_rel), expr.result)
    doc = {**expr.recipe, "operands": {k: np.asarray(v).tolist() for k, v in expr.recipe["operands"].items()}}
    write_json(ws.path("ops", f"{name}.json"), doc)
    return mat_rel


def cmd_ops(args):
    view = _View(args)
    ws, kind = view.ws, args.diff_kind

    if args.action == "descriptors":
        diffs = view.diffs(kind)
        doc = {sid: opalg.lssd_spectrum_descriptor(D).tolist() for sid, D in sorted(diffs.items())}
        path = ws.path("ops", f"descriptors.{kind}.json")
        write_json(path, doc)
        print(f"wrote {path}")
        return 0

    if args.action == "align":
        if not args.partition:
            return _usage_fail("ops align requires --partition")
        part, truth = _read_partition(args.partition)
        part.require(view.record("shapes"))
        outside = sorted((set(part.cluster_a) | set(part.cluster_b)) - set(view.record("fmn")["nodes"]))
        if outside:  # a member that `extend` added has no maps
            return _fail(f"shape {outside[0]!r} is not in the functional map network")
        stored, descs = view.record("latent") if "latent" in view.manifest else None, {}
        for name, cluster in (("a", part.cluster_a), ("b", part.cluster_b)):
            # each cluster's eigenvalues and the maps between its members: the
            # latent basis of a network uses no eigenvector and no mass
            members = [SpectralBasis(view.eigenvalues(sid), None, sid) for sid in sorted(cluster)]
            sub = network.FMNetwork(members, view.maps(cluster), "intra")
            m = min(stored["m"] if stored else 10, min(s.k for s in members))
            clb = latent_mod.consistent_latent_basis(sub, m)
            canonical, lat = latent_mod.canonicalize(clb, sub.spectra())
            diffs = latent_mod.latent_differences(canonical, sub.spectra(), lat, "area", normalized=True)
            descs[name] = {sid: opalg.lssd_spectrum_descriptor(D) for sid, D in diffs.items()}
        pairing = opalg.align_by_descriptor(descs["a"], descs["b"])
        for ida, idb in sorted(pairing.items()):
            print(f"{ida} -> {idb}")
        if truth:
            hits = sum(pairing.get(a) == b for a, b in truth)
            print(f"pairing accuracy vs ground truth: {hits}/{len(truth)} ({hits / len(truth):.0%})")
        return 0

    operands = (args.a, args.b, args.c) if args.action == "analogy" else (args.a, args.b)
    diffs = view.diffs(kind, operands)  # only the operands
    if not diffs.keys() >= set(operands):
        return _fail(f"{args.action} operands must be shape ids with stored differences")
    A, B = diffs[args.a], diffs[args.b]
    name, note = "_".join((args.action, *operands)), ""
    if args.action == "analogy":
        expr = opalg.analogy(A, B, diffs[args.c])
        note = f" (condition {expr.recipe['condition']:.3e})"
    elif args.action == "interp":
        expr, name = opalg.interpolate(A, B, args.t), f"{name}_t{args.t:g}"
    else:  # mix: only the region's host is loaded
        region_doc = _read_input(args.region, "region", vertices=int)
        host = region_doc.get("shape")
        if not isinstance(host, str) or host not in view.record("shapes"):
            raise UnknownShape(f"region shape {host!r} is not in the workspace")
        host = view.shape(host)
        clb, latent_shape = view.latent
        F = opalg.localized_basis(latent_shape, clb, host, region_doc["vertices"])
        expr, note = opalg.partial_mix(A, B, F), f" (localized basis rank {F.p})"
    print(f"wrote {_write_expression(ws, f'{name}.{kind}', expr)}{note}")
    return 0


# ---------------------------------------------------------------------------
# extend


def cmd_extend(args):
    view = _View(args, "save")
    clb, latent_shape = view.latent
    ws, members = view.ws, view.record("shapes")
    # the k the latent members were computed at: fmn compares their k-long
    # shape-DNA, so they share it
    k = members[clb.order[0]]["k"]

    mesh = load_mesh(args.mesh)
    if mesh.shape_id in members:
        return _fail(f"shape id {mesh.shape_id!r} already in the collection")
    auto = args.neighbor == "auto"
    if not auto and args.neighbor not in members:
        return _fail(f"unknown --neighbor {args.neighbor!r}")
    # the auto choice compares shape-DNA: each member's eigenvalues
    spectra = {sid: view.eigenvalues(sid) for sid in clb.order} if auto else None
    with _one_blas_thread():
        new_shape = spectral.compute_shape(mesh, k)
    corr = fmaps.load_correspondence(args.corr)

    def provider(src: SpectralBasis, tgt: SpectralBasis):
        return fmaps.fmap_from_correspondence(src, tgt, corr)

    neighbor = latent_mod.nearest_member(clb, spectra, new_shape) if auto else args.neighbor
    stored = view.record("diffs")
    # the map from the neighbor reads its basis, not its mass
    Y_new, diffs = latent_mod.extend_to_shape(
        latent_shape, view.spectra(neighbor), new_shape, provider, stored["normalized"]
    )
    if auto:
        print(f"neighbor chosen by shape-DNA: {neighbor}")

    sid = mesh.shape_id
    view.record_shape(sid, args.mesh, _write_spectra(ws, new_shape))
    y_rel = ws.write_tracked_matrix(os.path.join("latent", f"Y.{sid}.lsk"), Y_new)
    diff_rels = {
        kind: ws.write_tracked_matrix(os.path.join("diffs", f"{sid}.{kind}.lsk"), D.matrix)
        for kind, D in diffs.items()
    }
    for kind in stored["kinds"]:  # extend_to_shape returns both kinds
        stored["files"][kind][sid] = diff_rels[kind]
    view.record("latent")["extended"][sid] = {"neighbor": neighbor, "Y": y_rel, "diffs": diff_rels}
    view.save()
    print(f"extended collection with {sid!r} via neighbor {neighbor!r}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(prog="lskit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic test family", argument_default=argparse.SUPPRESS)
    sp.add_argument("family", choices=["sphere-bump", "chain", "two-cluster"])
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--subdivisions", type=int)
    sp.add_argument("--per-cluster", type=int, dest="n_per_cluster", metavar="PER_CLUSTER")
    sp.add_argument("--count", type=int)
    sp.add_argument("--no-cycle", action="store_false", dest="cycle")
    sp.add_argument("--horizontal-height", type=float)
    sp.add_argument("--vertical-height", type=float)
    sp.add_argument("--intra-spread", type=float)
    sp.add_argument("--inter-gap", type=float)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("spectra", help="per-shape stiffness/mass/eigenbasis")
    sp.add_argument("mesh_dir")
    sp.add_argument("--workspace", required=True)
    sp.add_argument("--k", type=int, default=50)
    sp.set_defaults(func=cmd_spectra)

    sp = sub.add_parser("fmn", help="build topology and functional maps")
    sp.add_argument("--workspace", required=True)
    sp.add_argument("--topology", type=_topology, default="mst", help=TOPOLOGY_FORMS)
    sp.add_argument("--maps", choices=["correspondence", "landmarks", "identity"], default="correspondence")
    sp.add_argument("--corr-dir", default=None)
    sp.add_argument("--partition", default=None)
    sp.add_argument("--landmark-weight", type=float, default=1e-3, dest="landmark_weight")
    sp.set_defaults(func=cmd_fmn)

    sp = sub.add_parser("latent", help="consistent latent basis and differences")
    sp.add_argument("--workspace", required=True)
    sp.add_argument("--m", type=int, default=40)
    sp.add_argument("--kind", choices=["area", "conformal", "both"], default="area")
    sp.add_argument("--normalized", action="store_true")
    sp.set_defaults(func=cmd_latent)

    sp = sub.add_parser("variability", help="distinctive functions and embeddings")
    sp.add_argument("--workspace", required=True)
    sp.add_argument("--mode", choices=["global", "cross"], required=True)
    sp.add_argument("--partition", default=None)
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--emit-fields", action="store_true")
    sp.add_argument("--diff-kind", choices=["area", "conformal"], default="area")
    sp.set_defaults(func=cmd_variability)

    sp = sub.add_parser("ops", help="operator algebra on stored differences")
    ops_sub = sp.add_subparsers(dest="action", required=True)
    for name, extra in (
        ("analogy", ("a", "b", "c")),
        ("interp", ("a", "b")),
        ("mix", ("a", "b")),
    ):
        op = ops_sub.add_parser(name)
        for arg in extra:
            op.add_argument(arg)
        op.add_argument("--workspace", required=True)
        op.add_argument("--diff-kind", choices=["area", "conformal"], default="area")
        if name == "interp":
            op.add_argument("--t", type=float, required=True)
        if name == "mix":
            op.add_argument("--region", required=True)
        op.set_defaults(func=cmd_ops)
    for name in ("descriptors", "align"):
        op = ops_sub.add_parser(name)
        op.add_argument("--workspace", required=True)
        op.add_argument("--diff-kind", choices=["area", "conformal"], default="area")
        if name == "align":
            op.add_argument("--partition", default=None)
        op.set_defaults(func=cmd_ops)

    sp = sub.add_parser("extend", help="attach a new shape to an existing latent")
    sp.add_argument("--workspace", required=True)
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--neighbor", default="auto")
    sp.add_argument("--corr", required=True)
    sp.set_defaults(func=cmd_extend)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LskitError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
