"""Spans around calls into lskit's layers, recorded from outside the package.

`Tracer.install()` replaces every public function of the layer modules, the
few private helpers that mark a layer boundary (`BOUNDARIES`) and the
workspace I/O methods of `matio.Workspace` with timing wrappers. A function is
replaced in its defining module and in every lskit module that bound it with
`from ... import`, so a call is recorded whichever name it goes through
(`cli.load_mesh`, `network.fmap_from_correspondence`, ...).

Spans nest. A span's self time is its duration minus its direct children's;
over one command the self times sum to the command's duration. Calls of
`scipy.linalg.eigh` (dense path) and `scipy.sparse.linalg.eigsh` (sparse
path) are counted on the innermost open span.
"""

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("meshes", "spectral", "fmaps", "network", "latent", "variability", "opalg", "matio", "cli")

# span names that differ from "<module>.<function>"
RENAMED = {
    "latent.consistent_latent_basis": "latent.eigensolve",
    "latent.latent_differences": "latent.differences",
    "network.build_topology": "network.topology",
    "network.two_cluster_topology": "network.topology",
    "variability.global_variability": "variability.objective",
    "variability.cross_collection_variability": "variability.objective",
}
# private helpers that are layer boundaries in their own right
BOUNDARIES = {("latent", "_block_matrix"): "latent.block_assembly"}
WORKSPACE_METHODS = ("load_manifest", "verify", "save_manifest")


def _path_size(args, kwargs, out):
    return os.path.getsize(args[0])


def _first_arg(args, kwargs, out):
    return os.fspath(args[0])


# per-span facts taken from a call's arguments or result, after the span closes
NOTES = {
    "meshes.load_mesh": ("distinct", _first_arg),
    "spectral.eigenbasis": ("max", lambda a, k, out: out.num_vertices),
    "latent.block_assembly": ("max", lambda a, k, out: out[0].shape[0]),
    "matio.read_matrix": ("bytes", _path_size),
    "matio.write_matrix": ("bytes", _path_size),
    "matio.sha256_file": ("bytes", _path_size),
}


class Span:
    __slots__ = ("name", "t0", "t1", "child", "parent", "dense", "sparse")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.dense = 0
        self.sparse = 0

    @property
    def duration(self):
        return self.t1 - self.t0

    @property
    def self_time(self):
        return self.t1 - self.t0 - self.child


class Tracer:
    """Records spans while `active`; `take()` hands over what was recorded."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.spans = []
        self.notes = []  # (span, kind, value)
        self._undo = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.t1 - span.t0
                tracer.spans.append(span)
            if note is not None:
                tracer.notes.append((span, note[0], note[1](args, kwargs, out)))
            return out

        traced.perfbench_original = fn
        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) as a root span (a CLI command)."""
        self.active = True
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.active = False

    def _count(self, field, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and tracer.stack:
                span = tracer.stack[-1]
                setattr(span, field, getattr(span, field) + 1)
            return fn(*args, **kwargs)

        counted.perfbench_original = fn
        return counted

    def take(self):
        spans, notes = self.spans, self.notes
        self.spans, self.notes = [], []
        return spans, notes

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy.linalg
        import scipy.sparse.linalg

        modules = {name: importlib.import_module(f"lskit.{name}") for name in LAYERS}
        everywhere = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "lskit"]
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            if layer == "cli":
                continue  # commands are root spans, opened by the caller
            for attr, obj in vars(mod).items():
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                boundary = BOUNDARIES.get((layer, attr))
                if own and (boundary or not attr.startswith("_")):
                    name = boundary or RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrappers[id(obj)] = self.wrap(name, obj)
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])
        ws_cls = modules["matio"].Workspace
        for meth in WORKSPACE_METHODS:
            self._set(ws_cls, meth, self.wrap(f"matio.{meth}", getattr(ws_cls, meth)))
        self._set(scipy.linalg, "eigh", self._count("dense", scipy.linalg.eigh))
        self._set(scipy.sparse.linalg, "eigsh", self._count("sparse", scipy.sparse.linalg.eigsh))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def span_cost(samples=20000):
    """Seconds one span adds to the traced program, measured on a no-op."""
    tracer = Tracer()
    tracer.active = True
    tracer.stack.append(Span("root", None))

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / samples


def summarize(spans, notes):
    """Flat per-unit totals, keyed "<span name>|<field>"."""
    out = defaultdict(float)
    distinct = defaultdict(set)
    for span in spans:
        name = span.name
        out[f"{name}|calls"] += 1
        out[f"{name}|s"] += span.duration
        out[f"{name}|self_s"] += span.self_time
        out[f"{name}|dense"] += span.dense
        out[f"{name}|sparse"] += span.sparse
        out[f"{name.split('.')[0]}|self_s"] += span.self_time
    for span, kind, value in notes:
        if kind == "distinct":
            distinct[span.name].add(value)
        elif kind == "max":
            out[f"{span.name}|max"] = max(out[f"{span.name}|max"], value)
        else:
            out[f"{span.name}|{kind}"] += value
    for name, values in distinct.items():
        out[f"{name}|distinct"] = len(values)
    out["spans|count"] = len(spans)
    return dict(out)


def combine(units):
    """Median over units (build repetitions) of each per-unit total ("|max"
    fields: the largest)."""
    total = {}
    for key in set().union(*units):
        values = [u.get(key, 0.0) for u in units]
        total[key] = max(values) if key.endswith("|max") else statistics.median(values)
    return total
