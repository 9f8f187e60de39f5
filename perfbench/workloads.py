"""The two workloads: what each runs, what it times and how it is checked.

Every command is an in-process, closed-loop call to `lskit.cli.main(argv)`
from this one process: one client, the next command sent when the previous
one returned. Inputs come only from `lskit.synth` families, written to files
under the run's work directory; the program sees nothing but those files.
"""

import gc
import io
import json
import os
import shutil
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout

import checks
import spans
import startup
from lskit import cli, synth
from lskit.errors import SpectralGapWarning
from lskit.fmaps import identity_correspondence, save_correspondence
from lskit.meshes import Mesh, load_mesh, save_off

MIN_REPETITIONS = 3  # builds per run, also when --seconds is shorter


class Session:
    """Runs CLI commands, times each one, keeps every outcome."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.gap_warnings = 0
        self.other_warnings = {}
        self.problems = []  # first few failure messages, for the report

    def run(self, argv, trace=True):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                if self.tracer is not None and trace:
                    rc = self.tracer.call(f"cli.{argv[0]}", cli.main, argv)
                else:
                    rc = cli.main(argv)
            except Exception:  # a crash is a failed command; the run goes on
                rc = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
        self.attempted += 1
        gaps = sum(issubclass(w.category, SpectralGapWarning) for w in caught)
        self.gap_warnings += gaps
        for w in caught:
            if not issubclass(w.category, SpectralGapWarning):
                name = w.category.__name__
                self.other_warnings[name] = self.other_warnings.get(name, 0) + 1
        command = Command(argv, seconds, rc, out.getvalue(), err.getvalue())
        if rc != 0:
            self.fail(command, f"exit code {rc}: {command.stderr.strip()[-300:]}")
        elif gaps:
            self.fail(command, f"{gaps} SpectralGapWarning(s)")
        return command

    def fail(self, command, why):
        if command.ok:
            command.ok = False
            self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{' '.join(command.argv[:3])}: {why}")

    def check(self, command, problems):
        for why in problems:
            self.fail(command, why)


class Command:
    def __init__(self, argv, seconds, rc, stdout, stderr):
        self.argv = argv
        self.seconds = seconds
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.ok = True


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)


# ---------------------------------------------------------------------------
# workload definitions

def cluster_cap(subdivisions, direction):
    """Vertices under a two-cluster family bump (default radius 0.7) in
    `direction`: CLUSTER_DIR is where the two clusters differ, so where the
    cross field belongs; INTRA_DIR is the pose bump, the mix region."""
    unit, _ = synth.icosphere(subdivisions)
    return synth.bump_region(unit, direction, 0.7)


# build-large-meshes' family. Pose spread 1.2 (default 0.15): at the default,
# the per-cluster consistency forms of `ops align` have gaps below lskit's
# 1e-10 warning level at m=36.
LARGE_FAMILY = {"subdivisions": 5, "per_cluster": 2, "intra_spread": 1.2}

BUILDS = {
    # per-shape work dominates: 10242-vertex shift-invert eigenbases, 12 maps
    # parsed from 10242-line correspondence files, per-vertex field writes,
    # and queries that reparse every mesh; the latent block is 196 wide, so
    # latent-solver changes should not show. Every member carries a bump, so
    # no spectrum is exactly degenerate: on the sphere-bump family's plain
    # sphere b0, spectra warns wrongly or misses an eigenvalue at the band
    # edges (NOTES.md, defects 1 and 3; perfbench/defects.py shows them).
    "build-large-meshes": {
        "synth": ["two-cluster"] + [a for key, value in LARGE_FAMILY.items()
                                    for a in (f"--{key.replace('_', '-')}", str(value))],
        "subdivisions": LARGE_FAMILY["subdivisions"],
        "setups": 3,  # set-ups per run; setup_s is their median
        "k": 49,
        "m": 36,
        "fmn": ["--topology", "clique", "--maps", "correspondence", "--corr-dir", "{data}/correspondences"],
        "mode": "cross",
        "variability": ["--partition", "{data}/ground_truth.json", "--emit-fields"],
        # commands rerun after each build, on the same inputs, for more
        # samples of the short ones; then rounds of the five light queries,
        # and of ops mix and ops align, and extend: at three repetitions 105
        # queries, one in seven heavy, so that query_p90_ms is a heavy one
        "again": (("fmn", "latent", "variability", "ops"),),
        "light_rounds": 6,
        "heavy_rounds": 2,
        "analogy": ["a0", "a1", "b0"],
        "interp": ["a0", "b0"],
    },
    # the 4800-wide latent eigensolve dominates and ~1300 small artifacts load
    # the per-file matio overhead; per-shape work is tiny (162 vertices)
    "build-many-shapes": {
        "synth": ["chain", "--count", "120"],
        "subdivisions": 2,
        "setups": 5,
        "k": 40,
        "m": 30,
        "fmn": ["--topology", "knn:4", "--maps", "identity"],
        "mode": "global",
        "variability": [],
        "again": (("fmn", "variability", "ops"),) * 2,  # latent is long enough
        "light_rounds": 7,  # 105 queries at three repetitions
        "heavy_rounds": 0,
        "analogy": ["frame00", "frame01", "frame02"],
        "interp": ["frame00", "frame60"],
    },
}


def _fmt(args, **paths):
    return [a.format(**paths) for a in args]


def light_queries(data, ws, k, analogy, interp):
    """Read-mostly queries: cache-hit `spectra`, global variability,
    descriptors and two operator-algebra expressions."""
    return [
        ["spectra", data, "--workspace", ws, "--k", str(k)],
        ["variability", "--workspace", ws, "--mode", "global"],
        ["ops", "descriptors", "--workspace", ws],
        ["ops", "analogy", *analogy, "--workspace", ws],
        ["ops", "interp", *interp, "--t", "0.5", "--workspace", ws],
    ]


def heavy_queries(ws, truth, extra, rounds):
    """Queries that reparse meshes: rounds of a region mix and per-cluster
    alignment, then, last because it adds x0 to the workspace, extending by
    a new member."""
    return [
        ["ops", "mix", "a0", "b0", "--region", os.path.join(extra, "region.json"), "--workspace", ws],
        ["ops", "align", "--workspace", ws, "--partition", truth],
    ] * rounds + [
        ["extend", "--workspace", ws, "--mesh", os.path.join(extra, "x0.off"), "--corr",
         os.path.join(extra, "x0_corr.txt")],
    ]


class Run:
    """State and results of one benchmark run."""

    def __init__(self, name, seed, seconds, trace, work):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tracer = spans.Tracer() if trace else None
        self.session = Session(self.tracer)
        self.work = work
        self.times = {}  # metric -> samples
        self.units = []  # per-repetition span summaries of a traced run
        self.guard = {}
        self.notes = {}

    def sample(self, key, value):
        self.times.setdefault(key, []).append(value)

    def unit(self, wall):
        if self.tracer is None:
            return
        summary = spans.summarize(*self.tracer.take())
        summary["unit|wall"] = wall
        self.units.append(summary)

    def cmd(self, argv, trace=True):
        return self.session.run(argv, trace)


def go_on(start, units, seconds, minimum):
    """Whether to start another unit: until `minimum` units are done, and
    then while it would end, on the mean so far, less than half a unit past
    `seconds` after `start`."""
    if units < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / units < seconds


def _startup(run):
    """A fresh process's start-up seconds, sampled for the report."""
    import_s, warm_up_s = startup.measure()
    run.sample("startup_import_s", import_s)
    run.sample("startup_warm_up_s", warm_up_s)
    return import_s + warm_up_s


def _all_pair_correspondences(data):
    """Identity correspondence files for every pair of members, for the
    clique topology; the two-cluster family writes only the pairs that its
    own topology needs."""
    meshes = [load_mesh(os.path.join(data, f)) for f in sorted(os.listdir(data)) if f.endswith(".off")]
    ids = [mesh.shape_id for mesh in meshes]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    synth.write_identity_correspondences(meshes, pairs, os.path.join(data, "correspondences"))


def _extras(run, spec, extra):
    """Inputs of the heavy queries: an extra member x0 (member a0 of the
    seed+1 family) with its identity correspondence file, and the mix
    region (the pose bump cap on a0)."""
    os.makedirs(extra, exist_ok=True)
    sub = spec["subdivisions"]
    src = synth.two_cluster_family(n_per_cluster=LARGE_FAMILY["per_cluster"], intra_spread=LARGE_FAMILY["intra_spread"],
                                   seed=run.seed + 1, subdivisions=sub).meshes[0]
    save_off(Mesh(src.vertices, src.triangles, "x0"), os.path.join(extra, "x0.off"))
    save_correspondence(identity_correspondence(src.num_vertices), os.path.join(extra, "x0_corr.txt"))
    with open(os.path.join(extra, "region.json"), "w", encoding="utf-8") as fh:
        json.dump({"shape": "a0", "vertices": cluster_cap(sub, synth.INTRA_DIR).tolist()}, fh)


def _setup(run, spec, data, extra):
    """One set-up, timed: a fresh process's start-up and the workload's
    generation (synth, and the heavy queries' inputs)."""
    _fresh(data)
    shutil.rmtree(extra, ignore_errors=True)
    started = _startup(run)
    t0 = time.perf_counter()
    run.cmd(["synth", *spec["synth"], "--seed", str(run.seed), "--out", data], trace=False)
    if spec["heavy_rounds"]:
        _all_pair_correspondences(data)
        _extras(run, spec, extra)
    run.sample("setup_s", started + time.perf_counter() - t0)


def run_build(run):
    spec = BUILDS[run.name]
    data, ws, extra = (os.path.join(run.work, d) for d in ("data", "ws", "extra"))
    truth = os.path.join(data, "ground_truth.json")
    for _ in range(spec["setups"]):
        _setup(run, spec, data, extra)
    ref = checks.reference(run.name)
    region = cluster_cap(spec["subdivisions"], synth.CLUSTER_DIR) if spec["mode"] == "cross" else None
    k, m = spec["k"], spec["m"]
    run.guard["k"], eigenvalues = checks.k_gap(k, data, *([extra] if spec["heavy_rounds"] else []))

    pipeline = [
        ["spectra", data, "--workspace", ws, "--k", str(k)],
        ["fmn", "--workspace", ws, *_fmt(spec["fmn"], data=data)],
        ["latent", "--workspace", ws, "--m", str(m), "--kind", "both"],
        ["variability", "--workspace", ws, "--mode", spec["mode"], *_fmt(spec["variability"], data=data)],
        ["ops", "descriptors", "--workspace", ws],
    ]
    queries = light_queries(data, ws, k, spec["analogy"], spec["interp"]) * spec["light_rounds"]
    heavy = heavy_queries(ws, truth, extra, spec["heavy_rounds"]) if spec["heavy_rounds"] else []
    start = time.perf_counter()
    reps = 0
    while go_on(start, reps, run.seconds, MIN_REPETITIONS):
        _fresh(ws)
        gc.collect()  # every repetition starts from the same heap state
        t0 = time.perf_counter()
        done = {argv[0]: run.cmd(argv) for argv in pipeline}
        wall = time.perf_counter() - t0
        run.sample("pipeline_s", wall)
        _sample_commands(run, done)
        _check_build(run, spec, done, ws, truth, ref, region)
        if reps == 0 and all(c.ok for c in done.values()):
            run.session.check(done["spectra"], checks.spectra_outputs(ws, eigenvalues))
            run.guard["m"] = checks.m_gap(ws, m, _clusters(truth) if spec["heavy_rounds"] else ())
        for names in spec["again"]:
            again = {argv[0]: run.cmd(argv) for argv in pipeline if argv[0] in names}
            _sample_commands(run, again)
            _check_build(run, spec, again, ws, truth, ref, region)
            wall += sum(c.seconds for c in again.values())
        for argv in queries + heavy:
            before = len(run.tracer.spans) if run.tracer else 0
            c = run.cmd(argv)
            wall += c.seconds
            run.sample("query_s", c.seconds)
            if any(argv is h for h in heavy):
                run.sample("heavy_s", c.seconds)
                if run.tracer:
                    load = sum(s.duration for s in run.tracer.spans[before:] if s.name == "meshes.load_mesh")
                    run.sample("heavy_load_mesh_s", load)
            if c.ok:
                run.session.check(c, checks.query(argv, c, ws, truth))
        run.unit(wall)
        reps += 1
    run.notes["repetitions"] = reps


def _clusters(truth):
    """The partition's clusters: `ops align` solves one latent basis per cluster."""
    with open(truth, encoding="utf-8") as fh:
        part = json.load(fh)["partition"]
    return [("cluster_a", part["cluster_a"]), ("cluster_b", part["cluster_b"])]


def _sample_commands(run, done):
    for key in ("spectra", "fmn", "latent"):
        if key in done:
            run.sample(f"{key}_s", done[key].seconds)
    if "variability" in done:
        run.sample("analysis_s", done["variability"].seconds + done["ops"].seconds)


def _check_build(run, spec, done, ws, truth, ref, region):
    if not all(c.ok for c in done.values()):
        return
    checkers = {
        "latent": lambda: checks.latent_outputs(ws, ref),
        "variability": lambda: checks.variability_outputs(ws, spec["mode"], truth, ref, region),
        "ops": lambda: checks.descriptor_outputs(ws, ref),
    }
    for key, command in done.items():
        if key in checkers:
            run.session.check(command, checkers[key]())
