"""Seeded benchmark of the lskit CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (lskit is imported from ./src). Workloads:
build-large-meshes, build-many-shapes (see workloads.py and NOTES.md). With
--trace 0 the run is untraced and reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it records spans around every call into
lskit's layers and reports the per-layer metrics instead. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it ("perfbench: {...}") holds sample counts, quartiles,
the well-posedness guard, warnings, check failures and the environment.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("build-large-meshes", "build-many-shapes")
# BLAS threads, pinned before numpy loads; recorded with every run
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# per-layer metric values come from spans.combine() totals, keyed
# "<span>|<field>"; DERIVED and per_layer() handle the few that are not
FIELDS = {"calls": "calls", "s": "s", "self_s": "self_s", "bytes": "bytes",
          "dense_calls": "dense", "sparse_calls": "sparse"}
DERIVED = {
    "meshes.load_mesh.useful_ratio": lambda g: g("meshes.load_mesh|distinct") / max(g("meshes.load_mesh|calls"), 1.0),
    "spectral.eigenbasis.max_vertices": lambda g: g("spectral.eigenbasis|max"),
    "latent.block_size": lambda g: g("latent.block_assembly|max"),
    "opalg.s": lambda g: g("opalg|self_s"),
}


def end_to_end(run):
    t = run.times
    q = t["query_s"]
    med = {key: statistics.median(t[key]) for key in
           ("setup_s", "pipeline_s", "spectra_s", "fmn_s", "latent_s", "analysis_s")}
    return {
        **{key: (value, "s") for key, value in med.items()},
        "query_p50_ms": (1000.0 * statistics.median(q), "ms"),
        "query_p90_ms": (1000.0 * statistics.quantiles(q, n=10, method="inclusive")[-1], "ms"),
        "queries_per_s": (len(q) / sum(q), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run, span_cost):
    import spans

    totals = spans.combine(run.units)

    def g(key):
        return totals.get(key, 0.0)

    out = {}
    for name, unit in declared_metrics(True).items():
        if name in DERIVED:
            value = DERIVED[name](g)
        elif name == "trace_overhead_frac":
            value = span_cost * g("spans|count") / g("unit|wall")
        elif name == "warnings.spectral_gap":
            value = run.session.gap_warnings
        else:
            span, field = name.rsplit(".", 1)
            value = g(f"{span}|{FIELDS[field]}")
        out[name] = (value, unit)
    shares = {
        "latent.eigensolve.self_s / cli.latent.s": g("latent.eigensolve|self_s") / max(g("cli.latent|s"), 1e-12),
        "spectral.eigenbasis.s / cli.spectra.s": g("spectral.eigenbasis|s") / max(g("cli.spectra|s"), 1e-12),
    }
    heavy = run.times.get("heavy_s")
    if heavy:
        shares["meshes.load_mesh.s / heavy query s"] = sum(run.times["heavy_load_mesh_s"]) / sum(heavy)
    run.notes["shares"] = shares
    run.notes["span_cost_s"] = span_cost
    return out


def environment():
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        env["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        env["openblas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    return env


def _quartiles(values):
    if len(values) < 2:
        return values
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[1], q[2]]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lskit", "cli.py")):
        print(f"perfbench: no lskit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import lskit
    import startup
    import workloads

    if os.path.dirname(os.path.abspath(lskit.__file__)) != os.path.join(SRC, "lskit"):
        print(f"perfbench: lskit imported from {lskit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    startup.warm_up()
    t2 = time.perf_counter()

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    # this process's own start-up; setup_s takes fresh processes' (startup.py)
    run.notes.update(import_s=t1 - t0, warm_up_s=t2 - t1)
    span_cost = 0.0
    try:
        if run.tracer is not None:
            import spans

            span_cost = spans.span_cost()
            run.tracer.install()
        workloads.run_build(run)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    metrics = per_layer(run, span_cost) if args.trace else end_to_end(run)
    guard_ok = all(g["ok"] for g in run.guard.values()) and set(run.guard) == {"k", "m"}
    s = run.session
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "failed_frac": s.failed / max(s.attempted, 1),
        "samples": {k: len(v) for k, v in run.times.items()},
        "quartiles": {k: _quartiles(v) for k, v in run.times.items()},
        "values": run.times,
        "guard": run.guard, "spectral_gap_warnings": s.gap_warnings, "other_warnings": s.other_warnings,
        "problems": s.problems, "notes": run.notes, "environment": environment(),
    }
    print("perfbench: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": s.failed == 0 and guard_ok and s.gap_warnings == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
