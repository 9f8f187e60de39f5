"""Record reference invariants into reference.json.

    python3 perfbench/make_reference.py

Run it on the commit whose results are the reference. Only the workloads in
`checks.REFERENCED` are recorded: their synth families do not depend on the
seed, so one record per workload serves every seed.
"""

import json
import os
import shutil
import sys

import run as bench

sys.path.insert(0, bench.SRC)
import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    checks.reference = lambda name: None  # record, do not compare
    out = {}
    for name in checks.REFERENCED:
        spec = workloads.BUILDS[name]
        work = os.path.join(bench.ROOT, ".perfbench_work", f"reference-{name}")
        run = workloads.Run(name, 0, 0, False, work)
        try:
            workloads.run_build(run)
            if run.session.failed or not all(g["ok"] for g in run.guard.values()):
                raise SystemExit(f"{name}: {run.session.problems} {run.guard}")
            out[name] = checks.invariants(os.path.join(work, "ws"), spec["mode"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
