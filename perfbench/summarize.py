"""Median, quartiles and spread of each metric over saved benchmark runs.

    python3 perfbench/summarize.py RUN_OUTPUT...

Each file holds the standard output of one `perfbench/run.py` run. Runs are
grouped by workload and trace mode. The spread is (q3 - q1) / median, with
quartiles as `statistics.quantiles(values, n=4)` gives them; for end-to-end
metrics it is compared with a third of the metric's bound in BENCHMARK.json.
Prints one JSON document.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    detail = next(json.loads(line[len("perfbench: "):]) for line in lines if line.startswith("perfbench: "))
    return detail, json.loads(lines[-1])


def main(paths):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    groups = {}
    for path in paths:
        detail, result = load(path)
        key = f"{detail['workload']} trace={detail['trace']}"
        group = groups.setdefault(key, {"runs": 0, "correct": 0, "seeds": [], "metrics": {}})
        group["runs"] += 1
        group["correct"] += bool(result["correct"])
        group["seeds"].append(detail["seed"])
        for name, metric in result["metrics"].items():
            group["metrics"].setdefault(name, []).append(metric["value"])
    out = {}
    for key, group in sorted(groups.items()):
        rows = {}
        for name, values in group["metrics"].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
            if name in bounds and row["spread"] is not None:
                row["bound"] = bounds[name]
                row["within_third_of_bound"] = row["spread"] <= bounds[name] / 3
            rows[name] = row
        out[key] = {"runs": group["runs"], "correct": group["correct"], "seeds": group["seeds"], "metrics": rows}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main(sys.argv[1:])
