"""Median, quartiles and spread of benchmark results, per workload and metric.

    python3 bench/summarize.py .bench_out
    python3 bench/summarize.py after/ --before before/

Reads the result files run.py writes (one per workload, seed and trace
setting).  The spread is the distance between the first and third quartile
as a share of the median.  With --before, each metric's median is compared
with the other directory's and the change is set against the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory, trace):
    """{workload: {metric: [values]}} over the result files in a directory."""
    table = defaultdict(lambda: defaultdict(list))
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            res = json.load(fh)
        if not isinstance(res, dict) or res.get("trace") != trace:
            continue
        metrics = res["per_layer"] if trace else dict(res["end_to_end"], **res["extra"])
        for name, value in metrics.items():
            table[res["workload"]][name].append(value)
    return table


def describe(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("directory")
    parser.add_argument("--before", help="directory of results to compare against")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    bounds, better = {}, {}
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for m in spec["end_to_end"]:
            bounds[m["name"]], better[m["name"]] = m["bound"], m["better"]
    after = load(args.directory, args.trace)
    before = load(args.before, args.trace) if args.before else {}
    print(f"{'workload':<12} {'metric':<30} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6}" + ("  change vs before" if before else ""))
    for workload in sorted(after):
        for name, values in after[workload].items():
            median, q1, q3 = describe(values)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            line = (f"{workload:<12} {name:<30} {len(values):>3} {median:>12.6g} {q1:>12.6g}"
                    f" {q3:>12.6g} {spread:>7.3f} {bound if bound is not None else '':>6}")
            old = before.get(workload, {}).get(name)
            old_median = statistics.median(old) if old else 0.0
            if old_median:
                change = (median - old_median) / abs(old_median)
                worse = -change if better.get(name) == "higher" else change
                verdict = "" if bound is None else ("  REGRESSION" if worse > bound else "  ok")
                line += f"  {change:+.3f}{verdict}"
            print(line)


if __name__ == "__main__":
    main()
