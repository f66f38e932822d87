"""nlamp benchmark: one command, seeded workloads, checked outputs.

    python3 bench/run.py --workload table-cold --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the root of a source checkout; the package is imported from its
`src/`.  Each workload runs in three fresh worker processes (bench/worker.py),
one after another, each with one BLAS thread.  Each sets up on its own and
then runs a third of the timed window on its share of the operations, so
`setup_s` is the median of three set-ups and one unlucky process moves the
figures by a third only.  The human-readable report goes to stdout, the last
line of which is the JSON result; the full result, including the environment
and, with --trace 1, every span, is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table-cold", "sweep-warm", "optimize", "wigner")
PROCESSES = 3
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scheme.run_branch.calls": "count",
    "scheme.run_branch.p50_ms": "ms",
    "scheme.enumerate.ms": "ms",
    "scheme.gain_fidelity_sweep.ms": "ms",
    "scheme.dim_mean": "levels",
    "optimize.maximize.calls": "count",
    "optimize.maximize.p50_ms": "ms",
    "optimize.evals": "count",
    "wigner.wigner_of_state.ms": "ms",
    "wigner.fidelity_grid.ms": "ms",
    "wigner.expect_a_grid.ms": "ms",
    "wigner.export_grid.ms": "ms",
    "wigner.export_grid.bytes": "bytes",
    "wigner.import_grid.ms": "ms",
    "wigner.grid_cells": "count",
    "wigner.state_dim_mean": "levels",
    "cli.table1.s": "s",
    "cli.branches.s": "s",
    "cli.sweep.s": "s",
    "cli.wigner.s": "s",
    "cli.optimize.s": "s",
    "trace.overhead_pct": "%",
}

SCHEME_SPANS = ("scheme.run_branch", "scheme.enumerate", "scheme.gain_fidelity_sweep")


def layer_metrics(window: list[dict], defaults: list[dict], overhead_pct: float) -> dict:
    """Per-layer figures from the spans of a traced run.

    A layer's figures come from the workload's own calls into it (`window`);
    a layer the workload never calls is measured by the pass over the CLI
    defaults that follows the window (`defaults`).  Each span carries its
    self time as `self_s`; `.ms` figures are the median self time of one
    call.  A figure with no span to measure it is left out.
    """

    def pick(*names):
        return ([s for s in window if s["name"] in names]
                or [s for s in defaults if s["name"] in names])

    def median(values, scale=1.0):
        values = list(values)
        return scale * statistics.median(values) if values else None

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else None

    def median_ms(*names):
        return median((s["self_s"] for s in pick(*names)), 1e3)

    scheme = pick(*SCHEME_SPANS)
    maximize = pick("optimize.maximize")
    wig = pick("wigner.wigner_of_state")
    out = {
        "scheme.run_branch.calls": sum(s["attrs"]["branches"] for s in scheme),
        "scheme.run_branch.p50_ms": median(
            (s["self_s"] / s["attrs"]["branches"] for s in scheme), 1e3),
        "scheme.enumerate.ms": median_ms("scheme.enumerate"),
        "scheme.gain_fidelity_sweep.ms": median_ms("scheme.gain_fidelity_sweep"),
        "scheme.dim_mean": mean(s["attrs"]["dim"] for s in scheme),
        "optimize.maximize.calls": len(maximize),
        "optimize.maximize.p50_ms": median_ms("optimize.maximize"),
        # OptResult.iterations is optional: without it the figure is left out
        "optimize.evals": (median(s["attrs"]["evals"] for s in maximize)
                           if all("evals" in s["attrs"] for s in maximize) else None),
        "wigner.wigner_of_state.ms": median_ms("wigner.wigner_of_state"),
        "wigner.fidelity_grid.ms": median_ms("wigner.fidelity_grid"),
        "wigner.expect_a_grid.ms": median_ms("wigner.expect_a_grid"),
        "wigner.export_grid.ms": median_ms("wigner.export_grid"),
        "wigner.export_grid.bytes": median(s["attrs"]["bytes"] for s in pick("wigner.export_grid")),
        "wigner.import_grid.ms": median_ms("wigner.import_grid"),
        "wigner.grid_cells": median(s["attrs"]["cells"] for s in wig),
        "wigner.state_dim_mean": mean(s["attrs"]["dim"] for s in wig),
    }
    for name in ("table1", "branches", "sweep", "wigner", "optimize"):
        out[f"cli.{name}.s"] = median(s["self_s"] for s in pick(f"cli.{name}"))
    out["trace.overhead_pct"] = overhead_pct
    return {k: v for k, v in out.items() if v is not None}


def self_time_table(spans: list[dict]) -> list[tuple[str, int, float]]:
    """(span name, calls, total self seconds), largest first."""
    table: dict[str, list] = {}
    for span in spans:
        row = table.setdefault(span["name"], [0, 0.0])
        row[0] += 1
        row[1] += span["self_s"]
    return sorted(((k, n, t) for k, (n, t) in table.items()), key=lambda r: -r[2])


def with_self_times(part: dict) -> list[dict]:
    return [dict(s, self_s=t) for s, t in zip(part["spans"], part["self_s"])]


def run_worker(workload, seed, seconds, trace, work_dir, deadline, proc):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", str(work_dir),
            "--proc", str(proc), "--procs", str(PROCESSES)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(workload, seed, seconds, trace, out_dir, deadline):
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        workers = [run_worker(workload, seed, seconds / PROCESSES, trace, work_dir, deadline, k)
                   for k in range(PROCESSES)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lat = [x for w in workers for x in w["latencies_ms"]]
    if not lat:
        problems = [p for w in workers for p in w["problems"]][:3]
        raise RuntimeError(f"{workload}: no operation passed its check: {problems}")
    window_s = sum(w["window_s"] for w in workers)
    res = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "problems": [p for w in workers for p in w["problems"]],
        "env": dict(workers[0]["env"], cpu=cpu_model(), nproc=len(os.sched_getaffinity(0)),
                    git_commit=git_commit(), seed=seed),
        "workers": workers,
    }
    e2e = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "ops_per_s": len(lat) / window_s,
        "op_p50_ms": statistics.median(lat),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    # printed but left out of the JSON line: a p90 needs at least ten
    # operations beyond it, and failed_frac is 0 on a correct run
    extra = {"failed_frac": (res["failed"] / res["attempted"], "fraction")}
    if len(lat) >= 100:
        extra["op_p90_ms"] = (statistics.quantiles(lat, n=10, method="inclusive")[-1], "ms")
    res["end_to_end"] = e2e
    res["extra"] = {k: v for k, (v, _) in extra.items()}
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    lines = [f"== {workload}  seed {seed}  window {window_s:.2f} s in {PROCESSES} processes  "
             f"ops {res['attempted']} ({len(lat)} timed ok, {res['failed']} failed)"]
    lines += [f"  {k:<16} {v:>14.6g} {END_TO_END[k]}" for k, v in e2e.items()]
    lines += [f"  {k:<16} {v:>14.6g} {unit}" for k, (v, unit) in extra.items()]
    if trace:
        window = [s for w in workers for s in with_self_times(w["traced"])]
        defaults = [s for w in workers if "defaults" in w for s in with_self_times(w["defaults"])]
        traced_rate = (sum(w["traced"]["ok_ops"] for w in workers)
                       / sum(w["traced"]["window_s"] for w in workers))
        layers = layer_metrics(window, defaults, 100.0 * (1.0 - traced_rate * window_s / len(lat)))
        res["per_layer"] = layers
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
        lines += [f"  {k:<30} {v:>14.6g} {PER_LAYER[k]}" for k, v in layers.items()]
        lines.append("  self time by span (traced windows, then the pass over the defaults):")
        lines += [f"    {name:<28} {n:>6} calls {t:>10.4f} s"
                  for name, n, t in self_time_table(window) + self_time_table(defaults)]
    lines.append("  env " + json.dumps(res["env"], sort_keys=True))
    lines += [f"  problem: {p}" for p in res["problems"][:10]]
    print("\n".join(lines), flush=True)
    with open(out_dir / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(res, fh)
    return res, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlamp" / "__init__.py").is_file():
        print(f"no nlamp sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(selected)
    results, metrics = [], {}
    for workload in selected:
        res, wl_metrics = run_workload(workload, args.seed, args.seconds, args.trace,
                                       out_dir, deadline)
        results.append(res)
        prefix = "" if len(selected) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
