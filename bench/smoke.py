"""Smoke test of the benchmark itself, on tiny inputs (about ten seconds).

    python3 bench/smoke.py

Runs each workload's operation and check once, makes sure each check
rejects a corrupted output, and builds the per-layer report from a traced
pass over the CLI defaults.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nlamp import GridSpec  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def expect(condition, message):
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")


def check_workload(wl, corrupt):
    output = wl.op(0, workloads.UNTRACED)
    problems = wl.check(0, output)
    expect(problems == [], f"{wl.name}: {problems}")
    expect(wl.check(0, corrupt(output)), f"{wl.name}: corrupted output passed its check")
    print(f"{wl.name}: operation and check ok")


def main():
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        rng = np.random.default_rng(0)
        check_workload(
            workloads.TableCold(rng, tmp, pool=4),
            lambda out: (out[0], out[1] + 1e-9),
        )
        check_workload(
            workloads.SweepWarm(rng, tmp, pool=2, steps=3),
            lambda rows: [dataclasses.replace(rows[0], g_eff=rows[0].g_eff + 1e-9)] + rows[1:],
        )
        check_workload(
            workloads.Optimize(rng, tmp, thresholds=(1.96,), rounds=1),
            lambda res: dataclasses.replace(res, p_opt=res.p_opt * (1 + 1e-6)),
        )
        check_workload(
            workloads.Wigner(rng, tmp, spec=GridSpec(-8.0, 8.0, -8.0, 8.0, 81, 81),
                             strata=2, rounds=1),
            lambda out: out[:3] + (out[3] + 1e-4,) + out[4:],
        )

        tracer = Tracer(True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = self_times(tracer.spans)
        total = tracer.spans[0]["end"] - tracer.spans[0]["start"]
        expect(abs(outer + inner - total) < 1e-12, "self times do not add up to the outer span")

        tracer = Tracer(True)
        problems = workloads.defaults_pass(tracer, tmp)
        expect(problems == [], f"defaults pass: {problems}")
        defaults = run.with_self_times({"spans": tracer.spans, "self_s": self_times(tracer.spans)})
        layers = run.layer_metrics([], defaults, 0.0)
        expect(set(layers) == set(run.PER_LAYER), f"per-layer names differ: {sorted(layers)}")
        print("tracing and per-layer report ok")
    print("smoke ok")


if __name__ == "__main__":
    main()
