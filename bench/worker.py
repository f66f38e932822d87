"""One share of a workload in one fresh process: set up, run a window, report.

Started by run.py, never by hand.  Worker k of P takes the operations of
the seeded sequence whose stratum is k modulo P, so the P workers of a run
share every round between them.  Prints one JSON object on stdout.  The set-up time runs
from the top of this file, before numpy and nlamp are imported, to the start
of the timed window.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads(numpy_module):
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    libs_dir = Path(numpy_module.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Share:
    """This worker's operations, with its attempt, failure and memory record."""

    def __init__(self, wl, proc, procs):
        self.wl = wl
        self.ops = [i for i in range(wl.size) if wl.stratum(i) % procs == proc]
        self.round = max(1, wl.round_size // procs)
        self.rss_ops = max(1, wl.rss_ops // procs)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = None

    def window(self, tracer, seconds, start):
        """Closed loop, one client: whole rounds until `seconds` have passed.

        Returns (next position, window seconds, latencies in ms of the
        operations that passed their check).
        """
        latencies = []
        pos = start
        t_start = time.perf_counter()
        while pos < len(self.ops):
            if (pos - start) % self.round == 0 and time.perf_counter() - t_start >= seconds:
                break
            self.run(tracer, self.ops[pos], latencies)
            pos += 1
        return pos, time.perf_counter() - t_start, latencies

    def run(self, tracer, i, latencies):
        tracer.op_id = i
        with tracer.span("op"):
            t = time.perf_counter()
            try:
                output = self.wl.op(i, tracer)
            except Exception:  # a failed operation is counted, not fatal
                problems = [traceback.format_exc(limit=3)]
            else:
                elapsed = time.perf_counter() - t
                problems = self.wl.check(i, output)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems[:3])
        else:
            latencies.append(1e3 * elapsed)
        if self.attempted == self.rss_ops:
            self.peak_rss_mb = peak_rss_mb()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--proc", type=int, required=True)
    parser.add_argument("--procs", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    import nlamp
    from tracing import Tracer, self_times
    from workloads import UNTRACED, WORKLOADS, defaults_pass

    if not Path(nlamp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"nlamp imported from {nlamp.__file__}, not from this checkout")

    wl = WORKLOADS[args.workload](np.random.default_rng(args.seed), args.work_dir)
    wl.warm_up()
    share = Share(wl, args.proc, args.procs)
    result = {"setup_s": time.perf_counter() - T0}

    seconds = args.seconds / (2 if args.trace else 1)
    nxt, result["window_s"], result["latencies_ms"] = share.window(UNTRACED, seconds, 0)
    if args.trace:
        tracer = Tracer(True)
        end, traced_s, traced_lat = share.window(
            tracer, seconds, 0 if wl.replay_traced else nxt)
        nxt = max(nxt, end)
        result["traced"] = {
            "window_s": traced_s,
            "ok_ops": len(traced_lat),
            "spans": tracer.spans,
            "self_s": self_times(tracer.spans),
        }
    # memory is compared on the same operations on every commit
    while share.attempted < share.rss_ops and nxt < len(share.ops):
        share.run(UNTRACED, share.ops[nxt], [])
        nxt += 1
    if args.trace and args.proc == args.procs - 1:
        defaults = Tracer(True)
        defaults.op_id = "defaults"
        try:
            problems = defaults_pass(defaults, args.work_dir)
        except Exception:  # counted as one failed attempt
            problems = [traceback.format_exc(limit=3)]
        share.attempted += 1
        share.failed += bool(problems)
        share.problems += problems
        result["defaults"] = {"spans": defaults.spans, "self_s": self_times(defaults.spans)}
    result.update(
        attempted=share.attempted,
        failed=share.failed,
        problems=share.problems,
        peak_rss_mb=share.peak_rss_mb or peak_rss_mb(),
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nlamp": getattr(nlamp, "__version__", None),
            "blas_threads": blas_threads(np),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
