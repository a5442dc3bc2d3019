"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {cli,spectra,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from its
`src/` directory.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

import os

# One BLAS thread: the library's matrices are 2x2 to 256x256, where a second
# OpenBLAS thread only spins.  This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The library's own worker threads (floquet.exponent_sequence) stay off too:
# pass times must not depend on the caller's environment, and the tracer
# keeps one span stack.  Set-up probes inherit all of these.
os.environ["FOWLER_LAB_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("cli", "spectra", "scan")
MIN_PASSES = 3          # timed passes per untraced run, whatever --seconds says
MIN_TRACED = 2          # traced (and untraced) passes per traced run
SETUP_PROBES = 3        # fresh processes timed for setup_s
PROBE_TIMEOUT = 60.0


def _import_library():
    """Put the checkout's `src/` first on the path; refuse any other copy."""
    if not (SRC / "fowlerlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fowlerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fowlerlab
    if Path(fowlerlab.__file__).resolve().parent != SRC / "fowlerlab":
        sys.exit(f"perfbench: imported fowlerlab from {fowlerlab.__file__}, "
                 f"not from {SRC}")


def _workdir(workload):
    return str(HERE / "out" / f"{workload}-{os.getpid()}")


def setup_probe(workload: str, seed: int) -> float:
    """Import the library and prepare the workload in this fresh process."""
    start = time.perf_counter()
    _import_library()
    import workloads
    wl = workloads.make(workload, seed, _workdir(workload))
    try:
        wl.prepare()
        return time.perf_counter() - start
    finally:
        wl.close()


def measure_setup(workload: str, seed: int, cal) -> float:
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_PROBES):
        cal.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    cal.sample()
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, and check failures, over passes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, raw):
        summary = self.wl.summarize(raw)
        self.attempted += self.wl.operations
        self.failed += self.wl.failed(summary)
        self.problems += self.wl.check(summary)


def untraced_run(wl, tally, seconds, cal):
    """Median pass time.  The calibration kernel runs between operations;
    its time is taken out of the pass it interrupted."""
    times = []
    start = time.perf_counter()
    cal.sample()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        spent = cal.spent
        t0 = time.perf_counter()
        raw = wl.run_pass(between=cal.tick)
        times.append(time.perf_counter() - t0 - (cal.spent - spent))
        tally.record(raw)
    return statistics.median(times)


def traced_run(wl, tally, seconds, cal):
    """Alternate untraced and traced passes; per-layer medians over the
    traced ones, the tracing overhead as the difference of medians, and
    the spans' own cost as spans closed per pass times the cost of one."""
    import spans
    tracer = spans.Tracer()
    plain, traced, layers, closed = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds:
        cal.sample()
        t0 = time.perf_counter()
        raw = wl.run_pass()
        plain.append(time.perf_counter() - t0)
        tally.record(raw)
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.region(spans.ROOT_REGION):
                raw = wl.run_pass(tracer.region)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        layers.append(spans.layer_values(tracer, traced[-1]))
        closed.append(spans.spans_closed(tracer))
        tally.record(raw)
    metrics = {name: (statistics.median(v[name] for v in layers), unit)
               for name, unit, _ in spans.LAYER_METRICS
               if name not in spans.RUN_WIDE}
    metrics["bench.trace_overhead.s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    cost = statistics.median(spans.span_cost() for _ in range(5))
    metrics["bench.span_cost.s"] = (cost * statistics.median(closed), "s")
    metrics["bench.calibration.s"] = (cal.median(), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    _import_library()
    import calibration
    import workloads
    cal = calibration.Calibration()
    wl = workloads.make(args.workload, args.seed, _workdir(args.workload))
    try:
        wl.prepare()
        tally = Tally(wl)
        tally.record(wl.run_pass())        # warm-up pass, checked, not timed
        if args.trace:
            metrics = traced_run(wl, tally, args.seconds, cal)
        else:
            setup_s = measure_setup(args.workload, args.seed, cal)
            pass_s = untraced_run(wl, tally, args.seconds, cal)
            scale = cal.factor()
            print(f"measured: pass {pass_s!r} s, setup {setup_s!r} s, "
                  f"calibration kernel {cal.median()!r} s "
                  f"({len(cal.times)} samples)", file=sys.stderr)
            metrics = {
                "pass_s": (pass_s * scale, "s"),
                "setup_s": (setup_s * scale, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
    finally:
        wl.close()
    for msg in tally.problems[:20]:
        print("check failed:", msg, file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
